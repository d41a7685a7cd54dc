"""cantorshift: exact digit arithmetic over Cantor-series bases, shift
and digit-deletion operators with their composition calculus,
singular-function systems, and measure bounds for digit-defined sets.

The public names are each module's `__all__`, republished here, plus
`__version__`."""

from . import errors, gausskuzmin, numeral, salem, shifts
from .errors import *
from .numeral import *
from .shifts import *
from .salem import *
from .gausskuzmin import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *numeral.__all__, *shifts.__all__, *salem.__all__,
           *gausskuzmin.__all__, "__version__"]
