"""Workload `cli`: the README's command-line examples.

Every example runs as `cli.main(argv)` in this process, with stdout
captured and compared byte for byte against the README; that closed
loop times argument parsing, the library calls and output formatting.
Once per run every example also runs as a fresh `python -m
cantorshift.cli` process, checked the same way, and its wall time is
reported.  A fresh process costs 160-330 ms, most of it the interpreter
and the numpy import, which `setup_s` (import in a fresh interpreter)
tracks.  Fresh processes are not the timed ops because on a shared
2-CPU machine their per-call time moved by up to a third from run to
run, more than any bound allows.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys

from harness import ROOT, Op, bench_env

NAME = "cli"
# Every example costs about the same (argument parsing dominates), so
# the slowest 1% of calls are the machine's millisecond jitter, not the
# program; p90 still has ten times as many samples beyond it.
TAIL_PCT = 90

# (argv after the program name, stdout) as printed in README.md
EXAMPLES = [
    (['expand', '--x', '5/6', '--q', '{"kind": "explicit", "values": [2, 3, 4]}', '--depth', '4'],
     '{"prefix": [1, 2, 0, 0], "tail": "zero", "value": "5/6"}\n'),
    (['shift', '--x', '5/6', '--q', '2', '--n', '1'],
     '{"value": "2/3"}\n'),
    (['normalize', '--program', '{"word": [{"gen": 2}, {"gen": 2}, {"sigma": null}]}'],
     '{"sigma_power": 3, "word": [{"sigma": null}, {"sigma": null}, {"sigma": null}]}\n'),
    (['salem', 'eval', '--system', '{"q": 2, "p": ["1/3", "2/3"]}', '--x', '1/2'],
     '{"error_bound": "0/1", "terms": 1, "value": "1/3"}\n'),
    (['salem', 'table', '--system', '{"q": 2, "p": ["1/3", "2/3"]}', '--points', '5', '--exact'],
     'x,g,err_bound\n0/1,0/1,0/1\n1/4,1/9,0/1\n1/2,1/3,0/1\n3/4,5/9,0/1\n1/1,1/1,0/1\n'),
    (['gk', 'bounds', '--depth', '16', '--spec', '{"q": 2, "lhs": {"word": [{"sigma": null}]}, "rhs": {"programOnZ": {"word": []}}}'],
     '{"decided_mass": "32767/32768", "depth": 16, "lower": "32767/65536", "upper": "32769/65536"}\n'),
    (['gk', 'scan', '--q', '2', '--family', '{"kind": "mod-filter", "m": 2, "c": 3}', '--rhs', '{"const": "1/2"}', '--params', '1:7'],
     'n,lower,upper,decided_mass\n1,1/2,1/2,1/1\n4,1/2,1/2,1/1\n7,1/2,1/2,1/1\n'),
]


def make_spec(seed: int) -> dict:
    return {"seed": seed, "examples": EXAMPLES}


def build(spec: dict) -> "CLI":
    import cantorshift.cli
    return CLI(cantorshift.cli, spec)


class CLI:
    name = NAME
    tail_pct = TAIL_PCT
    regression = ()

    def __init__(self, cli, spec):
        self.cli = cli
        self.seed = spec["seed"]
        self.examples = [(list(argv), out) for argv, out in spec["examples"]]
        self.env = bench_env()

    def shares(self) -> dict:
        return {}

    def pass_ops(self, p: int) -> list:
        order = list(range(len(self.examples)))
        random.Random(f"{self.seed}/cli/{p}").shuffle(order)
        return [self._main_op(*self.examples[i]) for i in order]

    def probes(self) -> list:
        """Each example once as a fresh process."""
        return [self._process_op(*example) for example in self.examples]

    def _process_op(self, argv, out):
        cmd = [sys.executable, "-m", "cantorshift.cli", *argv]
        want = out.encode()

        def call():
            return subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT)

        return Op("process", call, lambda r: r.returncode == 0 and r.stdout == want,
                  label=" ".join(argv[:2]))

    def _main_op(self, argv, out):
        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
            return code, stdout.getvalue()

        cmd = " ".join(argv[:2]) if argv[0] in ("salem", "gk") else argv[0]
        return Op(f"main[{cmd}]", call, lambda r: r == (0, out), label=cmd)
