"""The package's public names: each module's `__all__`, republished by
`cantorshift` bound to the same objects."""

import importlib

import cantorshift

# module -> the public names it owns, as the package has always listed them
PUBLIC = {
    "errors": ["DomainError", "InsufficientDepthError", "InvalidSystemError"],
    "numeral": [
        "QSequence", "DigitString", "Tail", "ZERO_TAIL", "MAX_TAIL", "periodic_tail",
        "truncated_tail", "Interval", "Cylinder", "ClassifyResult", "expand",
        "expand_exact", "eval_prefix", "classify_rationality", "cylinder_info",
        "parse_rational", "format_rational",
    ],
    "shifts": [
        "Atom", "SIGMA", "GEN", "ShiftProgram", "shift_n", "gen_shift", "apply_program",
        "normalize_program", "reconstruct_identity", "ReconstructionCheck",
        "required_depth", "drop_positions",
    ],
    "salem": [
        "Reorder", "SalemSystem", "Violation", "ValidationReport", "validate_system",
        "ensure_valid", "EvalResult", "evaluate", "residual", "integral", "TableRow",
        "emit_table", "McMean", "mc_mean",
    ],
    "gausskuzmin": [
        "ConstRhs", "ProgramOnZ", "ProgramOnX", "rhs_from_json", "GKSetSpec",
        "MeasureBounds", "measure_bounds", "McMeasure", "measure_mc", "ScanRow",
        "limit_scan", "sigma_family", "generator_family",
    ],
}


def test_public_names_are_pinned():
    names = [n for owned in PUBLIC.values() for n in owned] + ["__version__"]
    assert len(names) == 60
    assert sorted(cantorshift.__all__) == sorted(names)


def test_each_name_is_its_module_object():
    for module, owned in PUBLIC.items():
        mod = importlib.import_module(f"cantorshift.{module}")
        assert sorted(getattr(mod, "__all__", owned)) == sorted(owned), module
        for name in owned:
            assert getattr(cantorshift, name) is getattr(mod, name), name
    assert cantorshift.__version__ == "0.1.0"
