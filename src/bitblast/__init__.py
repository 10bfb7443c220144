"""bitblast: prove finite properties of a small Lisp-like term language
by symbolic execution over bit-level Boolean encodings, with canonical
decision diagrams or and-inverter graphs plus SAT underneath."""

from .engine import AigEngine, BddEngine, make_engine
from .interp import Interp, InterpConfig, register_preferred_def, set_debug_hooks
from .lang import base_env, parse_term
from .prover import (
    ParamTheoremSpec,
    ProverOptions,
    TheoremSpec,
    check_coverage,
    prove_gl_param_thm,
    prove_gl_thm,
)
from .symobj import g_int, parse_shape, shape_to_symobj, sym_eval
from .toplevel import parse_events, parse_file

__all__ = [
    "AigEngine",
    "BddEngine",
    "Interp",
    "InterpConfig",
    "ParamTheoremSpec",
    "ProverOptions",
    "TheoremSpec",
    "base_env",
    "check_coverage",
    "g_int",
    "make_engine",
    "parse_events",
    "parse_file",
    "parse_shape",
    "parse_term",
    "prove_gl_param_thm",
    "prove_gl_thm",
    "register_preferred_def",
    "set_debug_hooks",
    "shape_to_symobj",
    "sym_eval",
]

__version__ = "0.1.0"
