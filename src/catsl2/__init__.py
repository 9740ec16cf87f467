"""Symbolic engine for categorified quantum sl(2) on equivariant flag bimodules.

The package realizes the graded rings attached to Grassmannians and
one-step flags, the iterated tensor bimodules between them with a
canonical normal form, the generator 2-morphisms (dots, crossings, cups,
caps) as executable bimodule maps, a textual diagram language, and a
relation suite that machine-checks every defining identity of the
calculus at a chosen rank N.
"""

from .exactpoly import Polynomial, Rational, VarSymbol, homogeneous_degree
from .grassrings import GrassContext, StepRing, bubble_value, special_class
from .bimodules import (
    BimElement,
    FlagPath,
    RawTensor,
    act,
    basis,
    graded_rank,
    inject_at_junction,
    normalize,
    tensor,
)
from .twomorphisms import (
    BimMap,
    SignedWord,
    compile_word,
    compose_chain,
    gen_cap,
    gen_crossing,
    gen_cup,
    gen_dot,
    identity_map,
    map_equals,
)
from .diagramlang import DiagramAST, compile_diagram, parse_diagram, parse_element
from .relationsuite import quantum_integer, run_suite

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "Rational", "VarSymbol", "homogeneous_degree",
    "GrassContext", "StepRing", "bubble_value", "special_class",
    "BimElement", "FlagPath", "RawTensor", "act", "basis", "graded_rank",
    "inject_at_junction", "normalize", "tensor",
    "BimMap", "SignedWord", "compile_word", "compose_chain",
    "gen_cap", "gen_crossing", "gen_cup", "gen_dot", "identity_map",
    "map_equals",
    "DiagramAST", "compile_diagram", "parse_diagram", "parse_element",
    "quantum_integer", "run_suite",
]
