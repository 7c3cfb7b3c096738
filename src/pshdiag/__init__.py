"""Exact calculus of indicator diagrams of plurisubharmonic singularities.

Diagrams are complete convex subsets of the nonnegative orthant, stored by
their canonical vertex sets over exact rationals.  The package computes
directional Lelong numbers, support/indicator values, Newton numbers,
Minkowski sums, homothety witnesses, and decides Minkowski decomposability
modulo homothety with verifiable certificates.
"""

from .diagram import (
    Diagram,
    DiagramGraph,
    HomothetyWitness,
    canonicalize,
    compact_graph,
    contains,
    diagram_from_json,
    diagram_to_json,
    hull_union,
    is_homothetic_to,
    lelong_directional,
    minkowski_sum,
    scale,
    support_value,
    touches_all_axes,
    translate,
)
from .decomposition import (
    CAVEAT,
    Decomposable,
    ExtremityReport,
    Indecomposable,
    SummandSystem,
    certificate_to_json,
    classify_extreme,
    decide_decomposability,
    summand_system,
    summands_of,
    verify_decomposition,
)
from .measures import (
    INFINITE,
    NewtonNumberResult,
    covolume_2d_oracle,
    indicator_eval,
    intercept_simplex,
    newton_number,
    relative_type_monomial,
    weighted_simplex,
)
from .polynomials import (
    Polynomial,
    SingularityInput,
    diagram_from_input_json,
    diagram_of_input,
    expand,
    index_of,
    input_from_json,
    input_to_json,
    newton_support,
    parse_polynomial,
    parse_tree,
    poly_add,
    poly_mul,
    poly_pow,
    polynomial,
    serialize_polynomial,
    singularity_input,
    substitute_linear,
    support_of,
    weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
