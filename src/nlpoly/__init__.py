"""Exact NL-coflow/NL-flow polynomials and the trivariate dichromate.

The library computes, in exact arithmetic, the NL-coflow polynomial,
the NL-flow polynomial and the trivariate dichromate of a digraph or a
rationally realized oriented matroid, by explicitly constructing the
union supermatroid on a doubled ground set, its nonnegative face
lattice, and the Moebius function of that lattice.
"""

from .checks import CheckResult, run_checks
from .digraph import (
    DEFAULT_COLORING_BUDGET,
    DEFAULT_ENUMERATION_CAP,
    Digraph,
    count_acyclic_colorings,
    incidence_matrix,
    matroid_from_digraph,
    nl_coflow_graphic,
    parse_digraph,
    totally_cyclic_poset,
)
from .errors import (
    ContractViolation,
    DimensionError,
    InvalidBasisError,
    InvalidPosetError,
    NotARealizationError,
    ParseError,
    ResourceLimitError,
)
from .om import (
    Chirotope,
    FaceLattice,
    RealizedOM,
    SignVector,
    chirotope_from_matrix,
    cocircuits,
    dual_realization,
    mobius_from_bottom,
    nonneg_face_lattice,
    standardize,
)
from .poly import (
    TriPoly,
    dichromate,
    evaluate,
    nl_coflow_matroid,
    nl_flow_matroid,
    specialize,
)
from .ratlin import (
    RatMatrix,
    det_rat,
    det_sign_eps,
    eps_limit_rows,
    rank_rat,
    row_basis,
    standard_form,
)
from .union import (
    DUAL,
    NEITHER,
    PRIMAL,
    HatMatroid,
    build_hat,
    lift_dual,
    lift_primal,
    minor,
    restrict,
)

__version__ = "0.1.0"
