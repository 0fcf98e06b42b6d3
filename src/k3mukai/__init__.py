"""Exact Segre and Verlinde numbers of sheaf moduli on K3 surfaces.

The package has three layers: the Mukai lattice with its pairing and exact
linear algebra (`lattice`), the closed-form Segre and Verlinde numbers at
rank one with the one reduction map from rank rho and the correspondence
check (`segre_verlinde`), and the reduction of moduli-space integral data to
Hilbert-scheme data on that map (`reduction`).  A CLI (`k3mukai` or
`python -m k3mukai`) fronts all of it.  The exact truncated-power-series
engine (`series`) is the tests' independent oracle; only its small input
helpers serve the numbers.
"""

from .lattice import (
    FingerprintMatrix,
    MukaiVector,
    QuadraticSpace,
    fingerprint,
    gram_matrix,
    gram_rank,
    hilbert_scheme_vector,
    hyperbolic_plane,
    k3_lattice,
    mukai_pairing,
    mukai_vector_from_chern,
    nondegenerate_reduction,
    point_class,
    span_dim,
    span_isometry,
)
from .reduction import (
    KClassInvariants,
    ModuliData,
    PairingList,
    ReductionTarget,
    dependence_pairings,
    dim2_evaluate,
    hilbert_pairings,
    reduce_to_hilbert,
    segre_cross_check,
)
from .segre_verlinde import (
    CorrespondenceReport,
    SegreParams,
    VerlindeParams,
    check_correspondence,
    segre_number,
    verlinde_number,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceReport",
    "FingerprintMatrix",
    "KClassInvariants",
    "ModuliData",
    "MukaiVector",
    "PairingList",
    "QuadraticSpace",
    "ReductionTarget",
    "SegreParams",
    "VerlindeParams",
    "check_correspondence",
    "dependence_pairings",
    "dim2_evaluate",
    "fingerprint",
    "gram_matrix",
    "gram_rank",
    "hilbert_pairings",
    "hilbert_scheme_vector",
    "hyperbolic_plane",
    "k3_lattice",
    "mukai_pairing",
    "mukai_vector_from_chern",
    "nondegenerate_reduction",
    "point_class",
    "reduce_to_hilbert",
    "segre_cross_check",
    "segre_number",
    "span_dim",
    "span_isometry",
    "verlinde_number",
]
