"""Exact combinatorics of free monoids of dominant weights.

Given a semisimple group (by Dynkin type) and a free monoid of dominant
weights, the package enumerates the catalog of spherically closed spherical
roots, decides which roots and root subsets are adapted or N-adapted to the
monoid, lists the tangent weights at the most degenerate point of the
associated moduli of multiplication laws, and cross-checks the answer with
an independent representation-theoretic computation.
"""

from .adapted import (
    NAdaptedVerdict,
    SingletonVerdict,
    SphericalSystemCheck,
    SubsetRecord,
    TangentReport,
    check_span_closure,
    check_system_axioms,
    enumerate_n_adapted_subsets,
    is_adapted_singleton,
    is_adapted_subset,
    is_n_adapted_singleton,
    is_n_adapted_subset,
    tangent_space,
)
from .chevalley import build_chevalley
from .irreps import (
    DimensionBudgetExceeded,
    IrrepModule,
    build_irrep,
    freudenthal_multiplicities,
    weyl_dimension,
)
from .oracle import (
    AmbientModel,
    build_model,
    codim1_orbit_weights,
    invariant_quotient_weights,
    oracle_report,
    oracle_tangent_weights,
)
from .rootsys import (
    RootSystem,
    RootSystemError,
    build_root_system,
    classify_subdiagram,
    positive_root_count,
    positive_roots,
)
from .sphroots import SphericalRoot, compatible_with_sp, spherical_root_catalog
from .wmonoid import (
    DependentBasis,
    LatticeMembershipError,
    NonDominantWeight,
    WeightMonoidContext,
    build_context,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientModel",
    "DependentBasis",
    "DimensionBudgetExceeded",
    "IrrepModule",
    "LatticeMembershipError",
    "NAdaptedVerdict",
    "NonDominantWeight",
    "RootSystem",
    "RootSystemError",
    "SingletonVerdict",
    "SphericalRoot",
    "SphericalSystemCheck",
    "SubsetRecord",
    "TangentReport",
    "WeightMonoidContext",
    "build_chevalley",
    "build_context",
    "build_irrep",
    "build_model",
    "build_root_system",
    "check_span_closure",
    "check_system_axioms",
    "classify_subdiagram",
    "codim1_orbit_weights",
    "compatible_with_sp",
    "enumerate_n_adapted_subsets",
    "freudenthal_multiplicities",
    "invariant_quotient_weights",
    "is_adapted_singleton",
    "is_adapted_subset",
    "is_n_adapted_singleton",
    "is_n_adapted_subset",
    "oracle_report",
    "oracle_tangent_weights",
    "positive_root_count",
    "positive_roots",
    "spherical_root_catalog",
    "tangent_space",
    "weyl_dimension",
]
