"""Exact-arithmetic kernel for proto-exact categories.

Weighted non-Archimedean modules over exactly valued fields, two fully
enumerable finite category instances with axiom audits, and a finite-fuel
factorization engine for precovers and preenvelopes.
"""

__version__ = "0.1.0"

from .scalars import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    ValuedField,
    format_magnitude,
    mag_compare,
    parse_magnitude,
)
from .spaces import (
    Biproduct,
    BoundedMap,
    Vector,
    WeightedSpace,
    basis_vector,
    biproduct,
    bounded_map,
    compose,
    identity_between,
    identity_map,
    is_nonexpanding,
    norm,
    operator_norm,
    rank_one,
    rescale,
    separation,
    vector,
    zero_map,
    zero_vector,
)
from .ortho import OrthoBasis, image, orthogonalize, quotient_norm
from .constructions import (
    ChainColimit,
    MorphismClassification,
    chain_colimit,
    classify_morphism,
    cokernel,
    coproduct_product_comparison,
    free_cover,
    image_presentation,
    kernel,
    pullback,
    pushout,
    retraction,
    section,
)
from .category import (
    AuditEntry,
    AuditReport,
    CategoryInstance,
    RlpResult,
    ShortExactSequence,
    Strictness,
    audit_axioms,
    audit_obscure,
    classify_strictness,
    has_rlp,
    is_injective_object,
    validate_ses,
)
from .pointed_sets import FinPointedSet, PointedMap, PointedSet, counterexample_suite
from .finvec import FinWeightedVec, WeightedModuleCategory
from .factorization import (
    FactorizationCertificate,
    GeneratingSet,
    factor_map,
    precover,
    special_preenvelope,
)
