"""Certificates of generic identifiability for cubic Chow decompositions.

Exact linear algebra over a prime field drives a randomized, replayable
rank test: sample points on the cubic Chow cone, stack their tangent
vectors, pick a normal vector through the echelon data, and rank-test
the contracted curvature form.  Full ranks certify that the tangential
contact locus is trivial, which in turn certifies generic uniqueness of
rank-r decompositions into products of linear forms.
"""

from .certificate import (
    Certificate,
    CertificateError,
    format_certificate,
    load_certificate,
    parse_certificate,
    save_certificate,
)
from .field import FieldElement, PrimeModulus, SeededRng, derive_seed, is_prime
from .geometry import (
    ChowPoint,
    HessianMatrix,
    ambient_dimension,
    cone_dimension,
    expected_hessian_rank,
    expected_tangent_rank,
    hessian_at,
    sample_point,
    terracini_matrix,
)
from .matrix import FfMatrix, RrefResult, null_vector
from .pipeline import (
    GenericityError,
    RankTableRow,
    SweepRow,
    VerificationReport,
    certify,
    default_r,
    generic_rank,
    rank_table,
    sweep,
    verify,
    verify_certificate,
    verify_text,
)
from .poly import (
    LinearForm,
    MonomialBasis,
    Poly,
    contract,
    expand_product,
    monomial_basis,
    multiply_by_variable,
)
from .sff import (
    GhPair,
    GhReport,
    SffComponentCase,
    classify_component,
    special_normal_form,
    gh_build,
    gh_check,
    minimality_check,
    sff_component,
)

__version__ = "0.1.0"
