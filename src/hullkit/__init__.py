"""hullkit: hull-preserving transforms, double circulant constructions, and
exact searches for self-dual and LCD codes over prime fields."""

from .errors import (
    CapacityError,
    CodeParseError,
    DimensionError,
    HullkitError,
    HypothesisError,
    IntegrityError,
    PostconditionError,
    PredicateError,
    UnsupportedFieldError,
)
from .field import (
    GF2,
    FieldMatrix,
    FieldVector,
    PrimeField,
    inner_product,
    matmul,
    rank,
    rref,
    transpose,
)
from .code import (
    LinearCode,
    StandardForm,
    apply_column_permutation,
    dual,
    format_code,
    gram_matrix,
    hull_dim,
    is_doubly_even,
    is_even,
    is_extremal_doubly_even_self_dual,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
    parse_code,
    puncture,
    same_code,
    shorten,
    standard_form,
)
from .transform import (
    TransformPair,
    m_matrix,
    sign_variants,
    transform_code,
    transform_rows,
)
from .circulant import (
    CirculantSpec,
    bordered_double_circulant,
    circulant_matrix,
    pure_double_circulant,
)
from .minweight import (
    WeightDistribution,
    codeword_masks_of_weight,
    codewords_of_weight,
    min_weight,
    weight_distribution,
)
from .invariant import (
    EquivalenceResult,
    NtSequence,
    inequivalent_by_invariant,
    is_equivalent,
    nt_sequence,
)
from .search import (
    SearchRecord,
    exhaustive_isotropic_pairs,
    exhaustive_x,
    fingerprint_code,
    lcd_improve,
    make_yi,
    read_records,
    replay,
    sampled_isotropic_pairs,
    sampled_x,
    sd_search,
    write_records,
)
from . import artifacts

__version__ = "0.1.0"
