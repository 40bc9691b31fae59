"""Exact-rational zig-zag engine for perverse-sheaf data at isolated
double points: monodromy formulas, duality and extension-class
certification, finite-node assembly with vu = N gluing checks, and a
combinatorial skeleton export.

All values are immutable and every operation is pure; nothing here uses
floating point.
"""

from .linalg import (
    AmbientMismatch,
    DimensionMismatch,
    PostconditionError,
    QMatrix,
    ShapeMismatch,
    Subspace,
    block_assemble,
    block_diag,
    format_rational,
    image_basis,
    kernel_basis,
    parse_rational,
    rank,
    serialize_matrix,
    subspace_equal,
)
from .monodromy import (
    NilpotentOperator,
    NotNilpotent,
    NotUnipotent,
    Pairing,
    WeightFiltration,
    nilpotent_log,
    pl_operator,
    pl_transform,
    unipotent_exp,
    weight_filtration,
)
from .zigzag import (
    CompressedShape,
    MultiZigZag,
    SizeBound,
    ZeroRank,
    ZigZag,
    compressed_shape,
    direct_sum,
    dualize,
    is_isomorphic,
    iso_witness,
    std_corrected,
    std_ic,
    std_skyscraper,
    validate,
)
from .extension import (
    ExtClass,
    ExtensionPresentation,
    InvalidTotal,
    RegimeMismatch,
    classify_selfdual_rank_one,
    ext_isomorphic,
    ext_isomorphism_witness,
    extension_class,
    is_self_dual,
    make_extension,
)
from .assembly import (
    DuplicateNode,
    FiniteNodeDatum,
    GluingBlock,
    GluingQuadruple,
    NodeDatum,
    NonRankOneQuotient,
    Report,
    assemble,
    assemble_gluing,
    verify_gluing,
    verify_shadow_compat,
)
from .skeleton import Skeleton, skeleton_of, to_dot
from .lang import Diagnostic, Document, parse, serialize

__all__ = [
    "AmbientMismatch", "DimensionMismatch", "PostconditionError", "QMatrix", "ShapeMismatch",
    "Subspace", "block_assemble", "block_diag",
    "format_rational", "image_basis", "kernel_basis",
    "parse_rational", "rank", "serialize_matrix", "subspace_equal",
    "NilpotentOperator", "NotNilpotent", "NotUnipotent", "Pairing",
    "WeightFiltration", "nilpotent_log", "pl_operator", "pl_transform",
    "unipotent_exp", "weight_filtration",
    "CompressedShape", "MultiZigZag", "SizeBound", "ZeroRank", "ZigZag",
    "compressed_shape", "direct_sum", "dualize", "is_isomorphic",
    "iso_witness", "std_corrected", "std_ic", "std_skyscraper", "validate",
    "ExtClass", "ExtensionPresentation", "InvalidTotal", "RegimeMismatch",
    "classify_selfdual_rank_one", "ext_isomorphic", "ext_isomorphism_witness",
    "extension_class", "is_self_dual", "make_extension",
    "DuplicateNode", "FiniteNodeDatum", "GluingBlock", "GluingQuadruple",
    "NodeDatum", "NonRankOneQuotient", "Report", "assemble",
    "assemble_gluing", "verify_gluing", "verify_shadow_compat",
    "Skeleton", "skeleton_of", "to_dot",
    "Diagnostic", "Document", "parse", "serialize",
]
