"""Desk-scale combinatorics and convolution algebras of finite rank-k graphs."""

from .skeleton import (
    Degree,
    Edge,
    ExactModeError,
    FactorizationRule,
    Skeleton,
    SkeletonFormatError,
    ValidationReport,
    Vertex,
    degree_box,
    export_dot,
    is_acyclic,
    load_skeleton,
    validate,
    validate_associativity,
    validate_squares,
)
from .paths import (
    GridModel,
    MinimalExtensionPair,
    Path,
    all_paths,
    compose,
    edge_path,
    enumerate_paths,
    factorize,
    grid_skeleton,
    minimal_extension_pairs,
    path_from_word,
    paths_from,
    paths_with_range,
    source,
    vertex_path,
)
from .boundary import (
    ExhaustiveSet,
    ExhaustivenessResult,
    FinitePathSpace,
    VertexClassification,
    boundary_paths,
    classify_vertices,
    enumerate_path_space,
    is_exhaustive,
    minimal_exhaustive_sets,
    prepend,
)
from .algebra import (
    AlgebraElement,
    GenerationReport,
    RegularRepresentation,
    RelationReport,
    algebra_dimension,
    convolve,
    edge_operator,
    generation_check,
    involution,
    vertex_operator,
    verify_algebra_identities,
    verify_cuntz_krieger,
    verify_gauge_action,
    verify_quotient,
    verify_toeplitz_identities,
)
# After .algebra, which imports .groupoid before numpy.
from .groupoid import (
    CylinderSet,
    FiniteGroupoid,
    GroupoidElement,
    build_boundary_groupoid,
    build_path_groupoid,
    cylinder,
    orbits,
    verify_etale,
    verify_groupoid_axioms,
)
# After .algebra, which imports numpy before it imports .bimodule.
from .bimodule import (
    BimoduleOperator,
    EdgeFunction,
    VertexFunction,
    inner_product,
    left_action,
    left_mult_operator,
    rank_one_decomposition,
    rank_one_operator,
    right_action,
)

__version__ = "0.1.0"
