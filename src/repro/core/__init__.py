"""GEE core: the paper's contribution (four implementations + variants)."""

from .api import GraphEncoderEmbedding
from .gee_ligra import UpdateEmbedding, gee_ligra, gee_ligra_with_plan
from .gee_parallel import gee_parallel, gee_parallel_with_plan
from .gee_python import gee_python
from .gee_sparse import gee_sparse, gee_sparse_with_plan
from .gee_vectorized import (
    accumulate_edges_vectorized,
    gee_vectorized,
    gee_vectorized_chunked,
    gee_vectorized_with_plan,
)
from .laplacian import gee_laplacian, laplacian_reweight, weighted_total_degrees
from .plan import ChunkedPlan, EmbedPlan, edge_fingerprint
from .projection import (
    build_projection,
    build_projection_parallel,
    projection_from_scales,
    projection_scales,
)
from .refinement import RefinementResult, gee_unsupervised
from .result import EmbeddingResult
from .validation import (
    UNKNOWN_LABEL,
    class_counts,
    infer_n_classes,
    labels_from_paper_convention,
    labels_to_paper_convention,
    validate_edges,
    validate_labels,
)

__all__ = [
    "GraphEncoderEmbedding",
    "EmbeddingResult",
    "EmbedPlan",
    "ChunkedPlan",
    "edge_fingerprint",
    "gee_python",
    "gee_vectorized",
    "gee_vectorized_with_plan",
    "gee_vectorized_chunked",
    "accumulate_edges_vectorized",
    "gee_ligra",
    "gee_ligra_with_plan",
    "UpdateEmbedding",
    "gee_parallel",
    "gee_parallel_with_plan",
    "gee_sparse",
    "gee_sparse_with_plan",
    "gee_laplacian",
    "laplacian_reweight",
    "weighted_total_degrees",
    "gee_unsupervised",
    "RefinementResult",
    "build_projection",
    "build_projection_parallel",
    "projection_scales",
    "projection_from_scales",
    "UNKNOWN_LABEL",
    "validate_edges",
    "validate_labels",
    "infer_n_classes",
    "class_counts",
    "labels_from_paper_convention",
    "labels_to_paper_convention",
]
