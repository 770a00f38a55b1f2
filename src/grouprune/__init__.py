"""grouprune: structural pruning with automatic parameter-group discovery.

Pipeline: a network IR of decomposed components (ir), a dependency graph
over their input/output halves (dependency), maximal pruning groups with
index transforms (grouping), group-level importance and sparse training
(importance, sparse), and physical removal with MACs accounting (pruning).
"""

from .dependency import DependencyGraph, build_depgraph, export_depgraph
from .engine import backward, count_macs, forward, softmax_cross_entropy
from .errors import (ConfigError, GroupingError, GroupruneError,
                     ModelParseError, PruneError, ShapeError,
                     TrainingDiverged, ValidationError)
from .grouping import (Group, GroupingMatrix, IndexTransform,
                       derive_grouping_matrix, export_grouping, extract_groups)
from .importance import group_l2_importance, relative_score, select_prune_indices
from .ir import NetworkIR, load_model, save_model
from .pruning import PrunePlan, end_to_end_prune, prune, speedup
from .sparse import SparseConfig, compute_gamma, train_sparse

__version__ = "0.1.0"

__all__ = [
    "DependencyGraph", "build_depgraph", "export_depgraph",
    "backward", "count_macs", "forward", "softmax_cross_entropy",
    "ConfigError", "GroupingError", "GroupruneError", "ModelParseError",
    "PruneError", "ShapeError", "TrainingDiverged", "ValidationError",
    "Group", "GroupingMatrix", "IndexTransform", "derive_grouping_matrix",
    "export_grouping", "extract_groups",
    "group_l2_importance", "relative_score", "select_prune_indices",
    "NetworkIR", "load_model", "save_model",
    "PrunePlan", "end_to_end_prune", "prune", "speedup",
    "SparseConfig", "compute_gamma", "train_sparse",
]
