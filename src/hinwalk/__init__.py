"""Meta-path generation and random-walk inference over typed multigraphs."""

from .errors import (
    BudgetExceededError,
    HierarchyError,
    ParseError,
    UnknownEntityError,
    UnknownRelationError,
    UnknownTypeError,
)
from .graph import ROOT_TYPE, DirectedRelation, HinGraph, TypeHierarchy, build_graph
from .metapath import MetaPath, format_metapath, parse_metapath, relations_only
from .models import (
    LogisticModel,
    ScoreMatrix,
    auc,
    build_features,
    load_model,
    predict,
    save_model,
    train_logistic,
)
from .simsearch import SimilarityIndex, build_index, commuting_matrix, top_k
from .treesearch import (
    ExamplePairSet,
    GeneratedPath,
    PathGenerationResult,
    SearchConfig,
    SearchTree,
    generate_paths,
)
from .walks import (
    enumerate_metapaths,
    enumerate_path_instances,
    instance_probabilities,
    instance_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "HierarchyError",
    "ParseError",
    "UnknownEntityError",
    "UnknownRelationError",
    "UnknownTypeError",
    "ROOT_TYPE",
    "DirectedRelation",
    "HinGraph",
    "TypeHierarchy",
    "build_graph",
    "MetaPath",
    "format_metapath",
    "parse_metapath",
    "relations_only",
    "LogisticModel",
    "ScoreMatrix",
    "auc",
    "build_features",
    "load_model",
    "predict",
    "save_model",
    "train_logistic",
    "SimilarityIndex",
    "build_index",
    "top_k",
    "ExamplePairSet",
    "GeneratedPath",
    "PathGenerationResult",
    "SearchConfig",
    "SearchTree",
    "generate_paths",
    "commuting_matrix",
    "enumerate_metapaths",
    "enumerate_path_instances",
    "instance_probabilities",
    "instance_probability",
    "__version__",
]
