import pytest

import hinwalk
from hinwalk.graph import HinGraph, StepMatrix

PUBLIC = {
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
    "CommutingMatrix",
    "commuting_matrix",
    "enumerate_metapaths",
    "enumerate_path_instances",
    "instance_probabilities",
    "instance_probability",
    "__version__",
}


def test_all_is_the_public_set():
    assert len(hinwalk.__all__) == len(set(hinwalk.__all__))
    assert set(hinwalk.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in hinwalk.__all__:
        assert getattr(hinwalk, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [
        ("hinwalk", "fill_types"),
        ("hinwalk", "priority_score"),
        ("hinwalk", "combine_scores"),
        ("hinwalk", "TrainConfig"),
        ("hinwalk.treesearch", "fill_types"),
        ("hinwalk.treesearch", "priority_score"),
        ("hinwalk.models", "combine_scores"),
        ("hinwalk.models", "TrainConfig"),
        ("hinwalk", "walk_distribution"),
        ("hinwalk", "walk_probability"),
        ("hinwalk", "WalkDistribution"),
        ("hinwalk.walks", "walk_distribution"),
        ("hinwalk.walks", "walk_probability"),
        ("hinwalk.walks", "WalkDistribution"),
    ],
)
def test_removed_name_is_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("owner, name", [(HinGraph, "has_entity"), (StepMatrix, "walk_t")])
def test_removed_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)
