import pytest

import hinwalk

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
    "WalkDistribution",
    "commuting_matrix",
    "enumerate_metapaths",
    "enumerate_path_instances",
    "instance_probabilities",
    "instance_probability",
    "walk_distribution",
    "walk_probability",
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
    ],
)
def test_removed_name_is_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
