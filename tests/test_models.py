import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from hinwalk import (
    BudgetExceededError,
    LogisticModel,
    ParseError,
    ScoreMatrix,
    UnknownEntityError,
    auc,
    build_features,
    load_model,
    parse_metapath,
    predict,
    save_model,
    train_logistic,
)
from hinwalk import models, walks
from hinwalk.models import gradient, log_likelihood
from corpus import auc_pairwise

P_FOUNDERS = "Person -found-> Organization -found~-> Person"


def random_instance(seed, n_max=20, d_max=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    X = rng.uniform(0, 1, size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    model = LogisticModel(
        weights=rng.normal(size=d),
        bias=float(rng.normal()),
        l2_strength=float(rng.uniform(0, 0.5)),
    )
    return model, X, y


class TestBuildFeatures:
    def test_g1(self, g1):
        graph, _ = g1
        matrix = build_features(graph, [("p1", "p2")], [parse_metapath(P_FOUNDERS)])
        assert matrix.values.tolist() == [[0.5]]

    def test_g2(self, g2, p_star):
        graph, _ = g2
        matrix = build_features(graph, [("v1", "v2"), ("v1", "v3")], [p_star])
        assert matrix.values.tolist() == [[0.25], [0.25]]

    def test_empty_path_list(self, g1):
        graph, _ = g1
        matrix = build_features(graph, [("p1", "p2")], [])
        assert matrix.values.shape == (1, 0)

    def test_no_pairs(self, g1):
        graph, _ = g1
        matrix = build_features(graph, [], [parse_metapath(P_FOUNDERS)])
        assert matrix.pairs == () and matrix.values.shape == (0, 1)

    def test_deadline_already_past(self, g1):
        graph, _ = g1
        with pytest.raises(BudgetExceededError, match="feature construction deadline exceeded"):
            build_features(graph, [("p1", "p2")], [parse_metapath(P_FOUNDERS)], deadline=time.monotonic() - 1)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1,)])
    def test_values_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"does not match 1 pairs x 1 meta-paths"):
            ScoreMatrix((("p1", "p2"),), (parse_metapath(P_FOUNDERS),), np.zeros(shape))

    def test_source_without_start_type_rejected(self, g1):
        graph, _ = g1
        with pytest.raises(ValueError, match="start type"):
            build_features(graph, [("g", "p1")], [parse_metapath(P_FOUNDERS)])

    def test_pairs_are_read_once(self, g1):
        graph, _ = g1
        pairs = [("p1", "p2")]
        paths = [parse_metapath(P_FOUNDERS)]
        from_list = build_features(graph, pairs, paths)
        from_generator = build_features(graph, (pair for pair in pairs), paths)
        assert from_generator.values.tolist() == from_list.values.tolist() == [[0.5]]
        assert from_generator.pairs == from_list.pairs

    def test_unknown_entity_names_pair(self, g1):
        graph, _ = g1
        with pytest.raises(UnknownEntityError, match="p9"):
            build_features(graph, [("p1", "p9")], [parse_metapath(P_FOUNDERS)])

    def test_nnz_budget(self, g2, p_star, monkeypatch):
        # v1's first step already reaches two papers
        graph, _ = g2
        monkeypatch.setattr(walks, "NNZ_BUDGET", 1)
        with pytest.raises(BudgetExceededError, match="nnz"):
            build_features(graph, [("v1", "v2")], [p_star])


class TestTrainLogistic:
    def test_separable_data(self):
        X = np.array([[0.9], [0.8], [0.2], [0.1]])
        y = [1, 1, 0, 0]
        model = train_logistic(X, y, l2_strength=0.01)
        assert model.weights[0] > 0
        preds = predict(model, X)
        assert all((p >= 0.5) == bool(label) for p, label in zip(preds, y))

    def test_constant_zero_feature_weight_shrinks(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(0, 1, 40), np.zeros(40)])
        y = (X[:, 0] > 0.5).astype(int)
        model = train_logistic(X, y, l2_strength=0.01)
        assert abs(model.weights[1]) < 1e-6

    def test_symmetric_data_bias(self):
        # mirror-symmetric points: p(0.5) must be exactly 1/2, so b = -w/2
        X = np.array([[0.1], [0.3], [0.9], [0.7]])
        y = np.array([0, 0, 1, 1])
        l2 = 0.01
        model = train_logistic(X, y, l2_strength=l2)
        assert 0.5 * model.weights[0] + model.bias == pytest.approx(0.0, abs=1e-6)

        def negative_objective(params):
            w, b = params
            z = X[:, 0] * w + b
            ll = -(np.logaddexp(0, -z) @ y) - (np.logaddexp(0, z) @ (1 - y))
            return -(ll - l2 * w * w)

        reference = minimize(negative_objective, [0.0, 0.0], method="Nelder-Mead", tol=1e-12)
        assert model.weights[0] == pytest.approx(reference.x[0], abs=1e-4)
        assert model.bias == pytest.approx(reference.x[1], abs=1e-4)

    def test_reaches_gradient_tolerance_on_ill_conditioned_features(self):
        # feature scales 1, 1e-2 and 1e-3, like walk probabilities of longer
        # paths, make the problem ill-conditioned
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (60, 3)) * np.array([1.0, 0.01, 0.001])
        z = X @ np.array([1.0, 100.0, 1000.0]) - 1.5
        y = (rng.uniform(0, 1, 60) < 1 / (1 + np.exp(-z))).astype(int)
        model = train_logistic(X, y, l2_strength=0.01)
        assert np.max(np.abs(gradient(model, X, y))) < 1e-8

    @pytest.mark.parametrize("fit_bias", [True, False])
    def test_separable_without_l2_stops_at_tolerance(self, fit_bias):
        # the optimum is at infinity; training stops once |grad| < 1e-8
        X = np.array([[0.9], [0.8], [-0.2], [-0.1]])
        y = np.array([1, 1, 0, 0])
        model = train_logistic(X, y, 0.0, fit_bias=fit_bias)
        assert np.max(np.abs(gradient(model, X, y))) < 1e-8
        assert np.array_equal(predict(model, X) > 0.5, y == 1)

    def test_zero_column_without_l2(self):
        # the Hessian is singular in the zero column's direction
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.uniform(0, 1, 40), np.zeros(40)])
        y = (rng.uniform(0, 1, 40) < X[:, 0]).astype(int)
        model = train_logistic(X, y, l2_strength=0.0)
        assert model.weights[1] == 0.0
        assert np.max(np.abs(gradient(model, X, y))) < 1e-8

    def test_step_halves_until_the_objective_rises(self, monkeypatch):
        # features scaled by 100 make the full Newton step overshoot: the
        # objective falls at some candidate, which is rejected and halved
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 1, (20, 2)) * 100
        y = (rng.uniform(0, 1, 20) < 0.5).astype(int)
        values = []
        objective = models._objective

        def recorded(*args):
            value = objective(*args)
            values.append(value[0])
            return value

        monkeypatch.setattr(models, "_objective", recorded)
        model = train_logistic(X, y, l2_strength=0.01)
        # accepted steps never lower the objective, so a lower one was rejected
        assert any(v < max(values[:k]) for k, v in enumerate(values) if k)
        assert np.max(np.abs(gradient(model, X, y))) < models.GRAD_TOL

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train_logistic(np.ones((3, 1)), [1, 1, 1])

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_mismatch_rejected(self, n_labels):
        with pytest.raises(ValueError, match=rf"features \(3, 1\) do not match {n_labels} labels"):
            train_logistic(np.ones((3, 1)), [1, 0, 1, 0][:n_labels])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            train_logistic(np.array([[np.inf], [0.0]]), [1, 0])

    @pytest.mark.parametrize("l2", [math.nan, math.inf])
    def test_non_finite_l2_rejected(self, l2):
        with pytest.raises(ValueError, match="l2_strength must be finite"):
            train_logistic(np.array([[1.0], [0.0]]), [1, 0], l2_strength=l2)

    def test_zero_width_features(self):
        model = train_logistic(np.zeros((4, 0)), [1, 0, 1, 0])
        assert predict(model, np.zeros((2, 0))).tolist() == [0.5, 0.5]

    def test_objective_nondecreasing(self, monkeypatch):
        # re-run training in small MAX_ITER slices and watch the objective climb
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(30, 2))
        y = (X @ np.array([2.0, -1.0]) + 0.2 > 0.5).astype(int)
        values = []
        for iters in (1, 2, 5, 10, 50, 200):
            monkeypatch.setattr(models, "MAX_ITER", iters)
            model = train_logistic(X, y, 0.05)
            values.append(log_likelihood(model, X, y))
        assert values[0] < values[-1]  # one step stops short: MAX_ITER is read at each call
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        model, X, y = random_instance(seed)
        analytic = gradient(model, X, y)
        h = 1e-5
        numeric = np.zeros_like(analytic)
        for k in range(len(model.weights)):
            bump = np.zeros_like(model.weights)
            bump[k] = h
            up = LogisticModel(model.weights + bump, model.bias, model.l2_strength)
            down = LogisticModel(model.weights - bump, model.bias, model.l2_strength)
            numeric[k] = (log_likelihood(up, X, y) - log_likelihood(down, X, y)) / (2 * h)
        up = LogisticModel(model.weights, model.bias + h, model.l2_strength)
        down = LogisticModel(model.weights, model.bias - h, model.l2_strength)
        numeric[-1] = (log_likelihood(up, X, y) - log_likelihood(down, X, y)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-6


class TestPredict:
    def test_zero_model(self):
        model = LogisticModel(np.zeros(2), 0.0, 0.0)
        assert predict(model, np.array([[5.0, -3.0]])).tolist() == [0.5]

    def test_zero_input(self):
        model = LogisticModel(np.array([1.0]), 0.0, 0.0)
        assert predict(model, np.array([[0.0]])).tolist() == [0.5]

    def test_log_three(self):
        model = LogisticModel(np.array([1.0]), 0.0, 0.0)
        assert predict(model, np.array([[math.log(3)]]))[0] == pytest.approx(0.75, abs=1e-12)

    def test_extreme_inputs_stable(self):
        model = LogisticModel(np.array([1.0]), 0.0, 0.0)
        out = predict(model, np.array([[1e4], [-1e4]]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_monotone_in_positive_weight(self):
        rng = np.random.default_rng(5)
        model = LogisticModel(np.array([2.0, -0.5]), 0.1, 0.0)
        base = rng.uniform(0, 1, size=(20, 2))
        bumped = base.copy()
        bumped[:, 0] += 0.1
        assert np.all(predict(model, bumped) >= predict(model, base))

    def test_width_mismatch(self):
        model = LogisticModel(np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 3)))


class TestAuc:
    def test_perfect(self):
        assert auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_three_of_four(self):
        assert auc([0.9, 0.6, 0.4, 0.1], [1, 0, 1, 0]) == 0.75

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("scores, labels", [([0.1, 0.2, 0.3], [0, 1]), ([0.1, 0.2], [0, 1, 1])])
    def test_length_mismatch_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="one label per score"):
            auc(scores, labels)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auc([math.nan, math.nan, 0.5, 0.2], [1, 0, 1, 0])

    def test_labels_other_than_zero_and_one_rejected(self):
        # ranks over all rows would read 1.0; the one 0/1 pair reads 0.0
        with pytest.raises(ValueError, match="0 or 1"):
            auc([0.3, 0.2, 0.1], [0, 1, 2])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_pairwise_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        scores = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_pairwise(scores, labels)

    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transforms(self, seed, scale, shift):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        scores = [rng.uniform(0, 1) for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        assert auc([scale * s + shift for s in scores], labels) == pytest.approx(base, abs=1e-12)
        assert auc([math.exp(s) for s in scores], labels) == pytest.approx(base, abs=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, p_star):
        model = LogisticModel(
            weights=np.array([0.1234567890123456789, -7.77e-12]),
            bias=1.0 / 3.0,
            l2_strength=0.01,
        )
        paths = [p_star, parse_metapath("Venue -publishIn~-> Paper -publishIn-> Venue")]
        target = tmp_path / "model.tsv"
        save_model(target, model, paths)
        loaded, loaded_paths = load_model(target)
        assert loaded.weights.tolist() == model.weights.tolist()
        assert loaded.bias == model.bias
        assert loaded.l2_strength == model.l2_strength
        assert loaded_paths == tuple(paths)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_weight_rendering_round_trips(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("model")
        model = LogisticModel(np.array(values), values[0], 0.0)
        paths = [parse_metapath("A")] * len(values)
        target = tmp / "m.tsv"
        save_model(target, model, paths)
        loaded, _ = load_model(target)
        assert loaded.weights.tolist() == list(values)
        assert loaded.bias == values[0]

    def test_path_count_mismatch(self, tmp_path):
        model = LogisticModel(np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.tsv", model, [])

    @pytest.mark.parametrize(
        "lines, reason",
        [
            (["bias\t0", "fit_bias\t0.5"], "fit_bias must be 0 or 1, got '0.5'"),
            (["fit_bias\t1", "bias\t0", "bias\t0.5"], "repeated model field 'bias'"),
            (["fit_bias\t1", "bias\t0", "foo\t3"], "unknown model field 'foo'"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, lines, reason):
        bad = tmp_path / "m.tsv"
        bad.write_text("\n".join(["hinwalk-model\t1", "l2\t0.01", *lines, "path\t1\tA"]) + "\n")
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert (err.value.lineno, err.value.reason) == (len(lines) + 2, reason)

    def test_missing_field_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("hinwalk-model\t1\nl2\t0.01\nfit_bias\t1\npath\t1\tA\n")
        with pytest.raises(ValueError, match="missing model field 'bias'"):
            load_model(bad)

    def test_reject_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("something else\n")
        with pytest.raises(ValueError):
            load_model(bad)
