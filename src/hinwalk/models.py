"""Walk-score features, joint scoring, logistic-regression link prediction.

Training is deterministic full-batch gradient ascent with backtracking line
search on the L2-regularized log-likelihood, so results are exactly
reproducible for fixed inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, UnknownEntityError
from .graph import HinGraph
from .metapath import MetaPath, format_metapath, parse_metapath
from .walks import walk_mass

MODEL_FORMAT = "hinwalk-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ScoreMatrix:
    """Walk probabilities for entity pairs (rows) along meta-paths (columns)."""

    pairs: tuple[tuple[str, str], ...]
    metapaths: tuple[MetaPath, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.pairs), len(self.metapaths)):
            raise ValueError(
                f"score matrix shape {self.values.shape} does not match "
                f"{len(self.pairs)} pairs x {len(self.metapaths)} meta-paths"
            )

    @cached_property
    def _pair_pos(self) -> dict[tuple[str, str], int]:
        # reversed, so that a repeated pair maps to its first row
        return {pair: i for i, pair in reversed(list(enumerate(self.pairs)))}

    def score(self, pair: tuple[str, str], metapath_index: int) -> float:
        i = self._pair_pos.get(pair)
        if i is None:
            raise ValueError(f"pair {pair} is not a row of the score matrix")
        return float(self.values[i, metapath_index])


def combine_scores(scores: Sequence[float], theta: Sequence[float]) -> float:
    """Weighted sum of per-meta-path walk scores (no bias term)."""
    scores = np.asarray(scores, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if scores.shape != theta.shape:
        raise ValueError(f"dimension mismatch: {scores.shape} scores vs {theta.shape} weights")
    return float(scores @ theta)


def build_features(
    graph: HinGraph,
    pairs: Sequence[tuple[str, str]],
    metapaths: Sequence[MetaPath],
    deadline: float | None = None,
) -> ScoreMatrix:
    """Walk probability of every pair along every meta-path.

    Each meta-path is one batched walk from all distinct pair sources.
    """
    for s, t in pairs:
        if not graph.has_entity(s) or not graph.has_entity(t):
            raise UnknownEntityError(f"pair ({s!r}, {t!r}) references an unknown entity")

    pairs = [(s, t) for s, t in pairs]
    values = np.zeros((len(pairs), len(metapaths)))
    if not pairs:
        return ScoreMatrix((), tuple(metapaths), values)
    # one walk per distinct source; rows[i] is the walk row of pair i's source
    sources, rows = np.unique([graph.entity_index(s) for s, _ in pairs], return_inverse=True)
    cols = np.array([graph.entity_index(t) for _, t in pairs])
    for j, path in enumerate(metapaths):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("feature construction deadline exceeded")
        values[:, j] = walk_mass(graph, sources, path)[rows, cols]

    return ScoreMatrix(tuple(pairs), tuple(metapaths), values)


@dataclass(frozen=True)
class TrainConfig:
    max_iter: int = 10_000
    grad_tol: float = 1e-8
    fit_bias: bool = True
    armijo_c: float = 1e-4


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    l2_strength: float
    fit_bias: bool = True

    @property
    def width(self) -> int:
        return len(self.weights)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_likelihood(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> float:
    z = X @ w + b
    # log sigma(z) = -log(1 + e^-z), log(1 - sigma(z)) = -log(1 + e^z)
    ll = -(np.logaddexp(0.0, -z) @ y) - (np.logaddexp(0.0, z) @ (1.0 - y))
    return float(ll - l2 * (w @ w))


def log_likelihood(model: LogisticModel, features: np.ndarray, labels: Sequence[int]) -> float:
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    return _log_likelihood(X, y, model.weights, model.bias, model.l2_strength)


def gradient(model: LogisticModel, features: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Gradient of the regularized log-likelihood; bias component last if fit."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    p = _stable_sigmoid(X @ model.weights + model.bias)
    gw = X.T @ (y - p) - 2.0 * model.l2_strength * model.weights
    if model.fit_bias:
        return np.append(gw, np.sum(y - p))
    return gw


def train_logistic(
    features: ScoreMatrix | np.ndarray,
    labels: Sequence[int],
    l2_strength: float = 0.01,
    config: TrainConfig = TrainConfig(),
) -> LogisticModel:
    """Maximize the L2-regularized log-likelihood by deterministic ascent.

    Backtracking line search halves the step until the Armijo condition
    holds; iteration stops when the gradient max-norm falls below
    ``config.grad_tol`` or ``config.max_iter`` iterations elapse.
    """
    X = features.values if isinstance(features, ScoreMatrix) else np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError(f"features {X.shape} do not match {len(y)} labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if not (np.all((y == 0) | (y == 1)) and 0 < y.sum() < len(y)):
        raise ValueError("training labels must include both classes (0 and 1)")
    if l2_strength < 0:
        raise ValueError(f"l2_strength must be >= 0, got {l2_strength}")

    w = np.zeros(X.shape[1])
    b = 0.0
    obj = _log_likelihood(X, y, w, b, l2_strength)
    for _ in range(config.max_iter):
        p = _stable_sigmoid(X @ w + b)
        gw = X.T @ (y - p) - 2.0 * l2_strength * w
        gb = float(np.sum(y - p)) if config.fit_bias else 0.0
        gnorm_sq = float(gw @ gw) + gb * gb
        if max(np.max(np.abs(gw), initial=0.0), abs(gb)) < config.grad_tol:
            break
        step = 1.0
        while step > 1e-18:
            cand_w = w + step * gw
            cand_b = b + step * gb
            cand_obj = _log_likelihood(X, y, cand_w, cand_b, l2_strength)
            if cand_obj >= obj + config.armijo_c * step * gnorm_sq:
                w, b, obj = cand_w, cand_b, cand_obj
                break
            step *= 0.5
        else:
            break  # no ascent step representable; treat as converged

    return LogisticModel(weights=w, bias=b, l2_strength=l2_strength, fit_bias=config.fit_bias)


def predict(model: LogisticModel, features: ScoreMatrix | np.ndarray) -> np.ndarray:
    """Probability that the relation holds for each feature row."""
    X = features.values if isinstance(features, ScoreMatrix) else np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.width:
        raise ValueError(f"feature width {X.shape} does not match model width {model.width}")
    return _stable_sigmoid(X @ model.weights + model.bias)


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative; ties count 0.5.

    Rank-sum (Mann-Whitney) formulation with average ranks for ties, exactly
    equal to exhaustive pair counting.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")

    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average of 1-based ranks
        i = j + 1
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_model(path: str | Path, model: LogisticModel, metapaths: Sequence[MetaPath]) -> None:
    """Write the model as plain text, round-trippable bit-exactly."""
    if len(metapaths) != model.width:
        raise ValueError(f"{len(metapaths)} meta-paths for model width {model.width}")
    lines = [
        f"{MODEL_FORMAT}\t{MODEL_VERSION}",
        f"l2\t{_fmt(model.l2_strength)}",
        f"fit_bias\t{int(model.fit_bias)}",
        f"bias\t{_fmt(model.bias)}",
    ]
    for theta, mp in zip(model.weights, metapaths):
        lines.append(f"path\t{_fmt(theta)}\t{format_metapath(mp)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[LogisticModel, tuple[MetaPath, ...]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != [MODEL_FORMAT, str(MODEL_VERSION)]:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    fields: dict[str, str] = {}
    weights: list[float] = []
    paths: list[MetaPath] = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split("\t")
        if parts[0] == "path":
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed path line {line!r}")
            weights.append(float(parts[1]))
            paths.append(parse_metapath(parts[2]))
        elif len(parts) == 2:
            fields[parts[0]] = parts[1]
        else:
            raise ValueError(f"{path}: malformed line {line!r}")
    try:
        model = LogisticModel(
            weights=np.array(weights),
            bias=float(fields["bias"]),
            l2_strength=float(fields["l2"]),
            fit_bias=bool(int(fields["fit_bias"])),
        )
    except KeyError as missing:
        raise ValueError(f"{path}: missing model field {missing}") from None
    return model, tuple(paths)
