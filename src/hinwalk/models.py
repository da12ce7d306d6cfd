"""Walk-score features, joint scoring, logistic-regression link prediction.

Training is deterministic damped Newton ascent on the L2-regularized
log-likelihood, so results are exactly reproducible for fixed inputs. Without
regularization, separable labels end at separating weights whose gradient is
below the stopping tolerance instead of running on towards infinite weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, ParseError
from .graph import HinGraph
from .io import open_text
from .metapath import MetaPath, format_metapath, parse_metapath
from .walks import walk_mass

MODEL_FORMAT = "hinwalk-model"
MODEL_VERSION = 1
_MODEL_FIELDS = ("l2", "fit_bias", "bias")  # each given once, besides the path lines


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


def build_features(
    graph: HinGraph,
    pairs: Iterable[tuple[str, str]],
    metapaths: Sequence[MetaPath],
    deadline: float | None = None,
) -> ScoreMatrix:
    """Walk probability of every pair along every meta-path.

    Each meta-path is one batched walk from all distinct pair sources.
    ``pairs`` is read once; an unknown entity raises ``UnknownEntityError``.
    """
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


# Training stops once the gradient max-norm falls below GRAD_TOL or after
# MAX_ITER Newton steps; a step is accepted once it gains at least ARMIJO_C
# times the predicted ascent.
GRAD_TOL = 1e-8
MAX_ITER = 100
ARMIJO_C = 1e-4


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    l2_strength: float
    fit_bias: bool = True

    @property
    def width(self) -> int:
        return len(self.weights)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


def _objective(
    A: np.ndarray, y: np.ndarray, theta: np.ndarray, penalty: np.ndarray
) -> tuple[float, np.ndarray]:
    """Regularized log-likelihood of parameters ``theta`` and its gradient."""
    z = A @ theta
    # log sigma(z) = -log(1 + e^-z), log(1 - sigma(z)) = -log(1 + e^z)
    ll = -(np.logaddexp(0.0, -z) @ y) - (np.logaddexp(0.0, z) @ (1.0 - y))
    grad = A.T @ (y - _sigmoid(z)) - 2.0 * penalty * theta
    return float(ll - penalty @ (theta * theta)), grad


def _model_objective(
    model: LogisticModel, features: np.ndarray, labels: Sequence[int]
) -> tuple[float, np.ndarray]:
    X = np.asarray(features, dtype=float)
    A = np.column_stack([X, np.ones(len(X))])
    penalty = np.append(np.full(model.width, model.l2_strength), 0.0)  # bias unregularized
    theta = np.append(model.weights, model.bias)
    return _objective(A, np.asarray(labels, dtype=float), theta, penalty)


def log_likelihood(model: LogisticModel, features: np.ndarray, labels: Sequence[int]) -> float:
    return _model_objective(model, features, labels)[0]


def gradient(model: LogisticModel, features: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Gradient of the regularized log-likelihood; bias component last if fit."""
    return _model_objective(model, features, labels)[1][: model.width + model.fit_bias]


def train_logistic(
    features: ScoreMatrix | np.ndarray,
    labels: Sequence[int],
    l2_strength: float = 0.01,
    fit_bias: bool = True,
) -> LogisticModel:
    """Maximize the L2-regularized log-likelihood by damped Newton steps.

    The step solves the Hessian system by least squares, so a singular
    Hessian (``l2_strength=0`` with an all-zero feature) needs no special
    case; backtracking halves it until the Armijo condition holds. Training
    stops when the gradient max-norm falls below ``GRAD_TOL`` or after
    ``MAX_ITER`` steps, a module constant read at each call. With
    ``l2_strength=0`` and separable labels, it stops at the first weights with
    gradient below ``GRAD_TOL``; they separate the data. ``fit_bias=False``
    fixes the bias at 0.
    """
    X = features.values if isinstance(features, ScoreMatrix) else np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError(f"features {X.shape} do not match {len(y)} labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if not (np.all((y == 0) | (y == 1)) and 0 < y.sum() < len(y)):
        raise ValueError("training labels must include both classes (0 and 1)")
    if not 0 <= l2_strength < math.inf:
        raise ValueError(f"l2_strength must be finite and >= 0, got {l2_strength}")

    # one parameter vector: the weights, then the bias (unregularized) if fit
    A = np.column_stack([X, np.ones(len(X))]) if fit_bias else X
    penalty = np.full(A.shape[1], l2_strength)
    penalty[X.shape[1] :] = 0.0
    theta = np.zeros(A.shape[1])
    obj, grad = _objective(A, y, theta, penalty)
    for _ in range(MAX_ITER):
        if np.max(np.abs(grad), initial=0.0) < GRAD_TOL:
            break
        p = _sigmoid(A @ theta)
        hessian = -(A.T * (p * (1.0 - p))) @ A - 2.0 * np.diag(penalty)
        direction = -np.linalg.lstsq(hessian, grad, rcond=None)[0]
        step = 1.0
        while step > 1e-18:
            cand = theta + step * direction
            cand_obj, cand_grad = _objective(A, y, cand, penalty)
            if cand_obj >= obj + ARMIJO_C * step * (grad @ direction):
                theta, obj, grad = cand, cand_obj, cand_grad
                break
            step *= 0.5
        else:
            break  # no ascent step representable; treat as converged

    w, b = (theta[:-1], float(theta[-1])) if fit_bias else (theta, 0.0)
    return LogisticModel(weights=w, bias=b, l2_strength=l2_strength, fit_bias=fit_bias)


def predict(model: LogisticModel, features: ScoreMatrix | np.ndarray) -> np.ndarray:
    """Probability that the relation holds for each feature row."""
    X = features.values if isinstance(features, ScoreMatrix) else np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.width:
        raise ValueError(f"feature width {X.shape} does not match model width {model.width}")
    return _sigmoid(X @ model.weights + model.bias)


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative; ties count 0.5.

    Rank-sum (Mann-Whitney) formulation with average ranks for ties, exactly
    equal to exhaustive pair counting.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"AUC needs one label per score, got shapes {s.shape} and {y.shape}")
    if np.isnan(s).any():
        raise ValueError("AUC scores must not be NaN")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("AUC labels must be 0 or 1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")

    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of the last copy of each distinct score
    ranks = ((ends - counts + 1 + ends) / 2)[inverse]  # average rank within a tie
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
    with open_text(path) as fh:
        lines = fh.read().split("\n")  # text mode reads \r\n and \r as \n
    if not lines or lines[0].split("\t") != [MODEL_FORMAT, str(MODEL_VERSION)]:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    fields: dict[str, float] = {}
    weights: list[float] = []
    paths: list[MetaPath] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        expected = 3 if parts[0] == "path" else 2
        if len(parts) != expected:
            raise ParseError(path, lineno, line, f"expected {expected} tab-separated fields, got {len(parts)}")
        if parts[0] != "path":
            if parts[0] not in _MODEL_FIELDS:
                raise ParseError(path, lineno, line, f"unknown model field {parts[0]!r}")
            if parts[0] in fields:
                raise ParseError(path, lineno, line, f"repeated model field {parts[0]!r}")
            if parts[0] == "fit_bias" and parts[1] not in ("0", "1"):
                raise ParseError(path, lineno, line, f"fit_bias must be 0 or 1, got {parts[1]!r}")
        try:
            value = float(parts[1])
        except ValueError:
            value = math.nan  # rejected below with nan and inf
        if not math.isfinite(value):
            raise ParseError(path, lineno, line, f"{parts[1]!r} is not a finite number")
        if parts[0] != "path":
            fields[parts[0]] = value
            continue
        weights.append(value)
        try:
            paths.append(parse_metapath(parts[2]))
        except ValueError as exc:
            raise ParseError(path, lineno, line, str(exc)) from None
    try:
        model = LogisticModel(
            weights=np.array(weights),
            bias=fields["bias"],
            l2_strength=fields["l2"],
            fit_bias=bool(fields["fit_bias"]),
        )
    except KeyError as missing:
        raise ValueError(f"{path}: missing model field {missing}") from None
    return model, tuple(paths)
