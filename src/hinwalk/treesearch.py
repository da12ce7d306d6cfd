"""Best-first generation of discriminative meta-paths from example pairs.

The search tree's edges are directed relation types; a node at depth L stands
for one relation sequence of length L and its walk tuples
``(source, current) -> f(source, current | sequence)`` aggregated over every
concrete walk from the example sources along that sequence. The tuples are a
sparse matrix with one row per example source and one column per entity;
expanding a node multiplies it by each directed relation's row-normalised
step matrix (:mod:`hinwalk.walks`), one child per non-empty product. Walk
mass is positive, so a product is empty exactly when none of the node's
entities has an edge of that relation; such directions are told apart by the
step's row pointers and never multiplied, since every sparse product pays
for a workspace as wide as the graph, empty or not.

No matrix is kept that nobody reads again: a new child keeps its priority,
whether it holds an example pair and its number of tuples, and drops its
mass, since most children are never popped. A node popped to be emitted or
expanded makes its mass again with the same product from its expanded
parent, bit for bit the one that created it, and keeps it from then on; a
node dropped at the depth limit never gets it back. The root and the popped
nodes are thus the only ones holding a mass; :meth:`SearchTree.node_mass`
is the one way to read any node's.

A node's priority

    S = base * beta**depth  (+ 1 when the node holds an example pair)

ranks the frontier, where ``base`` is the weighted mean over sources of their
remaining walk mass, normalized by each source's example-pair count. The +1
bonus guarantees nodes that actually reach example targets are emitted before
any further expansion, since ``base`` is a weighted mean of values at most 1.

Search steps are constrained by relations only; node types are attached to an
emitted sequence afterwards: each position gets the deepest common ancestor
of the whole set of assigned types of the entities its node reached, ties
going to the smallest type id, independent of order and, but for the tie, of
type names (:meth:`HinGraph.lca_type` through :meth:`TypeHierarchy.lca`),
worked out once per node and kept on it.

The tree persists across emissions: an emitted node stays expandable, so
later rounds can grow longer sequences through it instead of starting over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceededError
from .graph import DirectedRelation, HinGraph
from .metapath import MetaPath
from .walks import sparse_product, walk_mass

# Frontier keys compare priorities rounded to this many decimals, so that
# mathematically equal priorities whose float sums differ in the last bit
# still tie and break on depth, then on the relation sequence.
PRIORITY_DECIMALS = 12


class ExamplePairSet:
    """User-supplied example pairs with positive, finite weights (default 1.0)."""

    def __init__(
        self,
        pairs: Iterable[tuple[str, str]],
        weights: Mapping[tuple[str, str], float] | None = None,
    ):
        seen: dict[tuple[str, str], float] = {}  # in first-seen order
        weights = dict(weights or {})
        for pair in pairs:
            pair = (pair[0], pair[1])
            if pair in seen:
                continue
            w = float(weights.get(pair, 1.0))
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"example pair {pair} has weight {w}, not positive and finite")
            seen[pair] = w
        if not seen:
            raise ValueError("example set must be non-empty")

        self.pairs: tuple[tuple[str, str], ...] = tuple(seen)

        self.max_weight: dict[str, float] = {}
        self.pair_count: dict[str, int] = {}
        for (s, _), w in seen.items():
            self.max_weight[s] = max(self.max_weight.get(s, 0.0), w)
            self.pair_count[s] = self.pair_count.get(s, 0) + 1
        self.sources: tuple[str, ...] = tuple(sorted(self.max_weight))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SearchConfig:
    beta: float = 0.6
    max_depth: int = 6
    max_paths: int = 20
    node_budget: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        for name in ("max_depth", "max_paths", "node_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class GeneratedPath:
    """An emitted meta-path with its per-example-pair walk scores."""

    metapath: MetaPath
    scores: dict[tuple[str, str], float]


@dataclass
class PathGenerationResult:
    paths: tuple[GeneratedPath, ...]
    status: str  # "ok" | "exhausted" | "budget"
    tree: "SearchTree"


@dataclass(eq=False, slots=True)
class WalkTuples:
    """A node's walk tuples: their number (``len``) and, once the node has
    been popped, their walk mass as a sparse matrix, example sources by
    entities. A frontier node holds no mass (``None``); read it through
    :meth:`SearchTree.node_mass`."""

    count: int
    mass: sp.csr_array | None = None

    def __len__(self) -> int:
        return self.count


@dataclass(eq=False, repr=False, slots=True)
class TreeNode:
    depth: int
    relseq: tuple[tuple[int, bool], ...]
    tuples: WalkTuples
    parent: TreeNode | None
    priority: float = 0.0
    has_pair: bool = False
    children: dict[tuple[int, bool], TreeNode] = field(default_factory=dict)
    expanded: bool = False
    emitted: bool = False
    node_type: str | None = None  # its position's type, set when a path through it is emitted


class SearchTree:
    """Persistent best-first search state, reusable across emissions.

    The frontier orders nodes by priority (rounded to ``PRIORITY_DECIMALS``
    decimals), breaking ties toward shallower depth and then the
    lexicographically smallest relation sequence, so runs are fully
    deterministic. ``next_path`` pops the best node and either
    emits it (first time it holds an example pair) or expands it; expanded
    nodes leave the frontier for good, emitted ones stay expandable.
    """

    def __init__(
        self,
        graph: HinGraph,
        examples: ExamplePairSet,
        config: SearchConfig | None = None,
        record_trace: bool = False,
    ):
        self.graph = graph
        self.examples = examples
        self.config = config or SearchConfig()
        self.status = "active"
        self.trace: list[tuple] | None = [] if record_trace else None

        # tuple rows are the example sources in index order, which is name order
        sources = examples.sources
        self._pair_rows = np.searchsorted(sources, [s for s, _ in examples.pairs])
        self._pair_cols = np.array([graph.entity_index(t) for _, t in examples.pairs])
        root = graph.hierarchy.root
        self._steps = {d: graph.step_matrix(*d, root, root) for d in graph.directions}

        source_idx = [graph.entity_index(s) for s in sources]
        root_mass = walk_mass(graph, source_idx, MetaPath((root,), ()))  # one-hot rows
        self.root = TreeNode(0, (), WalkTuples(root_mass.nnz, root_mass), None)
        self.root.priority, self.root.has_pair = self._score(root_mass, 0)
        self.nodes_created = 1
        self._frontier: list[tuple[tuple, TreeNode]] = [(self._key(self.root), self.root)]

    def _score(self, mass: sp.csr_array, depth: int) -> tuple[float, bool]:
        """The node's priority S, from the walk mass left at each example source
        that still holds some, and whether it holds an example pair."""
        weight, count = self.examples.max_weight, self.examples.pair_count
        row_totals = mass.sum(axis=1).tolist()
        totals = {s: t for s, t in zip(self.examples.sources, row_totals) if t > 0.0}
        has_pair = bool(mass[self._pair_rows, self._pair_cols].any())
        num = sum(weight[u] * total / count[u] for u, total in totals.items())
        den = sum(weight[u] for u in totals)
        return (num / den) * self.config.beta**depth + (1.0 if has_pair else 0.0), has_pair

    def _key(self, node: TreeNode) -> tuple:
        return (-round(node.priority, PRIORITY_DECIMALS), node.depth, node.relseq)

    def _record(self, event: str, node: TreeNode, popped_key: tuple) -> None:
        if self.trace is not None:
            next_key = self._frontier[0][0] if self._frontier else None
            self.trace.append((event, popped_key, next_key, node.depth, node.relseq))

    def expand_node(self, node: TreeNode) -> list[TreeNode]:
        """Create the node's children, one per outgoing directed relation."""
        if node.expanded:
            raise ValueError("node already expanded")
        if node.depth >= self.config.max_depth:
            raise ValueError(f"node at max depth {self.config.max_depth} cannot be expanded")
        node.expanded = True
        parent_mass = self._keep_mass(node)
        created = []
        # the node's entities, with repeats: removing them costs more than it saves
        cols = parent_mass.indices
        after = cols + 1
        for d, step in self._steps.items():
            indptr = step.edges.indptr
            if not (indptr[after] > indptr[cols]).any():
                continue  # no entity of the node has an out-edge: the product is empty
            mass = sparse_product(parent_mass, step.walk)
            if not mass.nnz:
                continue
            # the child keeps its count and score; its mass is made again if it is popped
            child = TreeNode(node.depth + 1, node.relseq + (d,), WalkTuples(mass.nnz), node)
            child.priority, child.has_pair = self._score(mass, child.depth)
            node.children[d] = child
            self.nodes_created += 1
            heapq.heappush(self._frontier, (self._key(child), child))
            created.append(child)
        return created

    def node_mass(self, node: TreeNode) -> sp.csr_array:
        """The node's walk mass: its stored matrix, or for a frontier node the
        product that created it, made again from its expanded parent."""
        mass = node.tuples.mass
        if mass is None:
            mass = sparse_product(node.parent.tuples.mass, self._steps[node.relseq[-1]].walk)
        return mass

    def _keep_mass(self, node: TreeNode) -> sp.csr_array:
        """The mass of a node popped to be emitted or expanded, stored from now on."""
        if node.tuples.mass is None:
            node.tuples.mass = self.node_mass(node)
        return node.tuples.mass

    def node_tuples(self, node: TreeNode) -> dict[tuple[str, str], float]:
        """Node walk tuples keyed by entity names, for inspection and tests."""
        coo = self.node_mass(node).tocoo()
        sources, name = self.examples.sources, self.graph.entity_name
        return {
            (sources[i], name(v)): f
            for i, v, f in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
        }

    def node_relations(self, node: TreeNode) -> tuple[DirectedRelation, ...]:
        return tuple(DirectedRelation(self.graph.relations[r], inv) for r, inv in node.relseq)

    def _emit(self, node: TreeNode) -> GeneratedPath:
        pair_mass = self._keep_mass(node)[self._pair_rows, self._pair_cols].tolist()
        scores = {pair: f for pair, f in zip(self.examples.pairs, pair_mass) if f}
        # each position is typed, once, from the entities its root-path node
        # reached; the node's ancestors were all expanded, so hold their mass
        node_types = []
        cur = node
        while cur is not None:
            if cur.node_type is None:
                cur.node_type = self.graph.lca_type(cur.tuples.mass.indices)
            node_types.append(cur.node_type)
            cur = cur.parent
        typed = MetaPath(tuple(reversed(node_types)), self.node_relations(node))
        return GeneratedPath(metapath=typed, scores=scores)

    def next_path(self) -> GeneratedPath | None:
        """Run the search until one more meta-path is emitted.

        Returns None on exhaustion: empty frontier, node or nnz budget exceeded
        (after which it stays stopped), or nothing left below the depth limit;
        ``status`` says which.
        """
        try:
            while self.status != "budget" and self.nodes_created <= self.config.node_budget:
                if not self._frontier:
                    self.status = "exhausted"
                    return None
                key, node = heapq.heappop(self._frontier)
                if node.has_pair and not node.emitted:
                    node.emitted = True
                    self._record("emit", node, key)
                    heapq.heappush(self._frontier, (key, node))
                    return self._emit(node)
                if node.depth >= self.config.max_depth:
                    self._record("drop", node, key)
                    continue
                self._record("expand", node, key)
                self.expand_node(node)
        except BudgetExceededError:  # a product refused over walks.NNZ_BUDGET
            pass
        self.status = "budget"
        return None


def generate_paths(
    graph: HinGraph,
    examples: ExamplePairSet,
    config: SearchConfig | None = None,
    record_trace: bool = False,
) -> PathGenerationResult:
    """Emit up to ``config.max_paths`` meta-paths from one persistent tree.

    Each path's ``scores`` map the example pairs its node reaches, in input
    order, to their walk probabilities. Zero paths found is a normal outcome;
    a search stopped by the node or nnz budget returns the paths emitted so
    far with ``status`` "budget".
    """
    config = config or SearchConfig()
    tree = SearchTree(graph, examples, config, record_trace=record_trace)
    paths: list[GeneratedPath] = []  # each tree node has its own sequence and emits once
    while len(paths) < config.max_paths:
        emitted = tree.next_path()
        if emitted is None:
            break
        paths.append(emitted)
    status = "ok" if len(paths) == config.max_paths else tree.status
    return PathGenerationResult(tuple(paths), status, tree)
