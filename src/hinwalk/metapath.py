"""Meta-paths: alternating entity types and directed relations.

String form, parsed and rendered bidirectionally::

    TypeA -rel-> TypeB -rel~-> TypeC

where a ``~`` before the arrow head marks traversal against edge direction.
A zero-length meta-path is a single type name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import ROOT_TYPE, DirectedRelation

_ARROW = re.compile(r"^-(.+?)(~?)->$")


@dataclass(frozen=True)
class MetaPath:
    node_types: tuple[str, ...]
    relations: tuple[DirectedRelation, ...]

    def __post_init__(self):
        if len(self.node_types) != len(self.relations) + 1:
            raise ValueError(
                f"meta-path needs one more node type than relations, got "
                f"{len(self.node_types)} types for {len(self.relations)} relations"
            )

    @property
    def length(self) -> int:
        return len(self.relations)

    @property
    def source_type(self) -> str:
        return self.node_types[0]

    @property
    def target_type(self) -> str:
        return self.node_types[-1]

    def signature(self) -> tuple[tuple[str, bool], ...]:
        """Relation sequence only, for ordering and deduplication."""
        return tuple((r.name, r.inverted) for r in self.relations)

    def __str__(self) -> str:
        return format_metapath(self)


def relations_only(relations: tuple[DirectedRelation, ...]) -> MetaPath:
    """A meta-path with every node type left at the wildcard root type."""
    return MetaPath((ROOT_TYPE,) * (len(relations) + 1), tuple(relations))


def format_metapath(path: MetaPath) -> str:
    parts = [path.node_types[0]]
    for rel, node in zip(path.relations, path.node_types[1:]):
        marker = "~" if rel.inverted else ""
        parts.append(f"-{rel.name}{marker}->")
        parts.append(node)
    return " ".join(parts)


def parse_metapath(text: str) -> MetaPath:
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise ValueError(f"malformed meta-path {text!r}: expected 'Type (-rel-> Type)*'")
    node_types = []
    relations = []
    for i, tok in enumerate(tokens):
        if i % 2 == 0:
            node_types.append(tok)
            continue
        m = _ARROW.match(tok)
        if m is None:
            raise ValueError(f"malformed meta-path {text!r}: bad arrow token {tok!r}")
        relations.append(DirectedRelation(m.group(1), m.group(2) == "~"))
    return MetaPath(tuple(node_types), tuple(relations))
