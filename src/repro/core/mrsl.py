"""Meta-rule semi-lattices (Defs 2.7-2.9).

``MRSL_a`` is the set of meta-rules with head attribute ``a``, partially
ordered by body subsumption; an :class:`MRSLModel` holds one semi-lattice per
attribute.  The semi-lattice answers the two queries Algorithm 2 needs:

* all meta-rules matching an incomplete tuple, and
* among those, the *best* (most specific) matches — the ones that do not
  subsume any other match.

Matching is served by a body-indexed lookup: a meta-rule matches tuple ``t``
iff its body is a sub-assignment of ``t``'s known values, so the matches are
found by enumerating subsets of the known items bounded by the lattice's
maximum body size (cheap, because bodies beyond the Apriori frontier do not
exist).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterator, Sequence

from ..relational.schema import Schema
from ..relational.tuples import MISSING_CODE, RelTuple
from .itemsets import Item, Itemset
from .metarule import MetaRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiled import CompiledModel

__all__ = ["MRSL", "MRSLModel"]


class MRSL:
    """The meta-rule semi-lattice for one head attribute."""

    def __init__(self, head_attribute: int, meta_rules: Sequence[MetaRule]):
        self.head_attribute = head_attribute
        for m in meta_rules:
            if m.head_attribute != head_attribute:
                raise ValueError(
                    "meta-rule head attribute does not match the semi-lattice"
                )
        self._by_body: dict[Itemset, MetaRule] = {}
        for m in meta_rules:
            if m.body in self._by_body:
                raise ValueError(f"duplicate meta-rule body {m.body}")
            self._by_body[m.body] = m
        self.max_body_size = max((m.body_size for m in meta_rules), default=0)

    # -- collection protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_body)

    def __iter__(self) -> Iterator[MetaRule]:
        return iter(self._by_body.values())

    def __contains__(self, body: Itemset) -> bool:
        return body in self._by_body

    def get(self, body: Itemset) -> MetaRule | None:
        """The meta-rule with exactly this body, if present."""
        return self._by_body.get(body)

    @property
    def root(self) -> MetaRule | None:
        """The top-level meta-rule ``P(a)`` (empty body), if mined."""
        return self._by_body.get(())

    # -- semi-lattice structure ---------------------------------------------------

    def children(self, m: MetaRule) -> list[MetaRule]:
        """Immediate refinements of ``m``: bodies extending it by one item."""
        return [
            other
            for other in self._by_body.values()
            if other.body_size == m.body_size + 1 and m.subsumes(other)
        ]

    def parents(self, m: MetaRule) -> list[MetaRule]:
        """Immediate generalizations: bodies with one item removed."""
        out = []
        for i in range(len(m.body)):
            body = m.body[:i] + m.body[i + 1 :]
            parent = self._by_body.get(body)
            if parent is not None:
                out.append(parent)
        return out

    # -- matching (Algorithm 2, GetMatchingMetaRules) -------------------------------

    def matching(self, t: RelTuple) -> list[MetaRule]:
        """All meta-rules whose body agrees with ``t``'s known values."""
        known_items: list[Item] = [
            (attr, int(code))
            for attr, code in enumerate(t.codes)
            if code != MISSING_CODE and attr != self.head_attribute
        ]
        matches = []
        limit = min(self.max_body_size, len(known_items))
        for size in range(limit + 1):
            for body in combinations(known_items, size):
                m = self._by_body.get(body)
                if m is not None:
                    matches.append(m)
        return matches

    def best_matching(self, t: RelTuple) -> list[MetaRule]:
        """Most specific matches: those that subsume no other match."""
        matches = self.matching(t)
        return self.most_specific(matches)

    @staticmethod
    def most_specific(matches: Sequence[MetaRule]) -> list[MetaRule]:
        """Filter to meta-rules that do not subsume any other in ``matches``.

        Since every match's body is a sub-assignment of the same tuple, the
        subsumption test reduces to strict-subset on bodies.
        """
        bodies = [set(m.body) for m in matches]
        out = []
        for i, m in enumerate(matches):
            if not any(
                i != j and bodies[i] < bodies[j] for j in range(len(matches))
            ):
                out.append(m)
        return out

    def describe(self, schema: Schema) -> str:
        """Multi-line listing of the lattice, one level per line (cf. Fig. 2)."""
        lines = []
        for size in range(self.max_body_size + 1):
            level = [m for m in self if m.body_size == size]
            for m in sorted(level, key=lambda m: m.body):
                lines.append(f"W={m.weight:.2f}  {m.describe(schema)}")
        return "\n".join(lines)

    def to_networkx(self, schema: Schema):
        """The Hasse diagram of the semi-lattice as a networkx DiGraph.

        Nodes are meta-rule bodies (labelled as in Fig. 2); an edge runs
        from each meta-rule to its immediate refinements.  Useful for
        visualizing or programmatically analyzing the learned ensemble.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for m in self:
            graph.add_node(
                m.body,
                label=m.describe(schema),
                weight=m.weight,
                probs=tuple(float(p) for p in m.probs),
            )
        for m in self:
            for child in self.children(m):
                graph.add_edge(m.body, child.body)
        return graph

    def __repr__(self) -> str:
        return (
            f"MRSL(head={self.head_attribute}, {len(self)} meta-rules, "
            f"max body size {self.max_body_size})"
        )


class MRSLModel:
    """One semi-lattice per attribute (Def. 2.9)."""

    def __init__(self, schema: Schema, lattices: Sequence[MRSL]):
        self.schema = schema
        by_attr = {lat.head_attribute: lat for lat in lattices}
        if len(by_attr) != len(lattices):
            raise ValueError("duplicate semi-lattice for an attribute")
        missing = set(range(len(schema))) - set(by_attr)
        if missing:
            names = [schema[i].name for i in sorted(missing)]
            raise ValueError(f"no semi-lattice for attributes {names}")
        self._by_attr = by_attr

    def __getitem__(self, key: int | str) -> MRSL:
        if isinstance(key, str):
            key = self.schema.index(key)
        return self._by_attr[key]

    def __iter__(self) -> Iterator[MRSL]:
        return iter(self._by_attr.values())

    def __len__(self) -> int:
        return len(self._by_attr)

    @cached_property
    def compiled(self) -> "CompiledModel":
        """The model's compiled lattices, each built on first use and kept
        as long as the model: every engine, plan and compiled-metadata
        handshake over this model reads this one copy."""
        from .compiled import CompiledModel  # compiled imports this module

        return CompiledModel(self)

    def size(self) -> int:
        """Total number of meta-rules — the "model size" of Fig. 4(c)."""
        return sum(len(lat) for lat in self._by_attr.values())

    def pruned(self, min_weight: float) -> "MRSLModel":
        """A compressed copy keeping meta-rules with weight >= ``min_weight``.

        Top-level rules (empty body, weight 1) always survive, so inference
        never loses its fallback voter.  This is the "partial
        materialization of probability values" direction of Section VIII:
        trade model size against the specificity of available evidence.
        """
        if not 0.0 <= min_weight <= 1.0:
            raise ValueError("min_weight must be within [0, 1]")
        lattices = []
        for lat in self._by_attr.values():
            kept = [
                m for m in lat if m.weight >= min_weight or not m.body
            ]
            lattices.append(MRSL(lat.head_attribute, kept))
        return MRSLModel(self.schema, lattices)

    def __repr__(self) -> str:
        return f"MRSLModel({len(self)} attributes, {self.size()} meta-rules)"
