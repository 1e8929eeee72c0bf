"""Disjoint-independent probabilistic databases (Section I-A, [8]).

A probabilistic database here is a set of certain (complete) tuples plus a
set of independent *blocks*; each block is a probability distribution over
mutually exclusive complete versions of one incomplete tuple.  A possible
world picks one completion from every block independently; its probability is
the product of the chosen completions' probabilities.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..relational.relation import Relation
from ..relational.schema import Schema, SchemaError
from ..relational.tuples import RelTuple
from .blocks import TupleBlock

__all__ = ["PossibleWorld", "ProbabilisticDatabase"]


class PossibleWorld:
    """One fully determined instance drawn from a probabilistic database."""

    __slots__ = ("tuples", "probability")

    def __init__(self, tuples: Sequence[RelTuple], probability: float):
        self.tuples = tuple(tuples)
        self.probability = float(probability)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[RelTuple]:
        return iter(self.tuples)

    def __repr__(self) -> str:
        return f"PossibleWorld({len(self.tuples)} tuples, p={self.probability:.6g})"


class ProbabilisticDatabase:
    """The output object of the paper: certain tuples + independent blocks."""

    def __init__(
        self,
        schema: Schema,
        certain: Iterable[RelTuple] = (),
        blocks: Iterable[TupleBlock] = (),
    ):
        self.schema = schema
        self.certain = tuple(certain)
        self.blocks = tuple(blocks)
        for t in self.certain:
            if t.schema != schema:
                raise SchemaError("certain tuple schema mismatch")
            if not t.is_complete:
                raise SchemaError("certain tuples must be complete")
        for b in self.blocks:
            if b.base.schema != schema:
                raise SchemaError("block schema mismatch")

    @classmethod
    def _trusted(
        cls,
        schema: Schema,
        certain: Sequence[RelTuple],
        blocks: Sequence[TupleBlock],
    ) -> "ProbabilisticDatabase":
        """A database the caller already knows :meth:`__init__` would accept.

        For the derivation, whose certain rows and blocks come from one
        relation over ``schema``: skips the per-row checks.
        """
        db = cls.__new__(cls)
        db.schema = schema
        db.certain = tuple(certain)
        db.blocks = tuple(blocks)
        return db

    # -- possible-world semantics ------------------------------------------------

    def num_possible_worlds(self) -> int:
        """Number of possible worlds (product of block sizes)."""
        n = 1
        for block in self.blocks:
            n *= len(block)
        return n

    def possible_worlds(self, max_worlds: int = 1_000_000) -> Iterator[PossibleWorld]:
        """Enumerate every possible world with its probability.

        Intended for small databases; raises if the world count exceeds
        ``max_worlds`` to avoid accidental blow-ups.
        """
        if self.num_possible_worlds() > max_worlds:
            raise ValueError(
                f"{self.num_possible_worlds()} possible worlds exceed the "
                f"max_worlds={max_worlds} cap; use sample_world instead"
            )
        choices = [list(block.completions()) for block in self.blocks]
        for combo in product(*choices):
            prob = 1.0
            tuples = list(self.certain)
            for completed, p in combo:
                prob *= p
                tuples.append(completed)
            yield PossibleWorld(tuples, prob)

    def sample_world(self, rng: np.random.Generator) -> PossibleWorld:
        """Draw one possible world by sampling each block independently."""
        tuples = list(self.certain)
        prob = 1.0
        for block in self.blocks:
            outcome = block.distribution.sample(rng)
            prob *= block.distribution[outcome]
            assignment = dict(zip(block.missing_names, outcome))
            tuples.append(block.base.complete_with(assignment))
        return PossibleWorld(tuples, prob)

    # -- derived certain views ---------------------------------------------------

    def most_probable_world(self) -> PossibleWorld:
        """The world picking every block's most probable completion."""
        tuples = list(self.certain)
        prob = 1.0
        for block in self.blocks:
            top = block.distribution.top1()
            prob *= block.distribution[top]
            tuples.append(block.most_probable_completion())
        return PossibleWorld(tuples, prob)

    def to_relation(self) -> Relation:
        """Flatten to a certain relation using most-probable completions."""
        return Relation(self.schema, self.most_probable_world().tuples)

    # -- statistics ----------------------------------------------------------------

    def total_tuples(self) -> int:
        """Number of logical rows (certain + one per block)."""
        return len(self.certain) + len(self.blocks)

    def __repr__(self) -> str:
        return (
            f"ProbabilisticDatabase({len(self.certain)} certain tuples, "
            f"{len(self.blocks)} blocks, "
            f"{self.num_possible_worlds()} possible worlds)"
        )
