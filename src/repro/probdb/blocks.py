"""Tuple blocks: the ``Δt`` objects of the disjoint-independent model.

Each incomplete tuple ``t`` gives rise to a block of mutually exclusive
complete versions of ``t``, one per combination of values of its missing
attributes, annotated with probabilities summing to 1 (paper Fig. 1, tuple
``t12``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Hashable, Iterator, Sequence

from ..relational.schema import SchemaError
from ..relational.tuples import RelTuple
from .distribution import Distribution

__all__ = ["TupleBlock"]


class TupleBlock:
    """A probability distribution over the completions of one incomplete tuple.

    Outcomes of the wrapped :class:`Distribution` are tuples of values, one
    per missing attribute of ``base`` in positional order.
    """

    __slots__ = ("base", "distribution")

    def __init__(self, base: RelTuple, distribution: Distribution):
        if base.is_complete:
            raise SchemaError("a tuple block requires an incomplete base tuple")
        if not _full_outcome_space(base).issuperset(distribution.outcomes):
            raise SchemaError(
                "distribution outcomes include value combinations outside the "
                "missing attributes' domains"
            )
        self.base = base
        self.distribution = distribution

    @classmethod
    def _trusted(cls, base: RelTuple, distribution: Distribution) -> "TupleBlock":
        """A block the caller already knows :meth:`__init__` would accept.

        For batch builders: once one block over an outcome set passed the
        checks, blocks over the same outcomes for bases missing the same
        positions need no second check.
        """
        block = cls.__new__(cls)
        block.base = base
        block.distribution = distribution
        return block

    @classmethod
    def certain(cls, base: RelTuple, completion: Sequence[Hashable]) -> "TupleBlock":
        """A degenerate block with all mass on one completion."""
        outcomes = sorted(_full_outcome_space(base))
        return cls(base, Distribution.point_mass(outcomes, tuple(completion)))

    @property
    def missing_names(self) -> tuple[str, ...]:
        """Names of the attributes this block's outcomes assign."""
        schema = self.base.schema
        return tuple(schema[p].name for p in self.base.missing_positions)

    def completions(self) -> Iterator[tuple[RelTuple, float]]:
        """Yield ``(complete_tuple, probability)`` pairs, one per outcome.

        This materializes the rows of the probabilistic relation, as in the
        ``t12.1 .. t12.4`` call-out of Fig. 1.
        """
        names = self.missing_names
        for outcome, prob in self.distribution:
            assignment = dict(zip(names, outcome))
            yield self.base.complete_with(assignment), float(prob)

    def most_probable_completion(self) -> RelTuple:
        """The single most likely complete version of the base tuple."""
        outcome = self.distribution.top1()
        return self.base.complete_with(dict(zip(self.missing_names, outcome)))

    def top_k(self, k: int) -> list[tuple[RelTuple, float]]:
        """The ``k`` most probable completions, most probable first."""
        if k < 1:
            raise ValueError("k must be positive")
        ranked = sorted(self.completions(), key=lambda pair: pair[1], reverse=True)
        return ranked[:k]

    def marginal(self, attribute: str) -> Distribution:
        """Marginal distribution of one missing attribute within this block."""
        names = self.missing_names
        if attribute not in names:
            raise SchemaError(
                f"attribute {attribute!r} is not missing in the base tuple"
            )
        pos = names.index(attribute)
        totals: dict[Hashable, float] = {}
        for outcome, prob in self.distribution:
            value = outcome[pos]
            totals[value] = totals.get(value, 0.0) + float(prob)
        domain = self.base.schema[attribute].domain
        ordered = [v for v in domain if v in totals]
        return Distribution(ordered, [totals[v] for v in ordered])

    def __len__(self) -> int:
        return len(self.distribution)

    def __repr__(self) -> str:
        return (
            f"TupleBlock(base={self.base!r}, "
            f"{len(self.distribution)} completions)"
        )


def _full_outcome_space(base: RelTuple) -> frozenset[tuple[Hashable, ...]]:
    """All value combinations for the missing attributes of ``base``."""
    schema = base.schema
    return _product_space(tuple(schema[p].domain for p in base.missing_positions))


@lru_cache(maxsize=256)
def _product_space(
    domains: tuple[tuple[Hashable, ...], ...],
) -> frozenset[tuple[Hashable, ...]]:
    """``product(*domains)`` as a set, memoized on the domains themselves.

    Every block of a derivation validates against one of a few spaces, so
    each is built once; equal schemas of different relations share entries
    without a deep schema comparison.
    """
    return frozenset(product(*domains))
