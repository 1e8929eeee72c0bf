"""Discrete probability distributions over finite outcome sets.

The paper's output objects — per-tuple distributions ``Δt`` and per-meta-rule
CPD estimates ``Δ(m)`` — are finite discrete distributions.  This module
provides the shared representation plus the two accuracy measures of
Section VI-A: Kullback-Leibler divergence and top-1 agreement.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Distribution", "DEFAULT_SMOOTHING_FLOOR", "normalize_rows"]

#: The smoothing floor of Section III: every outcome is assigned a probability
#: of at least 1e-5 so Gibbs sampling transitions are strictly positive.
DEFAULT_SMOOTHING_FLOOR = 1e-5


class Distribution:
    """An immutable probability distribution over an ordered outcome set.

    Outcomes are arbitrary hashable objects (attribute values, tuples of
    values, ...).  Probabilities are stored as a float64 vector and always
    sum to 1 after construction.
    """

    __slots__ = ("outcomes", "probs", "_index")

    def __init__(self, outcomes: Sequence[Hashable], probs: Sequence[float]):
        outs = tuple(outcomes)
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(outs):
            raise ValueError(
                f"{len(outs)} outcomes but probability vector of shape {arr.shape}"
            )
        if not outs:
            raise ValueError("distribution needs at least one outcome")
        index = {o: i for i, o in enumerate(outs)}
        if len(index) != len(outs):
            raise ValueError("duplicate outcomes in distribution")
        if (arr < 0).any():
            raise ValueError("negative probability")
        total = float(arr.sum())
        if total <= 0:
            raise ValueError("probabilities sum to zero")
        arr = arr / total
        arr.setflags(write=False)
        self.outcomes = outs
        self.probs = arr
        self._index = index

    @classmethod
    def _trusted(
        cls,
        outcomes: tuple[Hashable, ...],
        probs: np.ndarray,
        index: dict[Hashable, int],
    ) -> "Distribution":
        """Wrap an already validated, normalized, read-only ``probs``.

        ``index`` must map ``outcomes`` to their positions; distributions
        over one outcome set may share both.
        """
        d = cls.__new__(cls)
        d.outcomes = outcomes
        d.probs = probs
        d._index = index
        return d

    def __reduce__(self):
        # Restore ``probs`` read-only and byte for byte: renormalizing
        # through __init__ could move the last bit, and unpickled arrays
        # come back writeable.
        return (_restore, (self.outcomes, self.probs, self._index))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def stack(
        cls, outcomes: Sequence[Hashable], matrix: np.ndarray
    ) -> "list[Distribution]":
        """One distribution per row of ``matrix``, all over ``outcomes``.

        Equal, byte for byte, to ``[Distribution(outcomes, row) for row in
        matrix]`` and raising the error the first failing row would, but
        the outcomes are checked once, the rows are validated and
        normalized as one matrix (:func:`normalize_rows`), and every
        distribution holds a read-only row view of it and shares one
        outcomes tuple and one index.
        """
        outs = tuple(outcomes)
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != len(outs):
            raise ValueError(
                f"{len(outs)} outcomes but probability matrix of shape {arr.shape}"
            )
        if not outs:
            raise ValueError("distribution needs at least one outcome")
        index = {o: i for i, o in enumerate(outs)}
        if len(index) != len(outs):
            raise ValueError("duplicate outcomes in distribution")
        return [cls._trusted(outs, row, index) for row in normalize_rows(arr)]

    @classmethod
    def uniform(cls, outcomes: Sequence[Hashable]) -> "Distribution":
        """The uniform distribution over ``outcomes``."""
        n = len(tuple(outcomes))
        return cls(outcomes, np.full(n, 1.0 / n))

    @classmethod
    def from_counts(
        cls, counts: Mapping[Hashable, float], outcomes: Sequence[Hashable] | None = None
    ) -> "Distribution":
        """Normalize a ``{outcome: count}`` mapping into a distribution.

        ``outcomes`` fixes the outcome order (and zero-fills absences);
        otherwise insertion order of ``counts`` is used.
        """
        if outcomes is None:
            outcomes = tuple(counts.keys())
        probs = [float(counts.get(o, 0.0)) for o in outcomes]
        return cls(outcomes, probs)

    @classmethod
    def point_mass(cls, outcomes: Sequence[Hashable], winner: Hashable) -> "Distribution":
        """All mass on ``winner`` (used in tests and degenerate CPDs)."""
        probs = [1.0 if o == winner else 0.0 for o in outcomes]
        return cls(outcomes, probs)

    # -- accessors -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[tuple[Hashable, float]]:
        return iter(zip(self.outcomes, self.probs))

    def __getitem__(self, outcome: Hashable) -> float:
        """Probability of ``outcome`` (0.0 if absent from the outcome set)."""
        i = self._index.get(outcome)
        if i is None:
            return 0.0
        return float(self.probs[i])

    def __contains__(self, outcome: Hashable) -> bool:
        return outcome in self._index

    def top1(self) -> Hashable:
        """The most probable outcome (ties broken by outcome order)."""
        return self.outcomes[int(np.argmax(self.probs))]

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())

    # -- transforms ---------------------------------------------------------------

    def smoothed(self, floor: float = DEFAULT_SMOOTHING_FLOOR) -> "Distribution":
        """Return a strictly positive copy.

        Implements the Section III smoothing: every outcome gets probability
        at least ``floor``, and the distribution is renormalized.  Required so
        all Gibbs transition kernels are positive.
        """
        probs = np.maximum(self.probs, floor)
        return Distribution(self.outcomes, probs)

    def reordered(self, outcomes: Sequence[Hashable]) -> "Distribution":
        """Return this distribution expressed over a given outcome order.

        Outcomes absent from ``self`` get probability 0 (the result is then
        renormalized, so the caller usually smooths afterwards).
        """
        probs = [self[o] for o in outcomes]
        return Distribution(outcomes, probs)

    # -- accuracy measures (Section VI-A) -----------------------------------------

    def kl_divergence(self, other: "Distribution") -> float:
        """``KL(self || other)`` in nats.

        Outcomes are matched by value, so the two distributions may list them
        in different orders; ``other`` must be positive wherever ``self`` is.
        """
        total = 0.0
        for outcome, p in zip(self.outcomes, self.probs):
            if p <= 0.0:
                continue
            q = other[outcome]
            if q <= 0.0:
                return float("inf")
            total += float(p) * float(np.log(p / q))
        # Clamp tiny negative rounding residue.
        return max(total, 0.0)

    def total_variation(self, other: "Distribution") -> float:
        """Total-variation distance, over the union of outcome sets."""
        outcomes = set(self.outcomes) | set(other.outcomes)
        return 0.5 * sum(abs(self[o] - other[o]) for o in outcomes)

    def same_top1(self, other: "Distribution") -> bool:
        """True when both distributions agree on the most probable outcome."""
        return self.top1() == other.top1()

    # -- sampling ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Hashable:
        """Draw one outcome."""
        i = int(rng.choice(len(self.outcomes), p=self.probs))
        return self.outcomes[i]

    def sample_many(self, n: int, rng: np.random.Generator) -> list[Hashable]:
        """Draw ``n`` outcomes with replacement."""
        idx = rng.choice(len(self.outcomes), size=n, p=self.probs)
        return [self.outcomes[int(i)] for i in idx]

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.outcomes == other.outcomes and np.allclose(
            self.probs, other.probs
        )

    def __hash__(self) -> int:
        return hash((self.outcomes, self.probs.tobytes()))

    def __repr__(self) -> str:
        body = ", ".join(f"{o}: {p:.4f}" for o, p in self)
        return f"Distribution({body})"


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """:class:`Distribution`'s checks and normalization, row by row.

    Row ``i`` of the result is, byte for byte, ``Distribution(outcomes,
    matrix[i]).probs``; a matrix with a failing row raises that row's
    error, the first such row's if several fail.  Returns a new read-only
    float64 matrix.
    """
    # C order: each row then sums exactly as a 1-D vector does.
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    totals = arr.sum(axis=1)
    negative = (arr < 0).any(axis=1)
    bad = negative | (totals <= 0)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            "negative probability" if negative[row] else "probabilities sum to zero"
        )
    out = arr / totals[:, None]
    out.setflags(write=False)
    return out


def _restore(
    outcomes: tuple[Hashable, ...], probs: np.ndarray, index: dict[Hashable, int]
) -> Distribution:
    """Unpickle a :class:`Distribution` (see ``Distribution.__reduce__``)."""
    probs.setflags(write=False)
    return Distribution._trusted(outcomes, probs, index)


def mixture(
    components: Iterable[Distribution], weights: Sequence[float] | None = None
) -> Distribution:
    """Weighted mixture of distributions over the union of their outcomes.

    This is the voting combiner of Algorithm 2: ``averaged`` voting is the
    unweighted mixture, ``weighted`` voting passes meta-rule supports as
    weights.
    """
    comps = list(components)
    if not comps:
        raise ValueError("mixture of zero components")
    if weights is None:
        w = np.ones(len(comps))
    else:
        w = np.asarray(list(weights), dtype=np.float64)
        if w.shape[0] != len(comps):
            raise ValueError("weights length does not match component count")
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
    w = w / w.sum()
    outcomes: list[Hashable] = []
    seen = set()
    for comp in comps:
        for o in comp.outcomes:
            if o not in seen:
                seen.add(o)
                outcomes.append(o)
    probs = np.zeros(len(outcomes))
    for weight, comp in zip(w, comps):
        for i, o in enumerate(outcomes):
            probs[i] += weight * comp[o]
    return Distribution(outcomes, probs)
