"""Event expressions (lineage) over disjoint-independent databases.

The extensional evaluators in :mod:`repro.probdb.query` are correct only for
safe plans; general select-project-join queries — self-joins in particular —
need *intensional* evaluation: track, per result tuple, the boolean event
over block choices under which the tuple appears, then compute that event's
probability exactly.

Atoms are block choices ``(block_index, outcome)``.  Within one block,
outcomes are mutually exclusive and exhaustive; across blocks, choices are
independent.  Exact probability is computed by Shannon expansion over the
blocks an event mentions — exponential only in the (typically tiny) number
of blocks in one tuple's lineage, never in the database size.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .database import ProbabilisticDatabase

__all__ = [
    "Event",
    "TRUE",
    "FALSE",
    "BlockChoice",
    "conjunction",
    "disjunction",
    "negation",
    "event_probability",
    "estimate_event_probability",
]


class Event:
    """Base class for boolean events over block choices."""

    def blocks(self) -> frozenset[int]:
        """Indices of every block this event mentions."""
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        """Truth value under a full assignment ``block_index -> outcome``."""
        raise NotImplementedError

    # Convenience combinators.
    def __and__(self, other: "Event") -> "Event":
        return conjunction([self, other])

    def __or__(self, other: "Event") -> "Event":
        return disjunction([self, other])

    def __invert__(self) -> "Event":
        return negation(self)


class _Constant(Event):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def blocks(self) -> frozenset[int]:
        return frozenset()

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        return self.value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: The certain event (lineage of certain tuples).
TRUE = _Constant(True)
#: The impossible event.
FALSE = _Constant(False)


class BlockChoice(Event):
    """Atom: block ``block_index`` resolves to ``outcome``."""

    __slots__ = ("block_index", "outcome")

    def __init__(self, block_index: int, outcome: Hashable):
        self.block_index = block_index
        self.outcome = outcome

    def blocks(self) -> frozenset[int]:
        return frozenset((self.block_index,))

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        return assignment[self.block_index] == self.outcome

    def __repr__(self) -> str:
        return f"b{self.block_index}={self.outcome!r}"


class _And(Event):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Event, ...]):
        self.children = children

    def blocks(self) -> frozenset[int]:
        return frozenset().union(*(c.blocks() for c in self.children))

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        return all(c.evaluate(assignment) for c in self.children)

    def __repr__(self) -> str:
        return "(" + " ^ ".join(map(repr, self.children)) + ")"


class _Or(Event):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Event, ...]):
        self.children = children

    def blocks(self) -> frozenset[int]:
        return frozenset().union(*(c.blocks() for c in self.children))

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        return any(c.evaluate(assignment) for c in self.children)

    def __repr__(self) -> str:
        return "(" + " v ".join(map(repr, self.children)) + ")"


class _Not(Event):
    __slots__ = ("child",)

    def __init__(self, child: Event):
        self.child = child

    def blocks(self) -> frozenset[int]:
        return self.child.blocks()

    def evaluate(self, assignment: Mapping[int, Hashable]) -> bool:
        return not self.child.evaluate(assignment)

    def __repr__(self) -> str:
        return f"!{self.child!r}"


def conjunction(events: Iterable[Event]) -> Event:
    """And, with constant folding."""
    flat: list[Event] = []
    for e in events:
        if e is FALSE:
            return FALSE
        if e is TRUE:
            continue
        if isinstance(e, _And):
            flat.extend(e.children)
        else:
            flat.append(e)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    # Contradictory atoms on the same block => FALSE.
    chosen: dict[int, Hashable] = {}
    for e in flat:
        if isinstance(e, BlockChoice):
            prev = chosen.get(e.block_index)
            if prev is not None and prev != e.outcome:
                return FALSE
            chosen[e.block_index] = e.outcome
    return _And(tuple(flat))


def disjunction(events: Iterable[Event]) -> Event:
    """Or, with constant folding."""
    flat: list[Event] = []
    for e in events:
        if e is TRUE:
            return TRUE
        if e is FALSE:
            continue
        if isinstance(e, _Or):
            flat.extend(e.children)
        else:
            flat.append(e)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _Or(tuple(flat))


def negation(event: Event) -> Event:
    """Not, with constant folding."""
    if event is TRUE:
        return FALSE
    if event is FALSE:
        return TRUE
    if isinstance(event, _Not):
        return event.child
    return _Not(event)


#: Shannon expansion beyond this many mentioned blocks is refused (use the
#: Monte-Carlo estimator instead); 2^20 assignments is already generous.
MAX_EXACT_BLOCKS = 20


def _atom_probability(db: ProbabilisticDatabase, atom: BlockChoice) -> float:
    return float(db.blocks[atom.block_index].distribution[atom.outcome])


def _try_closed_form(event: Event, db: ProbabilisticDatabase) -> float | None:
    """Closed forms for the common shapes, avoiding Shannon expansion.

    * an atom: its block-outcome probability;
    * a conjunction of atoms: independent across blocks, contradictions
      within a block are already folded to FALSE by :func:`conjunction`;
    * a disjunction of atoms: within a block outcomes are mutually
      exclusive (probabilities add), across blocks independent
      (``1 - prod(1 - p_b)``).

    These cover scans, selections and single-relation projections exactly —
    only join lineages (and/or mixtures) fall through to expansion.  A
    block's covered mass is summed in the distribution's outcome order, so
    the bits do not depend on set iteration order (``PYTHONHASHSEED``).
    """
    if isinstance(event, BlockChoice):
        return _atom_probability(db, event)
    if isinstance(event, _And) and all(
        isinstance(c, BlockChoice) for c in event.children
    ):
        per_block: dict[int, set] = {}
        for atom in event.children:
            per_block.setdefault(atom.block_index, set()).add(atom.outcome)
        prob = 1.0
        for block_idx, outcomes in per_block.items():
            if len(outcomes) > 1:
                return 0.0  # contradictory (defensive; conjunction folds this)
            prob *= float(db.blocks[block_idx].distribution[next(iter(outcomes))])
        return prob
    if isinstance(event, _Or) and all(
        isinstance(c, BlockChoice) for c in event.children
    ):
        per_block: dict[int, set] = {}
        for atom in event.children:
            per_block.setdefault(atom.block_index, set()).add(atom.outcome)
        return atom_disjunction_probability(
            [float(p) for o, p in db.blocks[block_idx].distribution if o in outcomes]
            for block_idx, outcomes in per_block.items()
        )
    return None


def atom_disjunction_probability(covered: Iterable[Sequence[float]]) -> float:
    """``1 - prod_b max(1 - sum(covered_b), 0)``: a disjunction of atoms.

    ``covered`` holds, per mentioned block, the probabilities of that
    block's outcomes in the disjunction.  Outcomes of one block are mutually
    exclusive (their mass adds, with the builtin ``sum``); blocks are
    independent.  Bits depend on order, so callers pass each block's
    probabilities in outcome order and the blocks in first-appearance
    order — the lineage closed form and the columnar selection path
    (:meth:`~repro.probdb.engine.QueryEngine.masked_selection_query`) both
    price through here.
    """
    none = 1.0
    for probs in covered:
        none *= max(1.0 - sum(probs), 0.0)
    return 1.0 - none


def event_probability(
    event: Event, db: ProbabilisticDatabase, max_blocks: int = MAX_EXACT_BLOCKS
) -> float:
    """Exact probability of ``event`` under the database's block semantics.

    Closed forms handle atom conjunctions/disjunctions directly (any number
    of blocks); everything else uses Shannon expansion — enumerate joint
    outcomes of the mentioned blocks only (independent across blocks,
    mutually exclusive within), summing the probability of assignments that
    satisfy the event.
    """
    closed = _try_closed_form(event, db)
    if closed is not None:
        return min(closed, 1.0)
    mentioned = sorted(event.blocks())
    if len(mentioned) > max_blocks:
        raise ValueError(
            f"event mentions {len(mentioned)} blocks; exact expansion capped "
            f"at {max_blocks} — use estimate_event_probability"
        )
    if not mentioned:
        return 1.0 if event.evaluate({}) else 0.0

    total = 0.0
    assignment: dict[int, Hashable] = {}

    def recurse(i: int, prob: float) -> None:
        nonlocal total
        if prob == 0.0:
            return
        if i == len(mentioned):
            if event.evaluate(assignment):
                total += prob
            return
        block_idx = mentioned[i]
        dist = db.blocks[block_idx].distribution
        for outcome, p in dist:
            assignment[block_idx] = outcome
            recurse(i + 1, prob * float(p))
        del assignment[block_idx]

    recurse(0, 1.0)
    return min(total, 1.0)


def estimate_event_probability(
    event: Event,
    db: ProbabilisticDatabase,
    num_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate for events whose lineage spans many blocks."""
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    mentioned = sorted(event.blocks())
    hits = 0
    for _ in range(num_samples):
        assignment = {
            i: db.blocks[i].distribution.sample(rng) for i in mentioned
        }
        if event.evaluate(assignment):
            hits += 1
    return hits / num_samples
