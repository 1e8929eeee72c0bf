"""Property: column-wise selection == the lineage engine, bit for bit.

``SelectionQuery.run`` evaluates its predicate as masks over code matrices
(``QueryEngine.masked_selection_query``); ``QueryEngine.selection_query``
scans rows, builds lineage for every completion and prices each merged
event.  On random small databases — point-mass blocks with zero
probabilities, duplicate completions across blocks, completions equal to a
certain row, bases missing one, several or all attributes — and random
predicate ASTs and projections, the two must agree on attributes, values,
probability bits, order and event ``repr``.
"""

from functools import lru_cache
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.query import And, Cmp, In, Not, Or, Q, SelectionQuery
from repro.probdb import (
    Distribution,
    ProbabilisticDatabase,
    QueryEngine,
    TupleBlock,
)
from repro.relational import RelTuple, Schema, make_tuple
from repro.relational.tuples import MISSING_CODE

#: Every comparator spelling the AST accepts.
OPS = ("eq", "ne", "lt", "le", "gt", "ge", "==", "=", "!=", "<>", "<", "<=", ">", ">=")
#: Values outside every drawn domain; strings order against the domain.
OUTSIDE = ("", "a", "v", "v9", "zz")
#: Unnormalized weights: exact zeros (point-mass blocks), ties, and values
#: whose sums and products round, so a change of summation or product
#: order shows in the bits.  A fixed menu keeps failures quick to shrink.
WEIGHTS = st.sampled_from(
    [0.0, 0.0, 1.0, 0.5, 0.1, 0.3, 0.7, 1 / 3, 2.5, 1e-6, 0.123456789, 7.0]
)


@st.composite
def databases(draw):
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    schema = Schema.from_domains(
        {f"a{i}": [f"v{j}" for j in range(c)] for i, c in enumerate(cards)}
    )
    width = len(cards)

    def row():
        return [draw(st.integers(0, c - 1)) for c in cards]

    certain = [
        RelTuple(schema, row()) for _ in range(draw(st.integers(0, 4)))
    ]
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        codes = row()
        missing = draw(
            st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)
        )
        for p in missing:
            codes[p] = MISSING_CODE
        base = RelTuple(schema, codes)
        space = list(product(*(schema[p].domain for p in base.missing_positions)))
        outcomes = draw(st.permutations(space))[: draw(st.integers(1, len(space)))]
        weights = draw(st.lists(WEIGHTS, min_size=len(outcomes), max_size=len(outcomes)))
        if sum(weights) <= 0:
            weights[draw(st.integers(0, len(weights) - 1))] = 1.0
        blocks.append(TupleBlock(base, Distribution(outcomes, weights)))
    return ProbabilisticDatabase(schema, certain, blocks)


@lru_cache(maxsize=None)
def selections(width):
    """Selection specs over ``a0 .. a{width-1}``, built once per width."""
    names = st.sampled_from([f"a{i}" for i in range(width)])
    # Every drawn domain is a prefix of v0, v1, v2; the rest are outside.
    strings = st.sampled_from(("v0", "v1", "v2") + OUTSIDE)
    # Ints never order against string domains, but compare equal or not.
    anything = st.one_of(strings, st.integers(0, 2))
    leaves = st.one_of(
        st.builds(Cmp, names, st.sampled_from(OPS), strings),
        st.builds(Cmp, names, st.sampled_from(("eq", "ne", "==", "!=")), anything),
        st.builds(In, names, st.lists(anything, max_size=3).map(tuple)),
    )

    def connectives(children):
        kids = st.lists(children, max_size=3).map(tuple)
        return st.one_of(st.builds(And, kids), st.builds(Or, kids), st.builds(Not, children))

    return st.builds(
        SelectionQuery,
        where=st.none() | st.recursive(leaves, connectives, max_leaves=6),
        project=st.none() | st.lists(names, max_size=3),
    )


@st.composite
def cases(draw):
    db = draw(databases())
    return db, draw(selections(len(db.schema)))


def _fingerprint(results):
    return [
        (r.attributes, r.values, r.probability.hex(), repr(r.event))
        for r in results
    ]


@settings(deadline=None, max_examples=300)
@given(cases())
def test_columnar_selection_equals_lineage(case):
    db, spec = case
    pred = (lambda row: True) if spec.where is None else spec.where.compile()
    columnar = spec.run(QueryEngine(db))
    lineage = QueryEngine(db).selection_query(pred, project_to=spec.project)
    assert _fingerprint(columnar) == _fingerprint(lineage)


def _merged_row(blocks, where):
    """The one row ``where`` and a projection onto ``a`` leave, both paths."""
    schema = blocks[0].base.schema
    db = ProbabilisticDatabase(schema, (), blocks)
    lineage = QueryEngine(db).selection_query(where.compile(), project_to=("a",))
    columnar = SelectionQuery(where=where, project=("a",)).run(QueryEngine(db))
    assert _fingerprint(columnar) == _fingerprint(lineage)
    (row,) = lineage
    return row


def test_projection_sums_block_mass_in_outcome_order():
    # Seven outcomes of one block merge into one row.  Their mass is summed
    # in outcome order with the builtin ``sum`` (compensated from Python
    # 3.12 on); under a plain float loop, summing backwards moves the last
    # bit.
    schema = Schema.from_domains(
        {"a": ["x"], "b": ["b0", "b1", "b2", "b3"], "c": ["c0", "c1"]}
    )
    outcomes = [(b, c) for b in schema["b"].domain for c in schema["c"].domain]
    dist = Distribution(outcomes, np.random.default_rng(3).random(8))
    block = TupleBlock(make_tuple(schema, {"a": "x"}), dist)
    row = _merged_row([block], Q.not_(Q.and_(Q.eq("b", "b0"), Q.eq("c", "c0"))))
    covered = sum(float(p) for o, p in dist if o != ("b0", "c0"))
    assert row.probability.hex() == (1.0 - max(1.0 - covered, 0.0)).hex()


def test_projection_multiplies_blocks_in_block_order():
    # One atom from each of three blocks merges into one row; multiplying
    # the blocks backwards moves the last bit.
    schema = Schema.from_domains({"a": ["x"], "b": ["b0", "b1", "b2"]})
    rng = np.random.default_rng(2)
    outcomes = [(v,) for v in schema["b"].domain]
    base = make_tuple(schema, {"a": "x"})
    blocks = [TupleBlock(base, Distribution(outcomes, rng.random(3))) for _ in range(3)]
    row = _merged_row(blocks, Q.eq("b", "b0"))
    assert row.probability.hex() == "0x1.08ebc62e89013p-1"
