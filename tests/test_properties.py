"""Property-based tests (hypothesis) on core invariants.

Each property pins an invariant the paper's correctness rests on:
distribution normalization, KL non-negativity, Apriori downward closure and
support monotonicity, subsumption partial-order laws, smoothing positivity,
and voting outputs being valid CPDs.
"""

import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itemsets import (
    DEFAULT_MAX_ITEMSETS,
    is_subset,
    mine_frequent_itemsets,
)
from repro.core.learning import learn_mrsl
from repro.core.metarule import build_meta_rules, smooth_cpd
from repro.core.mrsl import MRSL, MRSLModel
from repro.core.persistence import model_to_dict
from repro.core.rules import compute_association_rules
from repro.probdb import Distribution, mixture
from repro.relational import Relation, RelTuple, Schema
from repro.relational.tuples import MISSING_CODE, proper_subsumes, subsumes

# -- strategies ---------------------------------------------------------------


@st.composite
def schema_and_codes(draw, min_rows=1, max_rows=40, allow_missing=False, max_card=4):
    """A random schema plus a random code matrix over it."""
    cs = draw(
        st.lists(st.integers(min_value=2, max_value=max_card), min_size=2, max_size=4)
    )
    schema = Schema.from_domains(
        {f"a{i}": [f"v{j}" for j in range(c)] for i, c in enumerate(cs)}
    )
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    rows = []
    for _ in range(n):
        row = []
        for c in cs:
            lo = -1 if allow_missing else 0
            row.append(draw(st.integers(min_value=lo, max_value=c - 1)))
        rows.append(row)
    return schema, np.asarray(rows, dtype=np.int32)


@st.composite
def probability_vectors(draw, max_len=6):
    n = draw(st.integers(min_value=1, max_value=max_len))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(weights)


# -- Distribution invariants ------------------------------------------------------


@given(probability_vectors())
def test_distribution_always_normalized(weights):
    d = Distribution(list(range(len(weights))), weights)
    assert np.isclose(sum(d.probs), 1.0)
    assert all(p >= 0 for p in d.probs)


@given(probability_vectors(), probability_vectors())
def test_kl_nonnegative_and_zero_iff_equal(w1, w2):
    n = min(len(w1), len(w2))
    p = Distribution(list(range(n)), w1[:n]).smoothed()
    q = Distribution(list(range(n)), w2[:n]).smoothed()
    assert p.kl_divergence(q) >= 0.0
    assert p.kl_divergence(p) == pytest.approx(0.0, abs=1e-12)


@given(probability_vectors())
def test_smoothing_preserves_normalization_and_positivity(weights):
    probs = smooth_cpd(weights / weights.sum())
    assert np.isclose(probs.sum(), 1.0)
    assert (probs > 0).all()


@given(st.lists(probability_vectors(max_len=4), min_size=1, max_size=5))
def test_mixture_is_valid_distribution(vectors):
    comps = [
        Distribution(list(range(len(v))), v) for v in vectors
    ]
    m = mixture(comps)
    assert np.isclose(sum(m.probs), 1.0)


@given(probability_vectors(max_len=5))
def test_top1_has_max_probability(weights):
    d = Distribution(list(range(len(weights))), weights)
    assert d[d.top1()] == pytest.approx(max(d.probs))


# -- subsumption partial order -----------------------------------------------------


@given(schema_and_codes(min_rows=2, max_rows=8, allow_missing=True))
def test_subsumption_is_a_partial_order(sc):
    schema, codes = sc
    tuples = [RelTuple(schema, row) for row in codes]
    for a in tuples:
        assert subsumes(a, a)  # reflexive (non-strict)
        assert not proper_subsumes(a, a)  # irreflexive (strict)
    for a in tuples:
        for b in tuples:
            if proper_subsumes(a, b):
                assert not proper_subsumes(b, a)  # antisymmetric
            for c in tuples:
                if proper_subsumes(a, b) and proper_subsumes(b, c):
                    assert proper_subsumes(a, c)  # transitive


@given(schema_and_codes(min_rows=1, max_rows=10, allow_missing=True))
def test_restriction_always_subsumes(sc):
    schema, codes = sc
    for row in codes:
        t = RelTuple(schema, row)
        known = t.complete_positions
        if len(known) < 2:
            continue
        restricted = t.restrict(known[:-1])
        assert subsumes(restricted, t)


# -- Apriori invariants ---------------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(
    schema_and_codes(min_rows=2, max_rows=30),
    st.sampled_from([0.05, 0.1, 0.25, 0.5]),
)
def test_apriori_downward_closure_and_monotonicity(sc, theta):
    schema, codes = sc
    rel = Relation.from_codes(schema, codes)
    fi = mine_frequent_itemsets(rel, threshold=theta)
    for itemset in fi:
        assert fi.support(itemset) >= theta or itemset == ()
        for m in range(len(itemset)):
            subset = itemset[:m] + itemset[m + 1 :]
            assert subset in fi
            assert fi.support(subset) >= fi.support(itemset) - 1e-12


def _brute_force_frequent(schema, codes, threshold, use_incomplete):
    """Every itemset whose matching-row count reaches ``threshold * n``.

    Enumerates all attribute-unique itemsets and counts rows with plain
    comparisons; ``n`` is the full row count with ``use_incomplete``,
    else the complete rows only.
    """
    if not use_incomplete:
        codes = codes[(codes != MISSING_CODE).all(axis=1)]
    n = codes.shape[0]
    frequent = {}
    for size in range(len(schema) + 1):
        for attrs in combinations(range(len(schema)), size):
            cards = [range(schema[a].cardinality) for a in attrs]
            for values in product(*cards):
                itemset = tuple(zip(attrs, values))
                match = np.ones(n, dtype=bool)
                for attr, value in itemset:
                    match &= codes[:, attr] == value
                count = int(match.sum())
                if count >= threshold * n:
                    frequent[itemset] = count / n
    return frequent


def _check_apriori(schema, codes, threshold, use_incomplete, max_itemsets):
    rel = Relation.from_codes(schema, codes)
    fi = mine_frequent_itemsets(
        rel, threshold, max_itemsets=max_itemsets, use_incomplete=use_incomplete
    )
    if fi.num_points == 0:
        assert list(fi) == [()]
        return
    frequent = _brute_force_frequent(schema, codes, threshold, use_incomplete)
    for itemset, support in fi.items():
        assert support == frequent[itemset], itemset
    levels = [len(fi.of_size(k)) for k in range(1, fi.max_size() + 1)]
    if fi.truncated:
        # Mining stopped at the first round that found too many itemsets.
        assert levels[-1] > max_itemsets
        assert all(level <= max_itemsets for level in levels[:-1])
    else:
        assert set(fi) == set(frequent)
        assert all(level <= max_itemsets for level in levels)


@settings(deadline=None, max_examples=40)
@given(
    schema_and_codes(min_rows=1, max_rows=200, allow_missing=True),
    st.sampled_from([0.02, 0.1, 0.2, 0.5]),
    st.booleans(),
    st.sampled_from([1, 3, DEFAULT_MAX_ITEMSETS]),
)
def test_apriori_supports_match_relation_counts(
    sc, threshold, use_incomplete, max_itemsets
):
    """The bitmap miner equals brute-force counting, missing cells included.

    Up to 200 rows span several 64-bit bitmap words and exercise their
    padding bits; a small ``max_itemsets`` forces truncation.
    """
    schema, codes = sc
    _check_apriori(schema, codes, threshold, use_incomplete, max_itemsets)


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])
@pytest.mark.parametrize("use_incomplete", [False, True])
def test_apriori_counts_across_bitmap_word_boundaries(rows, use_incomplete):
    rng = np.random.default_rng(rows)
    cards = [2, 3, 4]
    schema = Schema.from_domains(
        {f"a{i}": [f"v{j}" for j in range(c)] for i, c in enumerate(cards)}
    )
    codes = np.column_stack([rng.integers(-1, c, rows) for c in cards]).astype(np.int32)
    _check_apriori(schema, codes, 0.05, use_incomplete, DEFAULT_MAX_ITEMSETS)


@given(schema_and_codes(min_rows=2, max_rows=20))
def test_is_subset_consistent_with_set_semantics(sc):
    schema, codes = sc
    rel = Relation.from_codes(schema, codes)
    fi = mine_frequent_itemsets(rel, threshold=0.3)
    itemsets = list(fi)
    for a in itemsets[:10]:
        for b in itemsets[:10]:
            assert is_subset(a, b) == set(a).issubset(set(b))


# -- learned model invariants ------------------------------------------------------------


def _reference_model(schema, itemsets, floor) -> MRSLModel:
    """Algorithm 1's per-rule path: one AssociationRule and MetaRule at a time."""
    lattices = []
    for attr, attribute in enumerate(schema):
        rules = compute_association_rules(itemsets, attr)
        meta_rules = build_meta_rules(rules, attr, attribute.cardinality, floor=floor)
        lattices.append(MRSL(attr, meta_rules))
    return MRSLModel(schema, lattices)


@settings(deadline=None, max_examples=60)
@given(
    schema_and_codes(min_rows=1, max_rows=80, allow_missing=True, max_card=10),
    st.sampled_from([0.02, 0.1, 0.3]),
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.3)),
    st.booleans(),
)
def test_stacked_learner_equals_per_rule_reference(sc, threshold, floor, use_incomplete):
    """``learn_mrsl`` builds, bit for bit, what the per-rule functions build.

    Same meta-rules in the same lattice order, same weights and CPDs; when
    the reference rejects a CPD, ``learn_mrsl`` raises the same error.
    Cardinalities reach 10, past the 8 at which numpy's row sums switch to
    pairwise summation.
    """
    schema, codes = sc
    rel = Relation.from_codes(schema, codes)
    kwargs = dict(
        support_threshold=threshold,
        smoothing_floor=floor,
        use_incomplete_evidence=use_incomplete,
    )
    source = rel if use_incomplete else rel.complete_part()
    itemsets = mine_frequent_itemsets(source, threshold, use_incomplete=use_incomplete)
    try:
        reference = _reference_model(schema, itemsets, floor)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            learn_mrsl(rel, **kwargs)
        return
    result = learn_mrsl(rel, **kwargs)
    assert list(result.itemsets.items()) == list(itemsets.items())
    assert model_to_dict(result.model) == model_to_dict(reference)
    for lattice in result.model:
        for m in lattice:
            assert not m.probs.flags.writeable


@settings(deadline=None, max_examples=15)
@given(schema_and_codes(min_rows=5, max_rows=40))
def test_learned_meta_rules_are_valid_cpds(sc):
    schema, codes = sc
    rel = Relation.from_codes(schema, codes)
    result = learn_mrsl(rel, support_threshold=0.15)
    for lattice in result.model:
        for m in lattice:
            assert np.isclose(m.probs.sum(), 1.0)
            assert (m.probs > 0).all()
            assert 0.0 < m.weight <= 1.0
            # Body never assigns the head attribute.
            assert all(attr != lattice.head_attribute for attr, _ in m.body)


@settings(deadline=None, max_examples=15)
@given(schema_and_codes(min_rows=5, max_rows=40))
def test_voting_always_yields_valid_cpd(sc):
    from repro.core import VoterChoice, VotingScheme, infer_single

    schema, codes = sc
    rel = Relation.from_codes(schema, codes)
    model = learn_mrsl(rel, support_threshold=0.15).model
    # Mask the first attribute of the first row.
    masked = codes[0].copy()
    masked[0] = MISSING_CODE
    t = RelTuple(schema, masked)
    for choice in VoterChoice:
        for scheme in VotingScheme:
            cpd = infer_single(t, model[0], choice, scheme)
            assert np.isclose(sum(cpd.probs), 1.0)
            assert len(cpd) == schema[0].cardinality
