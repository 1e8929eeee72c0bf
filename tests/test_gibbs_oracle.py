"""The Gibbs kernels against the exact stationary distribution.

For a tuple whose missing attributes span a small product space, the
systematic-scan Gibbs chain over the MRSL conditionals is a finite Markov
chain: one sweep resamples every missing attribute in ascending position
order from :meth:`~repro.core.gibbs.GibbsSampler.conditional_probs`.  The
conditionals are strictly positive, so the chain has exactly one
stationary distribution ``pi``, even where the conditionals are mutually
incompatible and no joint distribution has them as its conditionals.

These tests enumerate the state space (at most 10^3 states), build each
attribute's transition matrix from the naive engine's conditionals,
compose them in scan order, solve ``pi P = pi`` with numpy, and check that
every kernel samples ``pi`` — not merely that two kernels agree:

* the scalar :class:`~repro.core.gibbs.GibbsChain`;
* :func:`~repro.core.tuple_dag.ensemble_sampling` over several segments,
  with one and with four chains per tuple, on fused rank steps (the
  compiled loop and the NumPy steps) and with every rank step forced
  through the engine;
* :func:`~repro.core.tuple_dag.workload_sampling`'s tuple-DAG sharing on
  subsuming tuples, whose child block is an exact mixture (below);
* the multi-missing blocks of :func:`derive_probabilistic_database`.

The bound is sample-size aware.  The exact asymptotic variance of each
outcome's empirical frequency follows from the chain's fundamental matrix
``Z = (I - P + 1 pi)^-1``; the tolerance is :data:`Z_SCORE` standard
deviations per outcome, halved and summed like the total-variation
distance itself, plus the worst-case bias left after burn-in and the mass
``samples_to_distribution``'s smoothing floor adds to unseen outcomes.
Every kernel is seeded, so every check is deterministic.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core import (
    BatchInferenceEngine,
    GibbsSampler,
    derive_probabilistic_database,
    ensemble_sampling,
    learn_mrsl,
    native,
    workload_sampling,
)
from repro.datasets.census import load_census
from repro.probdb.distribution import DEFAULT_SMOOTHING_FLOOR
from repro.relational import Relation, make_tuple

#: Standard deviations per outcome the empirical frequency may stray.
Z_SCORE = 3.0

#: Largest product space the oracle enumerates.
MAX_STATES = 1000

NUM_SAMPLES = 4000
BURN_IN = 100


@dataclass
class ExactChain:
    """One tuple's systematic-scan Gibbs chain, solved exactly."""

    #: ``(K, m)`` codes of the missing attributes, in row-major product
    #: order — the outcome order of ``samples_to_distribution``
    states: np.ndarray
    #: the one-sweep transition matrix
    P: np.ndarray
    #: its stationary distribution
    pi: np.ndarray
    #: the block outcome (a tuple of values) of every state
    outcomes: list

    def variance(self, indicators: np.ndarray) -> np.ndarray:
        """Asymptotic variance of each column's empirical frequency.

        ``indicators`` is a ``(K, J)`` 0/1 matrix of state sets.  For
        centred ``f``, ``n * Var(mean of f over n steps)`` tends to
        ``2 <f, Z f>_pi - <f, f>_pi``, for reversible and non-reversible
        chains alike.
        """
        K = self.pi.size
        centred = indicators - self.pi @ indicators
        Z = np.linalg.inv(np.eye(K) - self.P + self.pi[None, :])
        weighted = self.pi[:, None] * centred
        return np.maximum(
            2 * (weighted * (Z @ centred)).sum(axis=0)
            - (weighted * centred).sum(axis=0),
            0.0,
        )

    def burn_in_bias(self, burn_in: int) -> float:
        """Worst total-variation distance to ``pi`` after ``burn_in``
        sweeps, over every starting state."""
        after = np.linalg.matrix_power(self.P, burn_in)
        return float(0.5 * np.abs(after - self.pi).sum(axis=1).max())

    def tolerance(self, num_samples: int, burn_in: int) -> float:
        """The total-variation bound for a ``num_samples`` block."""
        sd = np.sqrt(self.variance(np.eye(self.pi.size)) / num_samples)
        return (
            Z_SCORE * 0.5 * sd.sum()
            + self.burn_in_bias(burn_in)
            + self.pi.size * DEFAULT_SMOOTHING_FLOOR
        )


def exact_chain(model, base) -> ExactChain:
    """Enumerate ``base``'s missing product space and solve its chain."""
    schema = model.schema
    missing = base.missing_positions
    cards = [schema[attr].cardinality for attr in missing]
    states = np.array(list(product(*(range(c) for c in cards))), dtype=np.int32)
    K = len(states)
    assert K <= MAX_STATES
    strides = np.array([int(np.prod(cards[j + 1 :])) for j in range(len(cards))])
    sampler = GibbsSampler(model, engine="naive")
    P = np.eye(K)
    for j, attr in enumerate(missing):  # the scan order: ascending position
        step = np.zeros((K, K))
        for s, state in enumerate(states):
            codes = base.codes.copy()
            codes[list(missing)] = state
            probs = sampler.conditional_probs(codes, attr)
            # Resampling attr moves state s to the state differing only at j.
            targets = s + (np.arange(cards[j]) - state[j]) * strides[j]
            step[s, targets] = probs
        P = P @ step
    system = np.vstack([P.T - np.eye(K), np.ones(K)])
    rhs = np.zeros(K + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    assert np.allclose(pi @ P, pi, atol=1e-12) and (pi > 0).all()
    domains = [schema[attr].domain for attr in missing]
    outcomes = [tuple(d[c] for d, c in zip(domains, row)) for row in states]
    return ExactChain(states=states, P=P, pi=pi, outcomes=outcomes)


def tv_to(block, target: np.ndarray, outcomes: list) -> float:
    """Total-variation distance between a block and a target vector."""
    dist = block.distribution
    got = np.array([dist[o] for o in outcomes])
    assert got.sum() == pytest.approx(1.0)
    return float(0.5 * np.abs(got - target).sum())


def assert_samples_pi(block, chain: ExactChain, num_samples=NUM_SAMPLES):
    tv = tv_to(block, chain.pi, chain.outcomes)
    bound = chain.tolerance(num_samples, BURN_IN)
    assert tv <= bound, (
        f"{block.base!r}: TV {tv:.4f} to the exact stationary distribution "
        f"exceeds {bound:.4f}"
    )


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="module")
def census_model():
    rng = np.random.default_rng(2011)
    train, _ = load_census(2500, rng)
    return learn_mrsl(train, support_threshold=0.005).model


@pytest.fixture(scope="module")
def workload(census_model):
    """Tuples missing 2, 3, 4 and all 5 attributes (9 to 324 states)."""
    schema = census_model.schema
    return [
        make_tuple(schema, {"age": "26-40", "education": "BS", "sector": "tech"}),
        make_tuple(schema, {"age": "61+", "income": "high", "wealth": "low"}),
        make_tuple(schema, {"education": "MS+", "wealth": "mid"}),
        make_tuple(schema, {"sector": "public", "income": "low"}),
        make_tuple(schema, {"age": "18-25"}),
        make_tuple(schema, {}),
    ]


@pytest.fixture(scope="module")
def chains(census_model, workload):
    return {t: exact_chain(census_model, t) for t in workload}


# -- the oracle itself ----------------------------------------------------------


def test_oracle_matches_a_hand_composed_two_attribute_chain(census_model):
    """Two missing binary-or-wider attributes: P is P_a @ P_b, entry by
    entry, and pi is its left fixed point."""
    t = make_tuple(
        census_model.schema,
        {"age": "41-60", "education": "HS", "sector": "service"},
    )
    chain = exact_chain(census_model, t)
    sampler = GibbsSampler(census_model, engine="naive")
    a, b = t.missing_positions
    P = np.zeros((9, 9))
    for x, y in product(range(3), repeat=2):
        for x2, y2 in product(range(3), repeat=2):
            codes = t.codes.copy()
            codes[[a, b]] = (x, y)
            pa = sampler.conditional_probs(codes, a)[x2]
            codes[a] = x2
            pb = sampler.conditional_probs(codes, b)[y2]
            P[3 * x + y, 3 * x2 + y2] = pa * pb
    assert np.allclose(chain.P, P, atol=1e-15)
    assert np.allclose(chain.pi @ P, chain.pi, atol=1e-12)


# -- the kernels ----------------------------------------------------------------


def test_scalar_chain_samples_the_stationary_distribution(
    census_model, workload, chains
):
    sampler = GibbsSampler(census_model, rng=31)
    for t in workload:
        block = sampler.estimate(t, num_samples=NUM_SAMPLES, burn_in=BURN_IN)
        assert_samples_pi(block, chains[t])


@pytest.mark.parametrize(
    "num_chains, engine_route, compiled",
    [
        pytest.param(1, False, True, id="1"),
        pytest.param(4, False, True, id="4"),
        pytest.param(1, False, False, id="1-numpy"),
        pytest.param(4, False, False, id="4-numpy"),
        pytest.param(1, True, True, id="1-engine-route"),
        pytest.param(4, True, True, id="4-engine-route"),
    ],
)
def test_ensemble_samples_the_stationary_distribution(
    census_model, workload, chains, num_chains, engine_route, compiled, monkeypatch
):
    """Fused rank steps in the compiled loop (where it loads) and in NumPy,
    and (with no live memo to fuse over) every rank step through the
    engine."""
    monkeypatch.setattr(native, "ENABLED", compiled)
    engine = BatchInferenceEngine(census_model)
    if engine_route:
        engine.live_memo = lambda attr, choice, scheme: None
    segments = [(workload[:2], 101), (workload[2:5], 202), (workload[5:], 303)]
    blocks, _ = ensemble_sampling(
        census_model,
        segments,
        num_samples=NUM_SAMPLES,
        burn_in=BURN_IN,
        chains=num_chains,
        batch_engine=engine,
    )
    assert [b.base for b in blocks] == workload
    for block in blocks:
        assert_samples_pi(block, chains[block.base])


def test_tuple_dag_sharing_samples_the_exact_mixture(census_model):
    """A child inherits the parent's samples that agree with its known
    values, then samples the shortfall on its own promoted chain.  With
    ``m`` of ``n`` samples inherited, its block estimates the mixture
    ``(m/n) pi_parent(. | child's knowns) + (1 - m/n) pi_child``: in
    expectation ``pi_parent(match_j) + (1 - w) pi_child(j)``, where
    ``match_j`` are the parent states agreeing with the child and giving
    it outcome ``j``, and ``w = pi_parent(match)``.

    The bound adds the three deviations: the inherited counts (parent
    chain), the inherited total ``m`` that sets the mixture weight, and the
    child's own samples.
    """
    schema = census_model.schema
    parent = make_tuple(schema, {"age": "26-40", "wealth": "mid"})
    child = make_tuple(
        schema, {"age": "26-40", "sector": "tech", "wealth": "mid"}
    )
    blocks, stats = workload_sampling(
        census_model,
        [parent, child],
        num_samples=NUM_SAMPLES,
        burn_in=BURN_IN,
        strategy="tuple_dag",
        rng=47,
    )
    assert stats.shared_tuples == 1 and stats.promoted_tuples == 1
    exact_parent = exact_chain(census_model, parent)
    exact_child = exact_chain(census_model, child)
    assert_samples_pi(blocks[0], exact_parent)

    # Parent states agreeing with the child, by the child outcome they give.
    p_missing = parent.missing_positions
    known = [
        (i, int(child.codes[pos]))
        for i, pos in enumerate(p_missing)
        if pos not in child.missing_positions
    ]
    keep = [p_missing.index(pos) for pos in child.missing_positions]
    index = {tuple(row): j for j, row in enumerate(exact_child.states.tolist())}
    match = np.zeros((exact_parent.pi.size, exact_child.pi.size))
    for s, row in enumerate(exact_parent.states.tolist()):
        if all(row[i] == code for i, code in known):
            match[s, index[tuple(row[i] for i in keep)]] = 1.0
    inherited = exact_parent.pi @ match
    w = inherited.sum()
    assert 0.05 < w < 0.95  # both halves of the mixture are exercised
    target = inherited + (1 - w) * exact_child.pi

    n = NUM_SAMPLES
    sd_inherited = np.sqrt(exact_parent.variance(match) / n)
    sd_weight = np.sqrt(exact_parent.variance(match.sum(axis=1, keepdims=True)) / n)
    sd_own = np.sqrt(exact_child.variance(np.eye(exact_child.pi.size)) * (1 - w) / n)
    bound = (
        Z_SCORE * 0.5 * (sd_inherited.sum() + sd_weight.sum() + sd_own.sum())
        + exact_parent.burn_in_bias(BURN_IN)
        + exact_child.burn_in_bias(BURN_IN)
        + exact_child.pi.size * DEFAULT_SMOOTHING_FLOOR
    )
    tv = tv_to(blocks[1], target, exact_child.outcomes)
    assert tv <= bound, f"TV {tv:.4f} to the exact mixture exceeds {bound:.4f}"


def test_derived_multi_blocks_sample_the_stationary_distribution():
    """The pipeline's multi-missing blocks, through plan, shards and
    assembly, under the model the derive learned."""
    rng = np.random.default_rng(5)
    train, _ = load_census(2500, rng)
    rows, _ = load_census(12, rng)
    masked = list(mask_relation(rows, (2, 3), rng))
    relation = Relation(train.schema, list(train) + masked)
    result = derive_probabilistic_database(
        relation,
        config=DeriveConfig(
            support_threshold=0.005,
            num_samples=NUM_SAMPLES,
            burn_in=BURN_IN,
            gibbs_chains=4,
            seed=9,
        ),
    )
    blocks = [b for b in result.database.blocks if b.base.num_missing > 1]
    assert len(blocks) == len(masked)
    for block in {b.base: b for b in blocks}.values():
        assert_samples_pi(block, exact_chain(result.model, block.base))
