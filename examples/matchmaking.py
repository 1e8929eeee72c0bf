"""Matchmaking-site scenario: accuracy of derived distributions at scale.

The paper's introduction motivates MRSL with an eHarmony-style profile
relation.  Here we build the full loop the evaluation framework uses:

1. define a ground-truth Bayesian network over five profile attributes
   (age -> income -> net worth, education -> income, age -> education);
2. forward-sample 20,000 complete profiles, keep 10% aside as a test set;
3. learn the MRSL model from the training profiles;
4. mask 1-3 attribute values per test profile (uniformly), derive the
   probabilistic database;
5. score the derived distributions against the network's exact posteriors.

Run:  python examples/matchmaking.py
"""

import numpy as np

from repro.api.config import DeriveConfig
from repro.bayesnet import BayesianNetwork, Variable
from repro.bench import (
    aggregate,
    mask_relation,
    print_table,
    random_guess_top1,
    score_prediction,
    true_joint_posterior,
)
from repro.core import derive_probabilistic_database
from repro.relational import Relation


def profile_network() -> BayesianNetwork:
    """A hand-crafted ground truth over matchmaking profile attributes."""
    rng = np.random.default_rng(20110411)  # ICDE 2011's opening day

    def rows(shape, k):
        return rng.dirichlet(np.full(k, 0.4), size=int(np.prod(shape))).reshape(
            tuple(shape) + (k,)
        )

    age = Variable("age", 3, (), rng.dirichlet(np.full(3, 2.0)))
    edu = Variable("edu", 3, ("age",), rows([3], 3))
    inc = Variable("inc", 2, ("age", "edu"), rows([3, 3], 2))
    nw = Variable("nw", 2, ("inc",), rows([2], 2))
    region = Variable("region", 4, (), rng.dirichlet(np.full(4, 1.0)))
    return BayesianNetwork([age, edu, inc, nw, region])


def main() -> None:
    rng = np.random.default_rng(7)
    net = profile_network()
    print(f"Ground truth: {net}")

    from repro.bayesnet import forward_sample_relation

    data = forward_sample_relation(net, 20_000, rng)
    train, test = data.split(0.9, rng)
    test = Relation.from_codes(test.schema, test.codes[:300])
    print(f"Training profiles: {len(train)}, test profiles: {len(test)}")

    # Mask 1-3 attributes per test profile, then merge with the training
    # data so one relation holds both Rc and Ri, as in the paper's input.
    masked = mask_relation(test, [1, 2, 3], rng)
    combined = Relation(train.schema, list(train) + list(masked))

    result = derive_probabilistic_database(
        combined,
        config=DeriveConfig(support_threshold=0.002, num_samples=1500, burn_in=150),
        rng=1,
    )
    print(f"Model: {result.model}")
    print(f"Derived: {result.database}")
    print(
        "Sampling cost: "
        f"{result.sampling_stats.total_draws} draws, "
        f"{result.sampling_stats.shared_tuples} tuples served by the tuple DAG"
    )

    # Score each block against the exact posterior of the generating BN.
    blocks = {b.base: b for b in result.database.blocks}
    scores_by_missing: dict[int, list] = {1: [], 2: [], 3: []}
    guess_floor: dict[int, list] = {1: [], 2: [], 3: []}
    for t in masked:
        true = true_joint_posterior(net, t)
        block = blocks[t]
        scores_by_missing[t.num_missing].append(
            score_prediction(true, block.distribution)
        )
        guess_floor[t.num_missing].append(random_guess_top1(t))

    rows = []
    for k in (1, 2, 3):
        if not scores_by_missing[k]:
            continue
        agg = aggregate(scores_by_missing[k])
        rows.append(
            (
                k,
                agg.count,
                round(agg.mean_kl, 4),
                f"{agg.top1_accuracy:.0%}",
                f"{np.mean(guess_floor[k]):.0%}",
            )
        )
    print_table(
        ["missing attrs", "tuples", "mean KL", "top-1", "random floor"],
        rows,
        title="Derived-distribution accuracy vs exact posterior",
    )


if __name__ == "__main__":
    main()
