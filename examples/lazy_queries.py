"""Lazy, query-targeted derivation (the paper's future-work Section VIII).

Eager derivation pays Gibbs-sampling cost for *every* incomplete tuple up
front.  The lazy deriver materializes a tuple's distribution only when a
query actually needs it — and skips inference entirely when a tuple's known
values already decide the predicate.  This demonstrates the "partial
materialization of probability values" and "lazy, query-targeted learning
and inference" directions the paper proposes.

Run:  python examples/lazy_queries.py
"""

import time

import numpy as np

from repro.api.config import DeriveConfig
from repro.bayesnet import forward_sample_relation, make_network
from repro.bench import mask_relation, print_table
from repro.core import LazyDeriver, derive_probabilistic_database
from repro.relational import Relation


def main() -> None:
    rng = np.random.default_rng(1)
    net = make_network("BN9", rng)
    data = forward_sample_relation(net, 6000, rng)
    train, test = data.split(0.9, rng)
    test = Relation.from_codes(test.schema, test.codes[:400])
    masked = mask_relation(test, [1, 2, 3], rng)
    combined = Relation(train.schema, list(train) + list(masked))
    print(f"Input: {combined}")

    # A selective query: x0 is KNOWN for most tuples, so the predicate is
    # decided without inference for the bulk of the workload.
    def predicate(t):
        return t.value("x0") == "v1" and t.value("x1") == "v1"

    t0 = time.perf_counter()
    lazy = LazyDeriver(
        combined,
        config=DeriveConfig(support_threshold=0.005, num_samples=500, burn_in=100),
        rng=2,
    )
    learn_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    lazy_count = lazy.expected_count(predicate)
    lazy_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    eager = derive_probabilistic_database(
        combined,
        config=DeriveConfig(support_threshold=0.005, num_samples=500, burn_in=100),
        rng=2,
    )
    from repro.probdb import expected_count

    eager_count = expected_count(eager.database, predicate)
    eager_time = time.perf_counter() - t0

    print_table(
        ["approach", "answer", "blocks materialized", "time"],
        [
            (
                "lazy (query-targeted)",
                round(lazy_count, 2),
                f"{lazy.materialized} / {combined.num_incomplete}",
                f"{learn_time + lazy_time:.2f}s",
            ),
            (
                "eager (derive everything)",
                round(eager_count, 2),
                f"{len(eager.database.blocks)} / {combined.num_incomplete}",
                f"{eager_time:.2f}s",
            ),
        ],
        title="Expected count of x0=v1 ^ x1=v1",
    )
    print(
        "\nThe lazy deriver only sampled tuples whose missing values could "
        "flip the predicate;\nanswers agree up to Gibbs sampling noise."
    )


if __name__ == "__main__":
    main()
