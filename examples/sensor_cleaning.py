"""Scientific-data cleaning: bucketed continuous sensors with dropouts.

The paper's introduction cites noisy/missing experimental results in
scientific data management.  This example simulates a sensor deployment
whose continuous readings are bucketed into discrete sub-ranges (Section
II's prescription for continuous attributes), with correlated channels and
random dropouts, then derives a probabilistic database and imputes the most
probable world.

Run:  python examples/sensor_cleaning.py
"""

import numpy as np

from repro.api.config import DeriveConfig
from repro.bench import print_table
from repro.core import derive_probabilistic_database
from repro.relational import (
    MISSING,
    Attribute,
    Relation,
    Schema,
    equal_width_buckets,
)


def simulate_readings(n: int, rng: np.random.Generator):
    """Correlated (temperature, humidity, light, occupancy) readings."""
    temperature = rng.normal(22.0, 4.0, size=n)
    # Humidity anti-correlates with temperature; light correlates.
    humidity = 70.0 - 1.8 * (temperature - 22.0) + rng.normal(0, 4.0, size=n)
    light = 300.0 + 40.0 * (temperature - 22.0) + rng.normal(0, 60.0, size=n)
    occupancy = (light + rng.normal(0, 80.0, size=n) > 320.0).astype(int)
    return temperature, humidity, light, occupancy


def main() -> None:
    rng = np.random.default_rng(3)
    n = 12_000
    temperature, humidity, light, occupancy = simulate_readings(n, rng)

    # Discretize the continuous channels into sub-range buckets.
    t_buckets = equal_width_buckets("temperature", temperature, 4)
    h_buckets = equal_width_buckets("humidity", humidity, 4)
    l_buckets = equal_width_buckets("light", light, 4)
    schema = Schema(
        [
            t_buckets.to_attribute(),
            h_buckets.to_attribute(),
            l_buckets.to_attribute(),
            Attribute("occupancy", ["empty", "occupied"]),
        ]
    )
    values = list(
        zip(
            t_buckets.discretize_many(temperature),
            h_buckets.discretize_many(humidity),
            l_buckets.discretize_many(light),
            ["occupied" if o else "empty" for o in occupancy],
        )
    )

    # Drop 12% of the values in the last 1500 rows (sensor outages); the
    # first rows stay complete and train the model.
    rows = [list(row) for row in values]
    truth = {}
    for i in range(n - 1500, n):
        for col in range(4):
            if rng.random() < 0.12:
                truth[(i, col)] = rows[i][col]
                rows[i][col] = MISSING
    relation = Relation.from_rows(schema, rows)
    print(f"Input: {relation}")
    print(f"Dropped readings: {len(truth)}")

    result = derive_probabilistic_database(
        relation,
        config=DeriveConfig(support_threshold=0.005, num_samples=800, burn_in=100),
        rng=4,
    )
    print(f"Model: {result.model}")

    # Impute with the most probable world and measure recovery accuracy.
    recovered = 0
    per_attr_hits = {name: [0, 0] for name in schema.names}
    imputed_by_base = {
        b.base: b.most_probable_completion() for b in result.database.blocks
    }
    incomplete_rows = [
        (i, relation[i]) for i in range(n) if not relation[i].is_complete
    ]
    for i, t in incomplete_rows:
        imputed = imputed_by_base[t]
        for col in t.missing_positions:
            name = schema[col].name
            per_attr_hits[name][1] += 1
            if imputed.values()[col] == truth[(i, col)]:
                per_attr_hits[name][0] += 1
                recovered += 1

    print_table(
        ["attribute", "recovered", "dropped", "accuracy"],
        [
            (name, hits, total, f"{hits / total:.0%}" if total else "-")
            for name, (hits, total) in per_attr_hits.items()
        ],
        title="Most-probable-world imputation accuracy",
    )
    print(
        f"\nOverall: {recovered}/{len(truth)} "
        f"({recovered / len(truth):.0%}) of dropped readings recovered "
        "exactly (bucket-level)."
    )


if __name__ == "__main__":
    main()
