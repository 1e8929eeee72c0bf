"""Figs 1-3 and 7: the paper's illustrative figures, regenerated.

These figures are worked examples rather than measurements; regenerating
them checks the pipeline reproduces the paper's narrative objects:

* Fig. 1 — the incomplete matchmaking relation and a derived ``Δt12`` block;
* Fig. 2 — the MRSL for ``age`` (we print the mined lattice);
* Fig. 3 — the tuple DAG over a subset of Fig. 1's incomplete tuples;
* Fig. 7 — the topology schematics of the catalog networks.
"""

from repro.api.config import DeriveConfig
from repro.bayesnet.catalog import get_spec
from repro.core import TupleDAG, derive_probabilistic_database, learn_mrsl
from repro.relational import Relation, Schema, make_tuple

SCHEMA = Schema.from_domains(
    {
        "age": ["20", "30", "40"],
        "edu": ["HS", "BS", "MS"],
        "inc": ["50K", "100K"],
        "nw": ["100K", "500K"],
    }
)
ROWS = [
    ["20", "HS", "?", "?"], ["20", "BS", "50K", "100K"],
    ["20", "?", "50K", "?"], ["20", "HS", "100K", "500K"],
    ["20", "?", "?", "?"], ["20", "HS", "50K", "100K"],
    ["20", "HS", "50K", "500K"], ["?", "HS", "?", "?"],
    ["30", "BS", "100K", "100K"], ["30", "?", "100K", "?"],
    ["30", "HS", "?", "?"], ["30", "MS", "?", "?"],
    ["40", "BS", "100K", "100K"], ["40", "HS", "?", "?"],
    ["40", "BS", "50K", "500K"], ["40", "HS", "?", "500K"],
    ["40", "HS", "100K", "500K"],
]


def test_fig1_derived_block(benchmark, report):
    relation = Relation.from_rows(SCHEMA, ROWS)

    def run():
        return derive_probabilistic_database(
            relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=2000, burn_in=200),
            rng=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    t12 = next(
        b for b in result.database.blocks
        if b.base.value("age") == "30" and b.base.value("edu") == "MS"
    )
    rows = [
        (f"t12.{i + 1}",) + tuple(completed.values()) + (round(p, 2),)
        for i, (completed, p) in enumerate(t12.completions())
    ]
    report(
        "fig1_block_t12",
        ["id", "age", "edu", "inc", "nw", "prob"],
        rows,
        title="Fig 1 call-out: derived block for t12 <30, MS, ?, ?>",
    )
    assert len(rows) == 4
    assert sum(r[-1] for r in rows) == 1.0


def test_fig2_mrsl_for_age(benchmark, report):
    relation = Relation.from_rows(SCHEMA, ROWS)
    result = benchmark.pedantic(
        lambda: learn_mrsl(relation, support_threshold=0.1),
        rounds=1, iterations=1,
    )
    lattice = result.model["age"]
    rows = [
        (m.body_size, round(m.weight, 2), m.describe(SCHEMA))
        for m in sorted(lattice, key=lambda m: (m.body_size, m.body))
    ]
    report(
        "fig2_mrsl_age",
        ["level", "W", "meta-rule"],
        rows,
        title="Fig 2: the mined MRSL for attribute 'age'",
    )
    # The lattice has the Fig. 2 shape: a root P(age) with weight 1 and
    # deeper refinements below it.
    assert rows[0] == (0, 1.0, "P(age)")
    assert lattice.max_body_size >= 2


def test_fig3_tuple_dag(benchmark, report):
    tuples = {
        "t1": make_tuple(SCHEMA, {"age": "20", "edu": "HS"}),
        "t3": make_tuple(SCHEMA, {"age": "20", "inc": "50K"}),
        "t5": make_tuple(SCHEMA, {"age": "20"}),
        "t8": make_tuple(SCHEMA, {"edu": "HS"}),
        "t11": make_tuple(SCHEMA, {"age": "30", "edu": "HS"}),
        "t12": make_tuple(SCHEMA, {"age": "30", "edu": "MS"}),
    }
    dag = benchmark.pedantic(
        lambda: TupleDAG(list(tuples.values())), rounds=1, iterations=1
    )
    names = {t: n for n, t in tuples.items()}
    rows = []
    for node in dag.nodes:
        children = sorted(names[c.tuple] for c in node.children)
        rows.append(
            (
                names[node.tuple],
                "root" if not node.parents else "",
                ", ".join(children) or "-",
            )
        )
    report(
        "fig3_tuple_dag",
        ["tuple", "role", "subsumees"],
        rows,
        title="Fig 3: the tuple DAG over {t1, t3, t5, t8, t11, t12}",
    )
    # Fig. 3's two-level DAG: t5 and t8 are the shared roots and t1 sits
    # under both.  t12 <30, MS, ?, ?> disagrees with t8 on edu, so by
    # Def. 2.4 nothing subsumes it — it is its own root.
    roots = {names[n.tuple] for n in dag.roots()}
    assert roots == {"t5", "t8", "t12"}
    t1_parents = {
        names[p.tuple] for p in dag.node(tuples["t1"]).parents
    }
    assert t1_parents == {"t5", "t8"}


def test_fig7_topologies(benchmark, report):
    networks = ["BN8", "BN9", "BN13", "BN14", "BN17", "BN18", "BN19", "BN20"]

    def run():
        rows = []
        for name in networks:
            spec = get_spec(name)
            topo = spec.topology()
            rows.append(
                (
                    name,
                    spec.family,
                    max(spec.cardinalities),
                    topo.depth(),
                    " ".join(f"{p}->{c}" for p, c in topo.edges[:6])
                    + (" ..." if len(topo.edges) > 6 else ""),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "fig7_topologies",
        ["network", "family", "card", "depth", "edges (prefix)"],
        rows,
        title="Fig 7: reconstructed topology schematics",
    )
    families = {name: family for name, family, _, _, _ in rows}
    assert families["BN8"] == "crown"
    assert families["BN13"] == "line"
