"""repro: a reproduction of "Deriving Probabilistic Databases with Inference
Ensembles" (Stoyanovich, Davidson, Milo, Tannen — ICDE 2011).

The library learns Meta-Rule Semi-Lattices (MRSL) from the complete portion
of an incomplete relation and uses them — via ensemble voting and ordered
Gibbs sampling — to derive a disjoint-independent probabilistic database
over the missing values.

Quickstart::

    from repro import DeriveConfig, Schema, Relation, derive_probabilistic_database

    schema = Schema.from_domains({
        "age": ["20", "30", "40"],
        "edu": ["HS", "BS", "MS"],
        "inc": ["50K", "100K"],
        "nw": ["100K", "500K"],
    })
    rel = Relation.from_rows(schema, rows)   # rows may contain "?"
    result = derive_probabilistic_database(
        rel, config=DeriveConfig(support_threshold=0.05)
    )
    for block in result.database.blocks:
        print(block.base, block.distribution)
"""

from .bayesnet import (
    BayesianNetwork,
    forward_sample_relation,
    joint_posterior,
    make_network,
    posterior,
)
from .core import (
    DeriveResult,
    GibbsEnsemble,
    GibbsSampler,
    LazyDeriver,
    LearnResult,
    MRSL,
    MRSLModel,
    MetaRule,
    VoterChoice,
    VotingScheme,
    derive_probabilistic_database,
    ensemble_sampling,
    estimate_joint,
    infer_single,
    learn_mrsl,
    load_model,
    mine_frequent_itemsets,
    save_model,
    workload_sampling,
)

# Imported after .core: repro.api reads its defaults from the core modules.
from .api import (
    DeriveConfig,
    InferenceService,
    Q,
    SelectionQuery,
    SelfJoinQuery,
    Session,
)
from .exec import (
    DerivationCancelled,
    ProcessExecutor,
    SerialExecutor,
    execute_derivation,
    plan_shards,
    stream_derivation,
)
from .jobs import (
    Job,
    JobManager,
    ProgressSnapshot,
    ProgressTracker,
)
from .probdb import (
    Distribution,
    PossibleWorld,
    ProbabilisticDatabase,
    QueryEngine,
    TupleBlock,
    expected_count,
)
from .relational import (
    MISSING,
    Attribute,
    Relation,
    RelTuple,
    Schema,
    make_tuple,
    read_csv,
    write_csv,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational
    "Attribute",
    "Schema",
    "Relation",
    "RelTuple",
    "MISSING",
    "make_tuple",
    "read_csv",
    "write_csv",
    # probdb
    "Distribution",
    "TupleBlock",
    "ProbabilisticDatabase",
    "PossibleWorld",
    "expected_count",
    # core
    "mine_frequent_itemsets",
    "learn_mrsl",
    "LearnResult",
    "MRSL",
    "MRSLModel",
    "MetaRule",
    "VoterChoice",
    "VotingScheme",
    "infer_single",
    "GibbsSampler",
    "GibbsEnsemble",
    "estimate_joint",
    "workload_sampling",
    "ensemble_sampling",
    "derive_probabilistic_database",
    "DeriveResult",
    "LazyDeriver",
    "save_model",
    "load_model",
    "QueryEngine",
    # bayesnet
    "BayesianNetwork",
    "make_network",
    "forward_sample_relation",
    "posterior",
    "joint_posterior",
    # api
    "DeriveConfig",
    "Session",
    "Q",
    "SelectionQuery",
    "SelfJoinQuery",
    "InferenceService",
    # exec
    "SerialExecutor",
    "ProcessExecutor",
    "plan_shards",
    "stream_derivation",
    "execute_derivation",
    "DerivationCancelled",
    # jobs
    "Job",
    "JobManager",
    "ProgressTracker",
    "ProgressSnapshot",
]
