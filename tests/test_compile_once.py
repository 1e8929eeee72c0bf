"""One compile per model.

A model owns its compiled lattices (``MRSLModel.compiled``): the first
derive over a model compiles each attribute's lattice once, and every later
derive, engine, plan and compiled-metadata handshake over the same model
reads them, so a second derive compiles nothing and a second process
handshake hashes nothing.  CPD memos stay per engine: a plain derive still
computes its signature groups cold.  A pool worker that rebuilds the model
from JSON compiles its own copy.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core import compiled as compiled_module
from repro.core.compiled import CompiledMRSL
from repro.core.derive import derive_probabilistic_database
from repro.core.learning import learn_mrsl
from repro.core.persistence import compiled_metadata, model_to_dict
from repro.datasets.census import load_census
from repro.exec import work
from repro.exec.work import ShardKnobs


def _config(**overrides):
    base = dict(num_samples=30, burn_in=3, seed=13, executor="serial", workers=1)
    base.update(overrides)
    return DeriveConfig(**base)


@pytest.fixture(scope="module")
def relation():
    rng = np.random.default_rng(31)
    train, _ = load_census(400, rng)
    test, _ = load_census(200, rng)
    return train, mask_relation(test, (1, 2), rng)


@pytest.fixture()
def model(relation):
    """A model learned for the test alone, so none of its lattices is
    compiled yet."""
    train, _ = relation
    return learn_mrsl(train, support_threshold=0.02).model


@pytest.fixture()
def counters(monkeypatch):
    """Count lattice compiles (by head attribute) and lattice hashes in
    this process."""
    built, hashed = [], []
    init = CompiledMRSL.__init__

    def counting_init(self, mrsl, *args, **kwargs):
        built.append(mrsl.head_attribute)
        init(self, mrsl, *args, **kwargs)

    def counting_sha256(*args):
        hashed.append(1)
        return hashlib.sha256(*args)

    monkeypatch.setattr(CompiledMRSL, "__init__", counting_init)
    monkeypatch.setattr(
        compiled_module, "hashlib", SimpleNamespace(sha256=counting_sha256)
    )
    return SimpleNamespace(built=built, hashed=hashed)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_second_plain_derive_compiles_nothing(
    relation, model, counters, executor
):
    _, masked = relation
    config = _config(executor=executor, workers=2)
    first = derive_probabilistic_database(masked, config=config, model=model)
    assert sorted(counters.built) == list(range(len(model.schema)))
    del counters.built[:]
    second = derive_probabilistic_database(masked, config=config, model=model)
    assert counters.built == []
    assert first.engine is not second.engine
    assert first.engine.compiled is second.engine.compiled is model.compiled
    # The memos are the engine's own: the second derive computes every
    # signature group again (in the parent only when it runs the shards).
    assert second.engine.groups_computed == first.engine.groups_computed
    assert (first.engine.groups_computed > 0) == (executor == "serial")
    for a, b in zip(first.database.blocks, second.database.blocks, strict=True):
        assert a.base == b.base
        assert a.distribution.outcomes == b.distribution.outcomes
        assert a.distribution.probs.tobytes() == b.distribution.probs.tobytes()


def test_a_second_process_handshake_hashes_nothing(relation, model, counters):
    _, masked = relation
    config = _config(executor="process", workers=2)
    derive_probabilistic_database(masked, config=config, model=model)
    assert len(counters.hashed) == len(model.schema)
    del counters.hashed[:]
    derive_probabilistic_database(masked, config=config, model=model)
    assert counters.hashed == []


def test_a_json_worker_compiles_its_rebuilt_model(model, counters, monkeypatch):
    """A forkserver/spawn worker's initializer rebuilds the model from its
    JSON and compiles that copy, once per lattice."""
    metadata = compiled_metadata(model)
    del counters.built[:]
    monkeypatch.setattr(work, "_WORKER_STATE", None)
    work._process_worker_init(
        model_to_dict(model), ShardKnobs.from_config(_config()), metadata
    )
    rebuilt = work._WORKER_STATE["model"]
    assert rebuilt is not model
    assert sorted(counters.built) == list(range(len(model.schema)))
    assert work._WORKER_STATE["engine"].compiled is rebuilt.compiled
