"""Unit tests for the typed pipeline configuration (repro.api.config)."""

import dataclasses
import json

import pytest

from repro import derive_probabilistic_database
from repro.api.config import DeriveConfig, resolve_config
from repro.cli import build_parser, config_from_args
from repro.core.engine import DEFAULT_ENGINE
from repro.core.inference import VoterChoice, VotingScheme
from repro.core.itemsets import DEFAULT_MAX_ITEMSETS
from repro.core.lazy import LazyDeriver


class TestDefaults:
    def test_defaults_come_from_the_library_constants(self):
        cfg = DeriveConfig()
        assert cfg.max_itemsets == DEFAULT_MAX_ITEMSETS
        assert cfg.engine == DEFAULT_ENGINE
        assert cfg.v_choice == VoterChoice.BEST.value
        assert cfg.v_scheme == VotingScheme.AVERAGED.value
        assert cfg.burn_in == 100
        assert cfg.seed is None

    def test_frozen(self):
        cfg = DeriveConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.burn_in = 5


class TestValidation:
    def test_enum_normalization(self):
        cfg = DeriveConfig(
            v_choice=VoterChoice.ALL, v_scheme=VotingScheme.WEIGHTED
        )
        assert cfg.v_choice == "all"
        assert cfg.v_scheme == "weighted"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"support_threshold": -0.1},
            {"support_threshold": 1.5},
            {"max_itemsets": 0},
            {"num_samples": 0},
            {"burn_in": -1},
            {"gibbs_chains": 0},
            {"engine": "bogus"},
            {"v_choice": "bogus"},
            {"v_scheme": "bogus"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeriveConfig(**kwargs)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = DeriveConfig()
        assert DeriveConfig.from_dict(cfg.to_dict()) == cfg

    def test_custom_round_trip_through_json(self):
        cfg = DeriveConfig(
            support_threshold=0.05,
            max_itemsets=7,
            v_choice="all",
            v_scheme="log_pool",
            num_samples=123,
            burn_in=9,
            gibbs_chains=3,
            seed=42,
            engine="naive",
        )
        assert DeriveConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = DeriveConfig.from_dict({"burn_in": 17})
        assert cfg.burn_in == 17
        assert cfg.num_samples == DeriveConfig().num_samples

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            DeriveConfig.from_dict({"burnin": 17})


class TestResolveConfig:
    def test_none_gives_defaults(self):
        assert resolve_config(None) == DeriveConfig()

    def test_mapping_accepted(self):
        assert resolve_config({"seed": 3}).seed == 3

    def test_overrides_win_over_config(self):
        base = DeriveConfig(burn_in=50)
        assert resolve_config(base, burn_in=7).burn_in == 7

    def test_none_overrides_ignored(self):
        base = DeriveConfig(burn_in=50)
        assert resolve_config(base, burn_in=None) is base

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            resolve_config(None, bogus=1)

    def test_bad_config_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_config(3.14)


class TestCliDefaultsMatchConfig:
    """Regression for the burn-in drift: CLI defaults == config defaults."""

    #: argparse dest -> DeriveConfig field, for every shared knob.
    SHARED_KNOBS = {
        "support": "support_threshold",
        "max_itemsets": "max_itemsets",
        "voters": "v_choice",
        "voting": "v_scheme",
        "samples": "num_samples",
        "burn_in": "burn_in",
        "seed": "seed",
        "engine": "engine",
        "executor": "executor",
        "workers": "workers",
        "gibbs_chains": "gibbs_chains",
    }

    @pytest.mark.parametrize("dest,field", sorted(SHARED_KNOBS.items()))
    def test_derive_defaults(self, dest, field):
        args = build_parser().parse_args(["derive", "data.csv"])
        assert getattr(args, dest) == getattr(DeriveConfig(), field)

    @pytest.mark.parametrize("dest,field", sorted(SHARED_KNOBS.items()))
    def test_serve_defaults(self, dest, field):
        args = build_parser().parse_args(["serve"])
        assert getattr(args, dest) == getattr(DeriveConfig(), field)

    @pytest.mark.parametrize("command", ["derive", "serve"])
    def test_gibbs_vectorized_flag_is_gone(self, command):
        """Multi-missing tuples have one kernel, so the kernel switch went
        with it: the old flag is an argparse usage error."""
        argv = [command, "data.csv"] if command == "derive" else [command]
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--gibbs-vectorized", "off"])


# -- one carrier: CLI flags generated from the config, no knob keywords ------
#
# The parser is generated from the fields' metadata, so these pin parity
# both ways (no flags is ``DeriveConfig()``; each flag lands a non-default
# value in exactly its field), the spellings scripts outside the package
# rely on, and that the library entry points take no per-knob keywords.

#: flag -> (command-line value, config field, parsed field value)
NON_DEFAULT = {
    "--support": ("0.2", "support_threshold", 0.2),
    "--max-itemsets": ("7", "max_itemsets", 7),
    "--voters": ("all", "v_choice", "all"),
    "--voting": ("weighted", "v_scheme", "weighted"),
    "--samples": ("33", "num_samples", 33),
    "--burn-in": ("4", "burn_in", 4),
    "--seed": ("5", "seed", 5),
    "--engine": ("naive", "engine", "naive"),
    "--executor": ("process", "executor", "process"),
    "--workers": ("3", "workers", 3),
    "--gibbs-chains": ("2", "gibbs_chains", 2),
    "--failure-policy": ("degrade", "failure_policy", "degrade"),
    "--shard-retries": ("0", "shard_retries", 0),
    "--shard-deadline": ("2.5", "shard_deadline", 2.5),
    "--trust": ("hr, crm", "trust", ("hr", "crm")),
    "--policy": ("full", "update_policy", "full"),
}
UPDATE_ONLY = {"--trust", "--policy"}

#: command -> its positional arguments
POSITIONALS = {
    "derive": ["data.csv"],
    "update": ["data.csv", "changes.json"],
    "serve": [],
}


def _config_flags(command):
    """The generated config flags a subcommand's parser accepts."""
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    return {
        option
        for action in sub._actions
        for option in action.option_strings
        if option in NON_DEFAULT
    }


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_no_flags_is_the_default_config(command):
    args = build_parser().parse_args([command, *POSITIONALS[command]])
    assert config_from_args(args) == DeriveConfig()


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_every_pipeline_knob_has_its_flag(command):
    expected = set(NON_DEFAULT)
    if command != "update":
        expected -= UPDATE_ONLY
    assert _config_flags(command) == expected


def test_every_flagged_field_is_covered():
    flagged = {
        f.name for f in dataclasses.fields(DeriveConfig) if "cli" in f.metadata
    }
    assert flagged == {field for _, field, _ in NON_DEFAULT.values()}


@pytest.mark.parametrize(
    "command,flag",
    [
        (command, flag)
        for command in sorted(POSITIONALS)
        for flag in sorted(NON_DEFAULT)
        if command == "update" or flag not in UPDATE_ONLY
    ],
)
def test_flag_round_trips_into_its_field(command, flag):
    raw, field, value = NON_DEFAULT[flag]
    assert getattr(DeriveConfig(), field) != value
    args = build_parser().parse_args(
        [command, *POSITIONALS[command], flag, raw]
    )
    assert config_from_args(args) == DeriveConfig(**{field: value})


@pytest.mark.parametrize("command", ["inspect", "learn"])
def test_learning_commands_take_the_algorithm_1_flags(command):
    extra = ["--attribute", "age"] if command == "inspect" else ["--model", "m.json"]
    args = build_parser().parse_args(
        [command, "data.csv", "--support", "0.2", "--max-itemsets", "7", *extra]
    )
    assert config_from_args(args) == DeriveConfig(
        support_threshold=0.2, max_itemsets=7
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        # the benchmark harness's server launch
        (
            ["serve", "--host", "127.0.0.1", "--port", "0", "--seed", "1",
             "--support", "0.001", "--samples", "1000", "--burn-in", "50",
             "--executor", "serial"],
            DeriveConfig(seed=1, support_threshold=0.001, num_samples=1000,
                         burn_in=50, executor="serial"),
        ),
        # the CI smoke and chaos jobs
        (
            ["derive", "census.csv", "--support", "0.02", "--samples", "200",
             "--burn-in", "20", "--seed", "0", "--executor", "process",
             "--workers", "2", "--progress", "--output", "out.csv"],
            DeriveConfig(support_threshold=0.02, num_samples=200, burn_in=20,
                         seed=0, executor="process", workers=2),
        ),
        (
            ["update", "census.csv", "changes.json", "--support", "0.02",
             "--samples", "200", "--burn-in", "20", "--seed", "0",
             "--progress", "--output", "out.csv", "--save-updated", "up.csv"],
            DeriveConfig(support_threshold=0.02, num_samples=200, burn_in=20,
                         seed=0),
        ),
        (
            ["serve", "fig1.csv", "--support", "0.1", "--samples", "200",
             "--burn-in", "20", "--seed", "0", "--port", "8643"],
            DeriveConfig(support_threshold=0.1, num_samples=200, burn_in=20,
                         seed=0),
        ),
    ],
)
def test_scripted_spellings_still_parse(argv, expected):
    assert config_from_args(build_parser().parse_args(argv)) == expected


def test_thread_executor_is_gone():
    with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
        DeriveConfig(executor="thread")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["derive", "data.csv", "--executor", "thread"])


def test_removed_knobs_are_refused():
    """``gibbs_vectorized`` and ``strategy`` left the config: constructing
    with them is a TypeError, and a mapping carrying them gets
    ``from_dict``'s unknown-keys error."""
    assert len(dataclasses.fields(DeriveConfig)) == 16
    assert len(NON_DEFAULT) == 16
    for key, value in (("gibbs_vectorized", False), ("strategy", "tuple_dag")):
        with pytest.raises(TypeError):
            DeriveConfig(**{key: value})
        with pytest.raises(ValueError, match=rf"unknown config keys \['{key}'\]"):
            DeriveConfig.from_dict({key: value})


def test_library_entry_points_take_no_knob_keywords(fig1_relation):
    with pytest.raises(TypeError):
        derive_probabilistic_database(fig1_relation, support_threshold=0.1)
    with pytest.raises(TypeError):
        LazyDeriver(fig1_relation, num_samples=10)
