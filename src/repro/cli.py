"""Command-line interface: derive probabilistic databases from CSV files.

Usage::

    python -m repro derive data.csv --support 0.01 --output blocks.csv
    python -m repro update data.csv changes.json --output blocks.csv
    python -m repro inspect data.csv --support 0.01 --attribute age
    python -m repro learn data.csv --support 0.01 --model model.json
    python -m repro serve data.csv --port 8642

``derive`` reads an incomplete CSV (``"?"`` marks missing values), learns
the MRSL model, infers a distribution for every incomplete tuple, and writes
the probabilistic relation: one row per completion, with a ``block`` id and
a ``prob`` column — the format of the paper's Fig. 1 call-out.

``update`` derives the same way, then applies a ChangeSet JSON file
(inserts/updates/retractions, each tagged with a source id) to the base
table and re-derives incrementally: blocks whose lineage the ChangeSet did
not touch are carried over verbatim, only dirty shards re-execute
(``--policy full`` forces a from-scratch re-derive of the updated table;
both policies produce the same database).

``serve`` starts the JSON inference service (:mod:`repro.api`) over stdlib
HTTP, optionally deriving a database from a CSV at startup so queries can be
answered immediately.

Every pipeline flag — its spelling, help, choices and default — is
generated from the :class:`~repro.api.config.DeriveConfig` field it sets,
so the CLI can never drift from the library again.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from pathlib import Path

from .api.config import DeriveConfig
from .bench.reporting import format_table
from .core.derive import derive_probabilistic_database
from .core.learning import learn_mrsl
from .core.persistence import load_model, save_model
from .relational.io import read_csv

__all__ = ["main", "build_parser", "config_from_args"]

#: Every config field that has a flag, with its :class:`~repro.api.config.CliFlag`.
_FLAGS = tuple(
    (f, f.metadata["cli"]) for f in fields(DeriveConfig) if "cli" in f.metadata
)


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The ``DeriveConfig`` flags of ``command``, defaults from the config."""
    for f, flag in _FLAGS:
        if command in flag.commands:
            p.add_argument(
                flag.flag,
                type=flag.type,
                choices=flag.choices,
                default=flag.show(f.default),
                help=flag.help,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Derive probabilistic databases with inference ensembles "
        "(Stoyanovich et al., ICDE 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    input_help = "incomplete CSV ('?' = missing)"

    derive = sub.add_parser("derive", help="derive the probabilistic relation")
    derive.add_argument("input", type=Path, help=input_help)
    _add_config_flags(derive, "derive")
    derive.add_argument(
        "--output", type=Path, default=None,
        help="output CSV (default: stdout)",
    )
    derive.add_argument(
        "--progress", action="store_true",
        help="render a shard-progress bar on stderr while deriving "
        "(shards done, tuples completed, elapsed, ETA)",
    )

    update = sub.add_parser(
        "update",
        help="apply a ChangeSet to the base table and re-derive incrementally",
    )
    update.add_argument("input", type=Path, help=input_help)
    update.add_argument(
        "changes", type=Path,
        help="ChangeSet JSON: {\"ops\": [{\"op\": \"update\", \"index\": 3, "
        "\"set\": {\"inc\": \"40K\"}, \"source\": \"hr\"}, ...]}",
    )
    _add_config_flags(update, "update")
    update.add_argument(
        "--output", type=Path, default=None,
        help="output CSV of the updated probabilistic relation "
        "(default: stdout)",
    )
    update.add_argument(
        "--save-updated", type=Path, default=None,
        help="also write the post-update base table as an incomplete CSV "
        "(for audit, or to re-derive from scratch and compare)",
    )
    update.add_argument(
        "--progress", action="store_true",
        help="render a shard-progress bar on stderr during the re-derive "
        "(carried-over shard counts included)",
    )

    inspect = sub.add_parser("inspect", help="print a learned semi-lattice")
    inspect.add_argument("input", type=Path, help=input_help)
    _add_config_flags(inspect, "inspect")
    inspect.add_argument(
        "--attribute", required=True, help="attribute whose MRSL to print"
    )

    learn = sub.add_parser("learn", help="learn and save the MRSL model")
    learn.add_argument("input", type=Path, help=input_help)
    _add_config_flags(learn, "learn")
    learn.add_argument("--model", type=Path, required=True,
                       help="output JSON model path")

    show = sub.add_parser("model-info", help="summarize a saved model")
    show.add_argument("model", type=Path, help="JSON model path")

    serve = sub.add_parser(
        "serve", help="serve the JSON inference API over HTTP"
    )
    serve.add_argument(
        "input", type=Path, nargs="?", default=None,
        help="optional incomplete CSV to derive at startup "
        "(registered as model/database 'default')",
    )
    _add_config_flags(serve, "serve")
    serve.add_argument(
        "--model", type=Path, default=None,
        help="preload a saved MRSL model JSON as 'default'",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--state-dir", type=Path, default=None,
        help="directory for the durable job journal (SQLite); async jobs "
        "interrupted by a crash or restart resume from their completed "
        "shards when the server next starts with the same directory",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> DeriveConfig:
    """The :class:`DeriveConfig` an argparse namespace describes.

    Fields whose flag the namespace lacks (not in the subcommand's scope)
    keep their defaults.
    """
    return DeriveConfig(
        **{
            f.name: flag.parse(getattr(args, flag.dest))
            for f, flag in _FLAGS
            if hasattr(args, flag.dest)
        }
    )


class _ProgressBar:
    """Single-line stderr progress bar fed by a ProgressTracker's events."""

    WIDTH = 28

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._drawn = False

    def __call__(self, kind, snapshot, *rest) -> None:
        filled = int(self.WIDTH * snapshot.fraction_done)
        bar = "#" * filled + "-" * (self.WIDTH - filled)
        self.stream.write(f"\r[{bar}] {snapshot.describe()}")
        self.stream.flush()
        self._drawn = True

    def finish(self) -> None:
        if self._drawn:
            self.stream.write("\n")
            self.stream.flush()


def _write_blocks(db, names, output: Path | None) -> None:
    """Write a probabilistic database as the Fig. 1 block/prob CSV."""
    out = output.open("w", newline="") if output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(("block", "prob") + names)
        for t in db.certain:
            writer.writerow(("-", "1.0") + t.values())
        for i, block in enumerate(db.blocks):
            for completed, prob in block.completions():
                writer.writerow((str(i), f"{prob:.6g}") + completed.values())
    finally:
        if output:
            out.close()


def _cmd_derive(args: argparse.Namespace) -> int:
    relation = read_csv(args.input)
    config = config_from_args(args)
    tracker = None
    bar = None
    if args.progress:
        from .jobs.progress import ProgressTracker

        bar = _ProgressBar()
        tracker = ProgressTracker(workers=config.parallelism, on_event=bar)
    try:
        result = derive_probabilistic_database(
            relation,
            config=config,
            on_plan=None if tracker is None else tracker.on_plan,
            on_shard=None if tracker is None else tracker.on_shard,
        )
    finally:
        if bar is not None:
            bar.finish()
    db = result.database
    _write_blocks(db, relation.schema.names, args.output)
    print(
        f"derived {len(db.blocks)} blocks over {len(db.certain)} certain "
        f"tuples (model: {result.model.size()} meta-rules, "
        f"engine: {config.engine})",
        file=sys.stderr,
    )
    if result.exec_report is not None:
        print(result.exec_report.summary(), file=sys.stderr)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .api.session import Session
    from .relational.io import write_csv
    from .relational.updates import ChangeSet

    relation = read_csv(args.input)
    changeset = ChangeSet.from_json(args.changes.read_text())
    config = config_from_args(args)
    session = Session(config)
    bar = None
    progress = None
    if args.progress:
        bar = _ProgressBar()
        progress = lambda snapshot: bar(None, snapshot)  # noqa: E731
    try:
        session.derive(relation)
        updated = session.apply_updates(changeset, progress=progress)
    finally:
        if bar is not None:
            bar.finish()
    outcome = updated.outcome
    db = updated.result.database
    _write_blocks(db, relation.schema.names, args.output)
    if args.save_updated is not None:
        write_csv(session.relation(), args.save_updated)
    print(
        f"applied {len(changeset.ops)} ops from {args.changes}: "
        f"{len(outcome.updated)} updated, {len(outcome.retracted)} "
        f"retracted, {len(outcome.inserted_tuples)} inserted "
        f"({len(outcome.conflicts)} conflicts, {len(outcome.ties)} ties)",
        file=sys.stderr,
    )
    print(
        f"re-derived ({updated.policy}): {len(db.blocks)} blocks over "
        f"{len(db.certain)} certain tuples",
        file=sys.stderr,
    )
    if updated.result.exec_report is not None:
        print(updated.result.exec_report.summary(), file=sys.stderr)
    return 0


def _learn(relation, args: argparse.Namespace):
    config = config_from_args(args)
    return learn_mrsl(
        relation,
        support_threshold=config.support_threshold,
        max_itemsets=config.max_itemsets,
    )


def _cmd_inspect(args: argparse.Namespace) -> int:
    relation = read_csv(args.input)
    if args.attribute not in relation.schema:
        print(
            f"error: no attribute {args.attribute!r}; "
            f"schema has {relation.schema.names}",
            file=sys.stderr,
        )
        return 2
    result = _learn(relation, args)
    lattice = result.model[args.attribute]
    print(f"MRSL for {args.attribute!r}: {len(lattice)} meta-rules")
    print(lattice.describe(relation.schema))
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    relation = read_csv(args.input)
    result = _learn(relation, args)
    save_model(result.model, args.model)
    print(
        f"saved {result.model_size} meta-rules over "
        f"{len(relation.schema)} attributes to {args.model}",
        file=sys.stderr,
    )
    return 0


def _cmd_model_info(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    rows = [
        (
            model.schema[lat.head_attribute].name,
            len(lat),
            lat.max_body_size,
            round(lat.root.weight, 4) if lat.root else "-",
        )
        for lat in model
    ]
    print(
        format_table(
            ["attribute", "meta-rules", "max body", "root weight"],
            rows,
            title=f"MRSL model: {model.size()} meta-rules",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the lighter subcommands never pay for the API layer.
    from .api.http import serve
    from .api.service import InferenceService
    from .api.session import Session

    session = Session(config_from_args(args))
    jobs = None
    if args.state_dir is not None:
        from .jobs import JobManager, JobStore

        store = JobStore(args.state_dir)
        jobs = JobManager(prefix="derive", store=store)
        print(
            f"durable job journal at {store.path}", file=sys.stderr
        )
    if args.model is not None:
        session.load_model(args.model)
        print(f"loaded model 'default' from {args.model}", file=sys.stderr)
    if args.input is not None:
        relation = read_csv(args.input)
        result = session.derive(relation)
        print(
            f"derived database 'default': {len(result.database.blocks)} "
            f"blocks over {len(result.database.certain)} certain tuples",
            file=sys.stderr,
        )
    service = InferenceService(session, jobs=jobs)
    if args.state_dir is not None:
        resumed = service.resume_jobs()
        if resumed:
            print(
                f"resumed {len(resumed)} interrupted job(s): "
                + ", ".join(resumed),
                file=sys.stderr,
            )
    serve(service, host=args.host, port=args.port)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "derive": _cmd_derive,
        "update": _cmd_update,
        "inspect": _cmd_inspect,
        "learn": _cmd_learn,
        "model-info": _cmd_model_info,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
