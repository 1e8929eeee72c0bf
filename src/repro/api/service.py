"""Typed request/response service layer: the JSON wire format.

:class:`InferenceService` wraps one :class:`~repro.api.session.Session` and
exposes five endpoints — ``learn``, ``derive``, ``update``, ``infer``,
``query`` — each with a frozen request/response dataclass pair that
round-trips through plain JSON: each class's ``from_dict``/``to_dict`` is
generated from its field declarations (:class:`_Wire`).
:meth:`InferenceService.handle_json` is the transport-agnostic dispatch
used by the stdlib HTTP front-end (:mod:`repro.api.http`) and by tests
that drive the wire format in-process.

Wire conventions: relations travel as ``schema`` (an ordered mapping of
attribute name to domain list) plus ``rows`` (lists of values with ``"?"``
marking missing, exactly as the CSV format); queries travel as the
serializable AST of :mod:`repro.api.query`; configs as
:meth:`~repro.api.config.DeriveConfig.to_dict` mappings.
"""

from __future__ import annotations

import functools
import json
import reprlib
import threading
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from ..jobs import Job, JobManager, UnknownJobError
from ..jobs.progress import ProgressSnapshot
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.tuples import RelTuple
from ..relational.updates import ChangeSet
from .config import DeriveConfig
from .query import query_from_dict
from .session import DEFAULT_NAME, Session, SessionError

__all__ = [
    "ServiceError",
    "LearnRequest",
    "LearnResponse",
    "DeriveRequest",
    "DeriveResponse",
    "AsyncDeriveResponse",
    "InferRequest",
    "InferResponse",
    "QueryRequest",
    "QueryResponse",
    "UpdateRequest",
    "UpdateResponse",
    "InferenceService",
    "encode_json",
]


def encode_json(payload: Any) -> bytes:
    """The wire encoding of every JSON response body."""
    return json.dumps(payload).encode("utf-8")


class ServiceError(Exception):
    """A request-level failure with an HTTP-style status code."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.message = message
        self.status = status

    def to_dict(self) -> dict[str, Any]:
        return {"error": {"status": self.status, "message": self.message}}


#: Every :class:`DeriveConfig` field name: valid only inside ``config``.
_CONFIG_KEYS = tuple(f.name for f in fields(DeriveConfig))


def _same(value: Any) -> Any:
    return value


def _is_array(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _schema_lists(schema: Mapping[str, Sequence[Any]]) -> dict[str, list[Any]]:
    return {attr: list(domain) for attr, domain in schema.items()}


class _Codec(NamedTuple):
    """How one declared field type travels: a JSON value of ``kind`` (the
    word its 400 uses) passes ``test`` and is ``decode``-d, and the field
    value is ``encode``-d back.  No coercion: ``"false"`` is no boolean."""

    kind: str
    test: Callable[[Any], bool]
    decode: Callable[[Any], Any] = _same
    encode: Callable[[Any], Any] = _same


_ARRAY = _Codec("array", _is_array, tuple, list)

#: Declared field type (``| None`` stripped) -> its codec.  A wire field
#: of any other type fails on the first ``from_dict``/``to_dict``.
_CODECS = {
    "tuple[tuple[Any, ...], ...]": _Codec(
        "array of arrays",
        lambda v: _is_array(v) and all(map(_is_array, v)),
        lambda rows: tuple(map(tuple, rows)),
        lambda rows: [list(row) for row in rows],
    ),
    "Mapping[str, Sequence[Any]]": _Codec(
        "object of arrays",
        lambda v: isinstance(v, Mapping) and all(map(_is_array, v.values())),
        _schema_lists,
        _schema_lists,
    ),
    "Mapping[str, Any]": _Codec("object", lambda v: isinstance(v, Mapping), dict, dict),
    "str": _Codec("string", lambda v: isinstance(v, str)),
    "int": _Codec("integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": _Codec("boolean", lambda v: isinstance(v, bool)),
    "tuple[str, ...]": _ARRAY,
    "tuple[dict[str, Any], ...]": _ARRAY,
}


@functools.cache
def _wire_fields(cls: type) -> tuple[tuple[str, bool, _Codec], ...]:
    """``cls``'s fields as (name, required, codec), in declaration order."""
    return tuple(
        (f.name, f.default is MISSING, _CODECS[f.type.removesuffix(" | None")])
        for f in fields(cls)
    )


class _Wire:
    """JSON ``from_dict``/``to_dict`` generated from the dataclass fields.

    A field is required exactly when it has no default; an absent or
    ``null`` field takes its default.  Each value is type-checked by its
    declared type (:data:`_CODECS`), and ``to_dict`` emits every field in
    declaration order.  Responses ignore keys they do not declare.
    """

    _refuses_unknown = False

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Any:
        wire = _wire_fields(cls)
        if cls._refuses_unknown:
            _refuse_unknown(payload, {name for name, _, _ in wire})
        values = {}
        for name, required, codec in wire:
            value = payload.get(name)
            if value is None:
                if required:
                    raise ServiceError(f"request is missing required field {name!r}")
            elif codec.test(value):
                values[name] = codec.decode(value)
            else:
                raise ServiceError(
                    f"{name!r} must be a JSON {codec.kind}, got {reprlib.repr(value)}"
                )
        return cls(**values)

    def to_dict(self) -> dict[str, Any]:
        return {
            name: None if (value := getattr(self, name)) is None else codec.encode(value)
            for name, _, codec in _wire_fields(type(self))
        }


class _WireRequest(_Wire):
    """A request: any undeclared non-null key is refused."""

    _refuses_unknown = True


def _refuse_unknown(payload: Mapping[str, Any], allowed: set[str]) -> None:
    """Refuse every non-null key the request does not declare.

    Ignoring one would silently change what runs (the Gibbs knobs change
    outputs, a misspelled ``model`` runs the default one).  Knobs travel
    only inside ``config``, so on a request that has one a
    :class:`DeriveConfig` name says so.  Nulls are accepted: requests
    journaled back when a few knobs also had top-level fields store them
    as ``null``.
    """
    for key, value in payload.items():
        if value is None or key in allowed:
            continue
        if key in _CONFIG_KEYS and "config" in allowed:
            raise ServiceError(
                f"top-level {key!r} is not accepted; move it into 'config' "
                f"(e.g. {{\"config\": {{\"{key}\": ...}}}})"
            )
        raise ServiceError(
            f"unknown request field {key!r}; valid fields are {sorted(allowed)}"
        )


def _blocks_payload(db: Any) -> tuple[dict[str, Any], ...]:
    """A database's blocks in Fig. 1 call-out form.

    Equal to rendering each of ``block.completions()`` with ``values()``,
    but each completion splices its outcome's values into one copy of the
    base's values instead of building a ``RelTuple``.
    """
    payload = []
    for i, block in enumerate(db.blocks):
        base = list(block.base.values())
        missing = block.base.missing_positions
        dist = block.distribution
        completions = []
        for outcome, prob in zip(dist.outcomes, dist.probs.tolist()):
            values = base.copy()
            for pos, value in zip(missing, outcome):
                values[pos] = value
            completions.append({"values": values, "prob": prob})
        payload.append({"id": i, "base": base, "completions": completions})
    return tuple(payload)


def _changeset(request: UpdateRequest) -> ChangeSet:
    try:
        return ChangeSet.from_dict(request.changes)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"bad ChangeSet: {exc}") from exc


# -- learn ----------------------------------------------------------------


@dataclass(frozen=True)
class LearnRequest(_WireRequest):
    """Learn an MRSL model from complete rows and register it by name."""

    schema: Mapping[str, Sequence[Any]]
    rows: tuple[tuple[Any, ...], ...]
    model: str = DEFAULT_NAME
    config: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class LearnResponse(_Wire):
    model: str
    attributes: tuple[str, ...]
    meta_rules: int


# -- derive ---------------------------------------------------------------


@dataclass(frozen=True)
class DeriveRequest(_WireRequest):
    """Derive a probabilistic database from incomplete rows.

    ``schema`` may be omitted when ``model`` names an already-registered
    model (the rows are then read under the model's schema).
    ``include_blocks`` controls whether the response carries the full
    per-block completion lists or only the counts.  ``config`` partially
    overrides the session config for this request, and is the only place
    knobs travel: e.g. ``{"executor": "process", "workers": 2}`` selects
    the shard runtime (results are bit-identical whichever serves them).
    """

    rows: tuple[tuple[Any, ...], ...]
    schema: Mapping[str, Sequence[Any]] | None = None
    model: str | None = None
    name: str = DEFAULT_NAME
    config: Mapping[str, Any] | None = None
    include_blocks: bool = True


@dataclass(frozen=True)
class DeriveResponse(_Wire):
    """Counts plus (optionally) the derived blocks in Fig. 1 call-out form."""

    name: str
    model: str
    num_certain: int
    num_blocks: int
    blocks: tuple[dict[str, Any], ...] = ()


@dataclass(frozen=True)
class AsyncDeriveResponse(_Wire):
    """Acknowledgement of an async derive: poll ``/v1/jobs/{job_id}``."""

    job_id: str
    state: str


# -- update ---------------------------------------------------------------


@dataclass(frozen=True)
class UpdateRequest(_WireRequest):
    """Apply a ChangeSet to a derived database's base table and re-derive.

    ``changes`` is the ChangeSet wire form (``{"ops": [...]}``; see
    ``docs/updates.md``).  ``config`` partially overrides the session
    config for this call — notably ``trust`` (source priority order for
    conflicting writes) and ``update_policy`` (``"delta"`` re-derives only
    dirty shards, ``"full"`` everything).  ``include_blocks`` defaults to
    False: update responses report counts and carried-over statistics, the
    blocks are queryable in place.
    """

    changes: Mapping[str, Any]
    name: str = DEFAULT_NAME
    config: Mapping[str, Any] | None = None
    include_blocks: bool = False


@dataclass(frozen=True)
class UpdateResponse(_Wire):
    """What the update applied, resolved, and re-derived.

    ``applied`` summarizes the relational outcome (rows updated / retracted
    / inserted and the conflict list with trust winners and ties);
    ``carried_over``/``carried_tuples`` count the shards the delta path
    served from the previous derivation, ``executed_shards`` the shards
    that actually ran.
    """

    name: str
    policy: str
    num_certain: int
    num_blocks: int
    applied: Mapping[str, Any]
    carried_over: int = 0
    carried_tuples: int = 0
    executed_shards: int = 0
    blocks: tuple[dict[str, Any], ...] = ()


# -- infer ----------------------------------------------------------------


@dataclass(frozen=True)
class InferRequest(_WireRequest):
    """Algorithm 2 CPDs for single-missing rows under a registered model."""

    rows: tuple[tuple[Any, ...], ...]
    model: str = DEFAULT_NAME


@dataclass(frozen=True)
class InferResponse(_Wire):
    """One CPD per request row: attribute name, outcomes, probabilities."""

    cpds: tuple[dict[str, Any], ...]


# -- query ----------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest(_WireRequest):
    """Evaluate a serialized query spec against a derived database."""

    query: Mapping[str, Any]
    database: str = DEFAULT_NAME


@dataclass(frozen=True)
class QueryResponse(_Wire):
    """Result tuples with exact probabilities, sorted descending."""

    attributes: tuple[str, ...] = ()
    results: tuple[dict[str, Any], ...] = ()


# -- the service ----------------------------------------------------------


class InferenceService:
    """JSON-facing dispatch over one :class:`Session`.

    ``jobs`` is the async runtime behind ``derive_async`` and the
    ``job_*`` endpoints.  The default manager runs one background worker,
    so async derivations queue FIFO; a service-level lock additionally
    serializes every endpoint that touches the session's warm engines or
    model registry — ``derive`` (async or blocking, on any thread),
    ``infer``, and ``learn`` — because the engines' CPD memos are not
    thread-safe.  ``query`` and the job endpoints read immutable state and
    stay lock-free.
    """

    def __init__(
        self, session: Session | None = None, jobs: JobManager | None = None
    ):
        self.session = session if session is not None else Session()
        self.jobs = jobs if jobs is not None else JobManager(prefix="derive")
        self._session_lock = threading.Lock()

    # -- typed endpoints ---------------------------------------------------

    def learn(self, request: LearnRequest) -> LearnResponse:
        schema = Schema.from_domains(request.schema)
        relation = Relation.from_rows(schema, request.rows)
        with self._session_lock:
            model = self.session.learn(
                relation, model=request.model, config=request.config
            )
        return LearnResponse(
            model=request.model,
            attributes=tuple(attr.name for attr in model.schema),
            meta_rules=model.size(),
        )

    def _derive_schema(self, request: DeriveRequest) -> tuple[str, Schema]:
        """Resolve the model name and schema a derive request runs under."""
        model_name = request.model if request.model is not None else request.name
        if request.schema is not None:
            schema = Schema.from_domains(request.schema)
        elif model_name in self.session.models:
            schema = self.session.model(model_name).schema
        else:
            raise ServiceError(
                "derive request needs a 'schema' unless 'model' names a "
                "registered model"
            )
        return model_name, schema

    def derive(
        self,
        request: DeriveRequest,
        progress: Callable[[ProgressSnapshot], None] | Any = None,
        cancel: Callable[[], bool] | None = None,
        resume_carry: Any = None,
    ) -> DeriveResponse:
        model_name, schema = self._derive_schema(request)
        relation = Relation.from_rows(schema, request.rows)
        with self._session_lock:
            result = self.session.derive(
                relation,
                name=request.name,
                model=model_name,
                config=request.config,
                progress=progress,
                cancel=cancel,
                resume_carry=resume_carry,
            )
        db = result.database
        return DeriveResponse(
            name=request.name,
            model=model_name,
            num_certain=len(db.certain),
            num_blocks=len(db.blocks),
            blocks=_blocks_payload(db) if request.include_blocks else (),
        )

    def update(
        self,
        request: UpdateRequest,
        progress: Callable[[ProgressSnapshot], None] | Any = None,
        cancel: Callable[[], bool] | None = None,
    ) -> UpdateResponse:
        """``POST /v1/update``: apply a ChangeSet and re-derive in place."""
        changeset = _changeset(request)
        with self._session_lock:
            update = self.session.apply_updates(
                changeset,
                name=request.name,
                config=request.config,
                progress=progress,
                cancel=cancel,
            )
        db = update.result.database
        report = update.result.exec_report
        return UpdateResponse(
            name=update.name,
            policy=update.policy,
            num_certain=len(db.certain),
            num_blocks=len(db.blocks),
            applied=update.outcome.to_dict(),
            carried_over=0 if report is None else report.carried_over,
            carried_tuples=0 if report is None else report.carried_tuples,
            executed_shards=0 if report is None else report.num_shards,
            blocks=_blocks_payload(db) if request.include_blocks else (),
        )

    # -- async jobs --------------------------------------------------------

    def update_async(self, request: UpdateRequest) -> AsyncDeriveResponse:
        """Submit an update as a background job; returns immediately.

        Like ``derive_async``, bad requests fail fast: an unknown database
        name or a malformed ChangeSet is a synchronous 4xx, never a failed
        job.  The job result is the blocking endpoint's
        :class:`UpdateResponse` payload; progress, ETA, and cancellation
        work through the standard ``/v1/jobs`` endpoints.
        """
        if request.name not in self.session.databases:
            raise ServiceError(
                f"no derived database {request.name!r}; "
                f"derived: {list(self.session.databases)}",
                status=404,
            )
        _changeset(request)
        # Updates are journaled for visibility but are not resumable: an
        # interrupted update's ChangeSet may be half-applied to the session
        # state that died with the process; resume_jobs marks them failed.
        return self._submit("update", request)

    def derive_async(
        self,
        request: DeriveRequest,
        job_id: str | None = None,
        resume_carry: Any = None,
    ) -> AsyncDeriveResponse:
        """Submit a derive as a background job; returns immediately.

        Obviously-bad requests (no schema and no registered model) fail
        fast with a 400 instead of a failed job.  The job's eventual result
        is the exact :class:`DeriveResponse` payload the blocking endpoint
        would have produced for the same request — bit-identical when the
        config pins a seed — kept as its encoded JSON bytes.

        When the job manager has a durable store, the submission is
        journaled (request payload + every completed shard), so a killed
        server resumes it on restart.  ``job_id``/``resume_carry`` are the
        resume path itself (:meth:`resume_jobs`): re-adopt the journaled id
        and serve already-completed shards from the journal.
        """
        self._derive_schema(request)  # fail fast before queueing
        return self._submit(
            "derive", request, job_id=job_id, resume_carry=resume_carry
        )

    def _submit(
        self, endpoint: str, request: Any, job_id: str | None = None, **extra: Any
    ) -> AsyncDeriveResponse:
        """Queue the blocking ``endpoint`` as a job whose result is its
        encoded response body, journaling ``request.to_dict()``."""
        # Size the progress tracker with the same parallelism the
        # derivation will resolve to (request config > session config;
        # serial always runs 1 regardless of `workers`).
        workers = self.session.effective_config(request.config).parallelism

        def work(job: Job) -> bytes:
            handler = getattr(self, endpoint)
            response = handler(
                request, progress=job.tracker, cancel=job.should_stop, **extra
            )
            return encode_json(response.to_dict())

        job = self.jobs.submit(
            work,
            label=endpoint,
            workers=workers,
            endpoint=endpoint,
            request=request.to_dict(),
            job_id=job_id,
        )
        return AsyncDeriveResponse(job_id=job.id, state=job.state)

    def resume_jobs(self) -> list[str]:
        """Resume journaled jobs interrupted by a server death.

        For every job the durable store reports as ``queued`` or
        ``running``: derives are resubmitted under their original id with a
        :class:`~repro.probdb.invalidate.CarryStore` of their journaled
        shards — completed shards carry over verbatim, the journaled base
        seed pins the plan, and the resumed result is bit-identical to an
        uninterrupted run.  Updates are not resumable (their session state
        died with the process) and are marked failed.  Returns the resumed
        job ids.  No-op without a durable store.
        """
        store = self.jobs.store
        if store is None:
            return []
        resumed: list[str] = []
        for record in store.load_resumable():
            if record.endpoint != "derive":
                store.set_state(
                    record.id,
                    "failed",
                    error="interrupted by server restart; "
                    f"{record.endpoint!r} jobs are not resumable",
                )
                continue
            try:
                request = DeriveRequest.from_dict(record.request)
                carry = store.load_carry(record.id)
                self.derive_async(request, job_id=record.id, resume_carry=carry)
            except Exception as exc:  # noqa: BLE001 - one bad job, not all
                store.set_state(
                    record.id,
                    "failed",
                    error=f"resume failed: {type(exc).__name__}: {exc}",
                )
                continue
            resumed.append(record.id)
        return resumed

    def _job(self, job_id: str) -> Job:
        try:
            return self.jobs.get(job_id)
        except UnknownJobError as exc:
            raise ServiceError(str(exc), status=404) from exc

    def job_status(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}``: lifecycle state plus shard-aware progress."""
        return self._job(job_id).status_dict()

    def job_result(self, job_id: str) -> dict[str, Any]:
        """The finished job's response payload, decoded from
        :meth:`job_result_json` (same errors)."""
        return json.loads(self.job_result_json(job_id))

    def job_result_json(self, job_id: str) -> bytes:
        """``GET /v1/jobs/{id}/result``: the finished job's response.

        Derive and update jobs keep their result as encoded JSON — one
        bytes object per retained job instead of a dict tree — which is
        byte-identical to the blocking endpoint's body.  409 while the job
        is queued/running or after cancellation (a cancelled job never has
        a result, partial or otherwise); 500 when the job failed.
        """
        job = self._job(job_id)
        state = job.state
        if state == "done":
            result = job.result()
            return result if isinstance(result, bytes) else encode_json(result)
        if state == "failed":
            raise ServiceError(
                f"job {job_id} failed: {job.error}", status=500
            )
        raise ServiceError(
            f"job {job_id} has no result (state: {state!r})", status=409
        )

    def job_cancel(self, job_id: str) -> dict[str, Any]:
        """``POST /v1/jobs/{id}/cancel``: request cooperative cancellation."""
        job = self._job(job_id)
        accepted = job.cancel()
        return {
            "job_id": job.id,
            "state": job.state,
            "cancel_requested": job.cancel_requested,
            "accepted": accepted,
        }

    def job_events(
        self,
        job_id: str,
        after: int = 0,
        timeout: float | None = None,
        heartbeat: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/{id}/events``: blocking shard-completion stream.

        Yields every recorded event with ``seq > after`` and then new ones
        as they land, ending after the terminal event (or when ``timeout``
        expires with no news).  ``heartbeat`` interleaves synthetic
        keepalive events whenever the stream idles that long; heartbeats
        carry the last delivered ``seq`` and never consume sequence
        numbers.
        """
        return self._job(job_id).iter_events(
            after=after, timeout=timeout, heartbeat=heartbeat
        )

    def infer(self, request: InferRequest) -> InferResponse:
        schema = self.session.model(request.model).schema
        tuples = [RelTuple.from_values(schema, row) for row in request.rows]
        with self._session_lock:
            dists = self.session.infer_batch(tuples, model=request.model)
        cpds = tuple(
            {
                "attribute": schema[t.missing_positions[0]].name,
                "outcomes": list(dist.outcomes),
                "probs": [float(p) for p in dist.probs],
            }
            for t, dist in zip(tuples, dists)
        )
        return InferResponse(cpds=cpds)

    def query(self, request: QueryRequest) -> QueryResponse:
        spec = query_from_dict(request.query)
        results = self.session.query(spec, database=request.database)
        attributes = results[0].attributes if results else ()
        return QueryResponse(
            attributes=tuple(attributes),
            results=tuple(
                {"values": list(t.values), "probability": float(t.probability)}
                for t in results
            ),
        )

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "models": list(self.session.models),
            "databases": list(self.session.databases),
            "jobs": list(self.jobs.jobs),
            "config": self.session.config.to_dict(),
        }

    # -- JSON dispatch -----------------------------------------------------

    #: endpoint name -> (request parser, handler attribute)
    ENDPOINTS = {
        "learn": (LearnRequest, "learn"),
        "derive": (DeriveRequest, "derive"),
        "derive_async": (DeriveRequest, "derive_async"),
        "update": (UpdateRequest, "update"),
        "update_async": (UpdateRequest, "update_async"),
        "infer": (InferRequest, "infer"),
        "query": (QueryRequest, "query"),
    }

    def handle_json(
        self, endpoint: str, payload: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Dispatch one JSON request; raises :class:`ServiceError` on failure."""
        if endpoint == "health":
            return self.health()
        entry = self.ENDPOINTS.get(endpoint)
        if entry is None:
            raise ServiceError(
                f"unknown endpoint {endpoint!r}; "
                f"valid: {sorted(self.ENDPOINTS)} and 'health'",
                status=404,
            )
        request_cls, handler_name = entry
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        try:
            request = request_cls.from_dict(payload)
            response = getattr(self, handler_name)(request)
        except ServiceError:
            raise
        except SessionError as exc:
            raise ServiceError(str(exc), status=404) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad request: {exc}") from exc
        return response.to_dict()
