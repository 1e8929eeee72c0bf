"""Tests for the JSON service layer and HTTP front-end (repro.api.service/http).

The acceptance workflow: config dict -> derive -> JSON query spec ->
QueryRequest over HTTP -> probabilities bit-identical to the in-process
lambda-based QueryEngine path.
"""

import json
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.http import make_server
from repro.api.query import Q, SelectionQuery
from repro.api.service import (
    DeriveRequest,
    DeriveResponse,
    InferenceService,
    InferRequest,
    LearnRequest,
    QueryRequest,
    QueryResponse,
    ServiceError,
    UpdateRequest,
    _blocks_payload,
)
from repro.api.session import Session
from repro.probdb import QueryEngine, TupleBlock
from repro.probdb.distribution import Distribution
from repro.relational import Schema
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests.conftest import FIG1_ROWS

FIG1_SCHEMA = {
    "age": ["20", "30", "40"],
    "edu": ["HS", "BS", "MS"],
    "inc": ["50K", "100K"],
    "nw": ["100K", "500K"],
}
CONFIG = {"support_threshold": 0.1, "num_samples": 200, "burn_in": 20, "seed": 0}
QUERY_SPEC = SelectionQuery(where=Q.eq("nw", "500K"), project=("age",)).to_dict()


@pytest.fixture
def service():
    return InferenceService()


def _derive_payload(**overrides):
    payload = {
        "schema": FIG1_SCHEMA,
        "rows": FIG1_ROWS,
        "config": CONFIG,
        "include_blocks": True,
    }
    payload.update(overrides)
    return payload


class TestRequestRoundTrips:
    @pytest.mark.parametrize(
        "cls,payload",
        [
            (LearnRequest, {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS}),
            (DeriveRequest, {"rows": FIG1_ROWS, "schema": FIG1_SCHEMA}),
            (InferRequest, {"rows": [["20", "HS", "?", "100K"]]}),
            (QueryRequest, {"query": QUERY_SPEC, "database": "d1"}),
        ],
    )
    def test_round_trip(self, cls, payload):
        request = cls.from_dict(payload)
        again = cls.from_dict(json.loads(json.dumps(request.to_dict())))
        assert again == request

    def test_missing_required_field(self):
        with pytest.raises(ServiceError, match="missing required field"):
            QueryRequest.from_dict({"database": "d1"})


class TestJsonWorkflow:
    def test_derive_then_query_matches_lambda_path(self, service):
        derive = DeriveResponse.from_dict(
            service.handle_json("derive", _derive_payload())
        )
        assert derive.num_blocks == len(derive.blocks) > 0
        for block in derive.blocks:
            assert sum(c["prob"] for c in block["completions"]) == pytest.approx(1.0)

        response = QueryResponse.from_dict(
            service.handle_json("query", {"query": QUERY_SPEC})
        )

        # The in-process lambda path over the very same derived database.
        engine = QueryEngine(service.session.database())
        expected = engine.selection_query(
            lambda r: r.value("nw") == "500K", project_to=("age",)
        )
        assert list(response.attributes) == ["age"]
        assert [tuple(r["values"]) for r in response.results] == [
            t.values for t in expected
        ]
        assert [r["probability"] for r in response.results] == [
            t.probability for t in expected  # bit-identical
        ]

    def test_learn_then_infer(self, service):
        learn = service.handle_json(
            "learn",
            {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG},
        )
        assert learn["meta_rules"] > 0
        assert learn["attributes"] == list(FIG1_SCHEMA)

        infer = service.handle_json(
            "infer", {"rows": [["20", "HS", "?", "100K"]]}
        )
        (cpd,) = infer["cpds"]
        assert cpd["attribute"] == "inc"
        assert cpd["outcomes"] == ["50K", "100K"]
        assert sum(cpd["probs"]) == pytest.approx(1.0)

    def test_derive_reuses_registered_model(self, service):
        service.handle_json(
            "learn", {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG}
        )
        model = service.session.model()
        # No schema in the request: rows are read under the model's schema.
        response = service.handle_json(
            "derive",
            {"rows": FIG1_ROWS, "config": CONFIG, "include_blocks": False},
        )
        assert response["num_blocks"] > 0
        assert response["blocks"] == []
        assert service.session.model() is model

    def test_health(self, service):
        health = service.handle_json("health", {})
        assert health["status"] == "ok"
        assert health["config"]["burn_in"] == Session().config.burn_in


class TestErrors:
    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle_json("bogus", {})
        assert err.value.status == 404

    def test_unknown_database_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle_json("query", {"query": QUERY_SPEC, "database": "x"})
        assert err.value.status == 404

    def test_derive_without_schema_or_model_is_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle_json("derive", {"rows": FIG1_ROWS})
        assert err.value.status == 400

    def test_bad_rows_are_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle_json(
                "derive", _derive_payload(rows=[["20", "HS", "50K"]])
            )
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "endpoint,payload",
        [("infer", {"rows": 5}), ("learn", {"schema": 3, "rows": []})],
    )
    def test_malformed_request_shapes_are_400(self, service, endpoint, payload):
        """Request parsing failures surface as ServiceError(400), not as raw
        TypeError/ValueError (which the HTTP layer would turn into a 500)."""
        with pytest.raises(ServiceError) as err:
            service.handle_json(endpoint, payload)
        assert err.value.status == 400


@pytest.fixture
def http_server():
    service = InferenceService()
    service.handle_json("derive", _derive_payload(include_blocks=False))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _post(port, endpoint, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/{endpoint}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestHttp:
    def test_query_round_trip_bit_identical(self, http_server):
        service, port = http_server
        status, body = _post(port, "query", {"query": QUERY_SPEC})
        assert status == 200

        engine = QueryEngine(service.session.database())
        expected = engine.selection_query(
            lambda r: r.value("nw") == "500K", project_to=("age",)
        )
        assert [r["probability"] for r in body["results"]] == [
            t.probability for t in expected
        ]

    def test_health_endpoint(self, http_server):
        _, port = http_server
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/health", timeout=30
        ) as response:
            body = json.loads(response.read())
        assert body["status"] == "ok"
        assert body["databases"] == ["default"]

    def test_undrained_chunked_body_still_gets_its_411(self, http_server):
        """The server refuses a chunked body without reading it; closing
        with those bytes unread would reset the connection under a client
        still sending, which then sees a broken pipe instead of the 411.
        The server lingers: it half-closes and drains (bounded) first."""
        import http.client
        import time

        _, port = http_server

        def body():  # 256 KiB, still streaming when the 411 is sent
            for _ in range(16):
                yield b"x" * 16384
                time.sleep(0.001)

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/query", body=body(),
                headers={"Content-Type": "application/json"},
                encode_chunked=True,
            )
            response = conn.getresponse()
            assert response.status == 411
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_accepted_connections_disable_nagle(self):
        """A response leaves in two sends (head, then body); under Nagle
        the body would wait for the client's delayed ACK.  Every accepted
        socket must carry TCP_NODELAY."""
        import socket

        server = make_server(InferenceService(), port=0)
        handler = server.RequestHandlerClass  # per-server subclass
        seen = []
        setup = handler.setup

        def recording_setup(self):
            setup(self)
            seen.append(
                self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        handler.setup = recording_setup
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            for _ in range(2):
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/health", timeout=30
                ) as response:
                    assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert len(seen) == 2 and all(seen)

    def test_http_errors_carry_json_bodies(self, http_server):
        _, port = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(port, "bogus", {})
        assert err.value.code == 404
        assert "error" in json.loads(err.value.read())

    def test_census_json_only_workflow_bit_identical(self):
        """The acceptance path: DeriveConfig.from_dict -> Session.derive ->
        JSON query spec -> QueryRequest over HTTP -> probabilities
        bit-identical to the in-process lambda-based QueryEngine path."""
        import numpy as np

        from repro.api.config import DeriveConfig
        from repro.bench import mask_relation
        from repro.datasets import load_census
        from repro.relational import Relation

        config = DeriveConfig.from_dict(
            {
                "support_threshold": 0.002,
                "num_samples": 300,
                "burn_in": 50,
                "seed": 1,
            }
        )
        rng = np.random.default_rng(7)
        data, _ = load_census(3000, rng=rng)
        train, test = data.split(0.98, rng)
        test = Relation.from_codes(test.schema, test.codes[:40])
        masked = mask_relation(test, [1, 2], rng)
        combined = Relation(train.schema, list(train) + list(masked))

        session = Session(config)
        session.derive(combined)
        service = InferenceService(session)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            spec = SelectionQuery(
                where=Q.and_(Q.eq("income", "high"), Q.ne("education", "HS")),
                project=("age",),
            )
            status, body = _post(
                server.server_address[1],
                "query",
                {"query": json.loads(json.dumps(spec.to_dict()))},
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        assert status == 200
        engine = QueryEngine(session.database())
        expected = engine.selection_query(
            lambda r: r.value("income") == "high"
            and r.value("education") != "HS",
            project_to=("age",),
        )
        assert body["results"]  # non-vacuous
        assert [tuple(r["values"]) for r in body["results"]] == [
            t.values for t in expected
        ]
        assert [r["probability"] for r in body["results"]] == [
            t.probability for t in expected  # bit-identical through JSON
        ]

    def test_malformed_json_is_structured_400(self, http_server):
        """Malformed bodies get a structured {"error": ...} 400, never a
        traceback-driven 500 (regression: the old handler only special-cased
        JSONDecodeError, so other body malformations fell through to 500)."""
        _, port = http_server
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert error["status"] == 400
        assert "not valid JSON" in error["message"]

    def test_non_utf8_body_is_structured_400(self, http_server):
        _, port = http_server
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/query",
            data=b"\xff\xfe\xfa",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert "not valid UTF-8" in error["message"]

    def test_unknown_job_is_404(self, http_server):
        _, port = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/jobs/no-such-job", timeout=30
            )
        assert err.value.code == 404
        assert "error" in json.loads(err.value.read())


def _post_error(port, endpoint, payload):
    """POST expecting an HTTP error; returns (status, error message)."""
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(port, endpoint, payload)
    return err.value.code, json.loads(err.value.read())["error"]["message"]


UPDATE_PAYLOAD = {
    "changes": {"ops": [{"op": "update", "index": 1, "set": {"nw": "500K"}}]}
}


class TestStrictRequestFields:
    """Every request field either parses exactly or is a 400."""

    @pytest.mark.parametrize("value", ["false", "no", 0])
    def test_derive_include_blocks_must_be_boolean(self, http_server, value):
        _, port = http_server
        status, message = _post_error(
            port, "derive", _derive_payload(include_blocks=value)
        )
        assert status == 400
        assert "include_blocks" in message

    @pytest.mark.parametrize("value", ["false", "no", 0])
    def test_update_include_blocks_must_be_boolean(self, http_server, value):
        service, port = http_server
        before = service.session.result()
        status, message = _post_error(
            port, "update", {**UPDATE_PAYLOAD, "include_blocks": value}
        )
        assert status == 400
        assert "include_blocks" in message
        assert service.session.result() is before  # nothing was applied

    @pytest.mark.parametrize("endpoint", ["derive", "update"])
    @pytest.mark.parametrize(
        "key,value",
        [("executor", "process"), ("workers", 2), ("gibbs_chains", 2),
         ("gibbs_vectorized", False), ("strategy", "tuple_dag"), ("seed", 3)],
    )
    def test_top_level_knobs_must_move_into_config(
        self, http_server, endpoint, key, value
    ):
        """A knob outside ``config`` is refused, never silently ignored.

        A removed knob is an unknown request field instead: moving it into
        ``config`` would not help.
        """
        _, port = http_server
        payload = _derive_payload() if endpoint == "derive" else UPDATE_PAYLOAD
        status, message = _post_error(port, endpoint, {**payload, key: value})
        assert status == 400
        if key in ("gibbs_vectorized", "strategy"):
            assert f"unknown request field {key!r}" in message
        else:
            assert repr(key) in message and "move it into 'config'" in message

    @pytest.mark.parametrize("endpoint", ["derive", "update"])
    @pytest.mark.parametrize(
        "key,value", [("gibbs_vectorized", False), ("strategy", "tuple_dag")]
    )
    def test_removed_knobs_in_config_are_refused(
        self, http_server, endpoint, key, value
    ):
        service, port = http_server
        before = service.session.result()
        payload = _derive_payload() if endpoint == "derive" else UPDATE_PAYLOAD
        status, message = _post_error(
            port, endpoint, {**payload, "config": {key: value}}
        )
        assert status == 400
        assert f"unknown config keys [{key!r}]" in message
        assert service.session.result() is before  # nothing was applied

    def test_null_top_level_knobs_are_accepted(self):
        """Requests journaled before knobs moved into ``config`` carry the
        old top-level keys as nulls; they parse as if absent."""
        nulls = dict.fromkeys(
            ("executor", "workers", "gibbs_chains", "gibbs_vectorized"), None
        )
        plain = _derive_payload()
        assert DeriveRequest.from_dict({**plain, **nulls}) == (
            DeriveRequest.from_dict(plain)
        )
        assert UpdateRequest.from_dict(
            {**UPDATE_PAYLOAD, "executor": None, "workers": None}
        ) == UpdateRequest.from_dict(UPDATE_PAYLOAD)


class TestQuerySpecErrors:
    """A bad selection spec is a 400 whether or not any row reaches it."""

    @pytest.mark.parametrize(
        "where,project,message",
        [
            (Q.and_(Q.eq("age", "99"), Q.eq("bogus", "20")), None,
             "no attribute 'bogus' in row"),
            (Q.eq("age", "99"), ("bogus",), "no attribute 'bogus' in row"),
            (Q.and_(Q.eq("age", "99"), Q.lt("age", 5)), None,
             "not supported between"),
        ],
    )
    def test_bad_selection_is_400(self, http_server, where, project, message):
        _, port = http_server
        spec = SelectionQuery(where=where, project=project).to_dict()
        status, error = _post_error(port, "query", {"query": spec})
        assert status == 400
        assert message in error


def test_blocks_payload_equals_completions_rendering():
    """The spliced payload equals rendering ``block.completions()`` with
    ``values()``, value for value and byte for byte as JSON, for single-,
    multi- and all-missing blocks over non-string domains."""
    schema = Schema.from_domains(
        {"n": [3, 1, 2], "x": [0.5, -1.25], "flag": [False, True], "s": ["a", "b"]}
    )
    rng = np.random.default_rng(5)
    blocks = []
    for missing in ([1], [0, 2], [3, 1], [0, 1, 2, 3]):
        codes = np.array([2, 1, 0, 1], dtype=np.int32)
        codes[missing] = MISSING_CODE
        base = RelTuple(schema, codes)
        outcomes = sorted(
            {
                tuple(schema[p].domain[c] for p, c in zip(base.missing_positions, combo))
                for combo in np.ndindex(
                    *(schema[p].cardinality for p in base.missing_positions)
                )
            },
            key=repr,
        )
        probs = rng.random(len(outcomes)) + 0.01
        blocks.append(TupleBlock(base, Distribution(outcomes, probs)))
    want = tuple(
        {
            "id": i,
            "base": list(block.base.values()),
            "completions": [
                {"values": list(completed.values()), "prob": float(p)}
                for completed, p in block.completions()
            ],
        }
        for i, block in enumerate(blocks)
    )
    got = _blocks_payload(SimpleNamespace(blocks=blocks))
    assert got == want
    for g, w in zip(got, want):
        for gc, wc in zip(g["completions"], w["completions"]):
            assert [type(v) for v in gc["values"]] == [type(v) for v in wc["values"]]
    assert json.dumps(got) == json.dumps(want)
