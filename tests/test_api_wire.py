"""The field-driven wire codec of repro.api.service and the HTTP body bound.

Every request/response class decodes and encodes through one codec chosen
by each dataclass field's declared type: the JSON bytes below are pinned
from the hand-written per-class codecs it replaced.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.api.http as http
from repro.api.service import (
    AsyncDeriveResponse,
    DeriveRequest,
    DeriveResponse,
    InferenceService,
    InferRequest,
    InferResponse,
    LearnRequest,
    LearnResponse,
    QueryRequest,
    QueryResponse,
    ServiceError,
    UpdateRequest,
    UpdateResponse,
)
from tests.conftest import FIG1_ROWS

SCHEMA = {"a": ["x", "y"], "b": [1, 2]}
FIG1_SCHEMA = {
    "age": ["20", "30", "40"],
    "edu": ["HS", "BS", "MS"],
    "inc": ["50K", "100K"],
    "nw": ["100K", "500K"],
}
CONFIG = {"support_threshold": 0.1, "num_samples": 200, "burn_in": 20, "seed": 0}

WIRE = [
    (
        LearnRequest(schema=SCHEMA, rows=(("x", 1), ("y", "?")), model="m1",
                     config={"support_threshold": 0.1, "seed": 3}),
        '{"schema": {"a": ["x", "y"], "b": [1, 2]}, "rows": [["x", 1], ["y", "?"]], '
        '"model": "m1", "config": {"support_threshold": 0.1, "seed": 3}}',
    ),
    (
        LearnResponse(model="m1", attributes=("a", "b"), meta_rules=4),
        '{"model": "m1", "attributes": ["a", "b"], "meta_rules": 4}',
    ),
    (
        DeriveRequest(rows=(("x", "?"),), schema=SCHEMA, model="m1", name="d1",
                      config={"executor": "process", "workers": 2},
                      include_blocks=False),
        '{"rows": [["x", "?"]], "schema": {"a": ["x", "y"], "b": [1, 2]}, '
        '"model": "m1", "name": "d1", "config": {"executor": "process", '
        '"workers": 2}, "include_blocks": false}',
    ),
    (
        DeriveResponse(name="d1", model="m1", num_certain=1, num_blocks=1, blocks=(
            {"id": 0, "base": ["x", "?"], "completions": [
                {"values": ["x", 1], "prob": 0.25},
                {"values": ["x", 2], "prob": 0.75},
            ]},
        )),
        '{"name": "d1", "model": "m1", "num_certain": 1, "num_blocks": 1, '
        '"blocks": [{"id": 0, "base": ["x", "?"], "completions": [{"values": '
        '["x", 1], "prob": 0.25}, {"values": ["x", 2], "prob": 0.75}]}]}',
    ),
    (
        AsyncDeriveResponse(job_id="derive-1", state="queued"),
        '{"job_id": "derive-1", "state": "queued"}',
    ),
    (
        UpdateRequest(changes={"ops": [{"op": "update", "index": 1, "set": {"b": 2}}]},
                      name="d1", config={"trust": ["hr"]}, include_blocks=True),
        '{"changes": {"ops": [{"op": "update", "index": 1, "set": {"b": 2}}]}, '
        '"name": "d1", "config": {"trust": ["hr"]}, "include_blocks": true}',
    ),
    (
        UpdateResponse(name="d1", policy="delta", num_certain=1, num_blocks=1,
                       applied={"updated": [1], "retracted": [], "inserted": [],
                                "conflicts": []},
                       carried_over=2, carried_tuples=3, executed_shards=1),
        '{"name": "d1", "policy": "delta", "num_certain": 1, "num_blocks": 1, '
        '"applied": {"updated": [1], "retracted": [], "inserted": [], '
        '"conflicts": []}, "carried_over": 2, "carried_tuples": 3, '
        '"executed_shards": 1, "blocks": []}',
    ),
    (
        InferRequest(rows=(("x", "?"),), model="m1"),
        '{"rows": [["x", "?"]], "model": "m1"}',
    ),
    (
        InferResponse(cpds=({"attribute": "b", "outcomes": [1, 2], "probs": [0.5, 0.5]},)),
        '{"cpds": [{"attribute": "b", "outcomes": [1, 2], "probs": [0.5, 0.5]}]}',
    ),
    (
        QueryRequest(query={"type": "selection", "where": {"op": "eq", "attr": "a",
                                                           "value": "x"},
                            "project": ["a"]}, database="d1"),
        '{"query": {"type": "selection", "where": {"op": "eq", "attr": "a", '
        '"value": "x"}, "project": ["a"]}, "database": "d1"}',
    ),
    (
        QueryResponse(attributes=("a",), results=({"values": ["x"], "probability": 0.5},)),
        '{"attributes": ["a"], "results": [{"values": ["x"], "probability": 0.5}]}',
    ),
]


@pytest.mark.parametrize(
    "instance,pinned", WIRE, ids=[type(x).__name__ for x, _ in WIRE]
)
def test_round_trip_and_pinned_bytes(instance, pinned):
    cls = type(instance)
    assert cls.from_dict(instance.to_dict()) == instance
    assert cls.from_dict(json.loads(pinned)) == instance
    assert json.dumps(instance.to_dict()) == pinned


def test_every_wire_class_is_covered():
    assert len({type(x) for x, _ in WIRE}) == 11


def test_absent_and_null_fields_take_their_defaults():
    absent = DeriveRequest.from_dict({"rows": [["x", "?"]]})
    nulls = DeriveRequest.from_dict({
        "rows": [["x", "?"]], "schema": None, "model": None, "name": None,
        "config": None, "include_blocks": None,
    })
    assert absent == nulls == DeriveRequest(rows=(("x", "?"),))


def test_null_required_field_is_missing():
    with pytest.raises(ServiceError, match="missing required field 'rows'"):
        InferRequest.from_dict({"rows": None})


def test_pre_codec_journaled_derive_request_still_parses():
    """A journaled DeriveRequest dict from before the shared codec, with
    the old top-level knobs stored as nulls, parses to the same request."""
    instance, pinned = WIRE[2]
    legacy = {**json.loads(pinned), "executor": None, "workers": None,
              "gibbs_chains": None, "gibbs_vectorized": None}
    assert DeriveRequest.from_dict(legacy) == instance
    assert json.dumps(DeriveRequest.from_dict(legacy).to_dict()) == pinned


def test_responses_tolerate_unknown_keys():
    instance, pinned = WIRE[1]
    assert LearnResponse.from_dict({**json.loads(pinned), "extra": 1}) == instance


# -- unknown and mistyped request fields, per endpoint -----------------------


def _error(service, endpoint, payload):
    with pytest.raises(ServiceError) as err:
        service.handle_json(endpoint, payload)
    assert err.value.status == 400
    return err.value.message


@pytest.fixture(scope="module")
def service():
    service = InferenceService()
    service.handle_json(
        "derive",
        {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG,
         "include_blocks": False},
    )
    yield service
    service.jobs.close()


LEARN = {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG}
INFER = {"rows": [["20", "HS", "?", "100K"]]}
QUERY = {"query": {"type": "selection",
                   "where": {"op": "eq", "attr": "nw", "value": "500K"},
                   "project": ["age"]}}


def test_learn_refuses_top_level_knob(service):
    message = _error(service, "learn", {**LEARN, "support_threshold": 0.5})
    assert "'support_threshold'" in message and "move it into 'config'" in message


def test_infer_refuses_misspelled_field(service):
    message = _error(service, "infer", {**INFER, "modle": "other"})
    assert message.startswith("unknown request field 'modle'; valid fields are")


def test_query_refuses_unknown_field(service):
    message = _error(service, "query", {**QUERY, "databse": "default"})
    assert message.startswith("unknown request field 'databse'; valid fields are")
    # A knob name on a request without ``config`` is just an unknown field.
    message = _error(service, "query", {**QUERY, "seed": 3})
    assert message.startswith("unknown request field 'seed'")


@pytest.mark.parametrize(
    "endpoint,payload", [("learn", LEARN), ("infer", INFER), ("query", QUERY)]
)
def test_null_unknown_keys_parse_as_absent(service, endpoint, payload):
    extra = {"support_threshold": None, "modle": None}
    assert service.handle_json(endpoint, {**payload, **extra}) == (
        service.handle_json(endpoint, payload)
    )


def test_rows_must_be_an_array_of_arrays(service):
    for endpoint, payload in [("derive", {"schema": FIG1_SCHEMA}), ("infer", {})]:
        message = _error(service, endpoint, {**payload, "rows": "ab"})
        assert message == "'rows' must be a JSON array of arrays, got 'ab'"
    message = _error(service, "infer", {"rows": ["20HS?100K"]})
    assert "'rows' must be a JSON array of arrays" in message


def test_name_must_be_a_string(service):
    before = list(service.session.databases)
    payload = {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG, "name": 5}
    message = _error(service, "derive", payload)
    assert message == "'name' must be a JSON string, got 5"
    assert list(service.session.databases) == before  # nothing was registered


@pytest.mark.parametrize(
    "field,value,kind",
    [("schema", ["age"], "object of arrays"), ("schema", {"age": "20"}, "object of arrays"),
     ("config", "fast", "object"), ("model", ["m"], "string")],
)
def test_fields_are_typed_by_their_declaration(service, field, value, kind):
    message = _error(service, "learn", {**LEARN, field: value})
    assert message.startswith(f"{field!r} must be a JSON {kind}, got ")


# -- the request body bound ---------------------------------------------------


def _post(port, path, body):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_body_over_the_limit_is_413(monkeypatch):
    body = json.dumps(INFER).encode("utf-8")
    limit = len(body) + 16
    monkeypatch.setattr(http, "MAX_BODY_BYTES", limit)
    service = InferenceService()
    service.handle_json("learn", LEARN)
    server = http.make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        status, at_limit = _post(port, "/v1/infer", body + b" " * 16)
        assert status == 200 and at_limit["cpds"]

        status, over = _post(port, "/v1/infer", body + b" " * 17)
        assert status == 413
        assert over["error"]["status"] == 413
        assert f"{limit}-byte limit" in over["error"]["message"]

        # The refused connection closed cleanly; the server still answers.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/health", timeout=30
        ) as response:
            assert json.loads(response.read())["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.jobs.close()
