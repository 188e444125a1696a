"""Wire-format tests: strict parsing, typed errors, response envelopes."""

from __future__ import annotations

import json

import pytest

from repro.core.result import DSQResult
from repro.core.state import SearchStats
from repro.graph.query_graph import QueryGraph
from repro.service import (
    BATCH_STRATEGIES,
    ServiceError,
    parse_batch_request,
    parse_json_body,
    parse_query_request,
    query_graph_from_json,
    query_graph_to_json,
    result_to_json,
)

TRIANGLE = {"labels": ["A", "B", "C"], "edges": [[0, 1], [1, 2], [2, 0]]}


def _query_payload(**overrides):
    payload = {"graph": "tiny", "query": dict(TRIANGLE)}
    payload.update(overrides)
    return payload


def _batch_payload(**overrides):
    payload = {"graph": "tiny", "queries": [dict(TRIANGLE)]}
    payload.update(overrides)
    return payload


class TestParseJsonBody:
    def test_valid_object(self):
        assert parse_json_body(b'{"graph": "g"}') == {"graph": "g"}

    def test_invalid_json_is_400(self):
        with pytest.raises(ServiceError) as info:
            parse_json_body(b"{nope")
        assert (info.value.status, info.value.code) == (400, "invalid_json")

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_number_is_400(self, token):
        # json.loads takes these tokens although they are not JSON, and no
        # range check downstream turns a NaN away.
        with pytest.raises(ServiceError) as info:
            parse_json_body(b'{"graph": "tiny", "alpha": %s}' % token)
        assert (info.value.status, info.value.code) == (400, "invalid_json")

    def test_non_object_is_400(self):
        with pytest.raises(ServiceError) as info:
            parse_json_body(b"[1, 2]")
        assert info.value.code == "invalid_json"

    def test_oversized_body_is_413(self):
        from repro.service.schemas import MAX_BODY_BYTES

        with pytest.raises(ServiceError) as info:
            parse_json_body(b"x" * (MAX_BODY_BYTES + 1))
        assert (info.value.status, info.value.code) == (413, "request_too_large")


class TestQueryGraphCodec:
    def test_round_trip_normalizes_edges(self):
        query = query_graph_from_json(TRIANGLE)
        assert list(query.labels) == ["A", "B", "C"]
        # Undirected edges come back canonical: u < v, sorted.
        assert query_graph_to_json(query) == {
            "labels": ["A", "B", "C"],
            "edges": [[0, 1], [0, 2], [1, 2]],
        }

    def test_canonical_form_is_a_fixed_point(self):
        once = query_graph_to_json(query_graph_from_json(TRIANGLE))
        twice = query_graph_to_json(query_graph_from_json(once))
        assert once == twice

    def test_name_survives(self):
        query = query_graph_from_json({**TRIANGLE, "name": "tri"})
        assert query.name == "tri"

    def test_unknown_key_rejected(self):
        with pytest.raises(ServiceError) as info:
            query_graph_from_json({**TRIANGLE, "weights": [1.0]})
        assert info.value.code == "unknown_field"

    def test_disconnected_query_is_invalid_query(self):
        with pytest.raises(ServiceError) as info:
            query_graph_from_json({"labels": ["A", "B"], "edges": []})
        assert (info.value.status, info.value.code) == (400, "invalid_query")

    def test_disconnected_query_reports_component(self):
        # The typed InvalidQueryError carries the offending component; its
        # message — component included — survives into the 400 body.
        payload = {"labels": ["A", "B", "C", "D"], "edges": [[0, 1], [0, 2]]}
        with pytest.raises(ServiceError) as info:
            query_graph_from_json(payload)
        assert (info.value.status, info.value.code) == (400, "invalid_query")
        assert "connected" in info.value.message
        assert "[3]" in info.value.message

    def test_unhashable_label_is_invalid_query(self):
        # A JSON list is a legal value but not a legal (hashable) label.
        with pytest.raises(ServiceError) as info:
            query_graph_from_json({"labels": [["a"], "b"], "edges": [[0, 1]]})
        assert (info.value.status, info.value.code) == (400, "invalid_query")
        assert "not hashable" in info.value.message

    @pytest.mark.parametrize(
        "bad",
        [
            "not an object",
            {"edges": [[0, 1]]},
            {"labels": [], "edges": []},
            {"labels": ["A", "B"], "edges": [[0]]},
            {"labels": ["A", "B"], "edges": [[0, True]]},
            {"labels": ["A", "B"], "edges": "0-1"},
            {"labels": ["A", "B"], "edges": [[0, 1]], "name": 3},
        ],
    )
    def test_malformed_shapes(self, bad):
        with pytest.raises(ServiceError) as info:
            query_graph_from_json(bad)
        assert info.value.status == 400


class TestParseQueryRequest:
    def test_minimal(self):
        req = parse_query_request(_query_payload())
        assert req.graph == "tiny"
        assert isinstance(req.query, QueryGraph)
        assert (req.k, req.alpha, req.time_budget_ms) == (None, None, None)

    def test_overrides(self):
        req = parse_query_request(
            _query_payload(k=3, alpha=0.5, time_budget_ms=250)
        )
        assert (req.k, req.alpha, req.time_budget_ms) == (3, 0.5, 250.0)

    def test_objective_override(self):
        req = parse_query_request(_query_payload(objective="edge"))
        assert req.objective == "edge"

    def test_objective_defaults_to_none(self):
        assert parse_query_request(_query_payload()).objective is None

    @pytest.mark.parametrize("bad", ["treewidth", 7, ""])
    def test_unknown_objective_is_typed_400(self, bad):
        with pytest.raises(ServiceError) as info:
            parse_query_request(_query_payload(objective=bad))
        assert (info.value.status, info.value.code) == (400, "invalid_objective")
        # The message names the valid set so clients can self-correct.
        assert "edge" in info.value.message and "vertex" in info.value.message

    def test_unknown_field_names_the_typo(self):
        with pytest.raises(ServiceError) as info:
            parse_query_request(_query_payload(tiem_budget_ms=10))
        assert info.value.code == "unknown_field"
        assert "tiem_budget_ms" in info.value.message

    @pytest.mark.parametrize(
        "overrides",
        [
            {"graph": ""},
            {"graph": 7},
            {"k": 0},
            {"k": True},
            {"k": "3"},
            {"alpha": "0.5"},
            {"time_budget_ms": 0},
            {"time_budget_ms": -5},
        ],
    )
    def test_bad_fields(self, overrides):
        with pytest.raises(ServiceError) as info:
            parse_query_request(_query_payload(**overrides))
        assert (info.value.status, info.value.code) == (400, "invalid_request")


class TestParseBatchRequest:
    def test_defaults(self):
        req = parse_batch_request(_batch_payload())
        assert req.strategy == "serial"
        assert req.jobs is None
        assert len(req.queries) == 1

    def test_thread_strategy_allowed(self):
        req = parse_batch_request(_batch_payload(strategy="thread", jobs=2))
        assert (req.strategy, req.jobs) == ("thread", 2)

    def test_process_strategy_refused(self):
        assert "process" not in BATCH_STRATEGIES
        with pytest.raises(ServiceError) as info:
            parse_batch_request(_batch_payload(strategy="process"))
        assert info.value.code == "invalid_request"
        assert "process" in info.value.message

    def test_empty_queries_rejected(self):
        with pytest.raises(ServiceError):
            parse_batch_request(_batch_payload(queries=[]))

    def test_oversized_batch_rejected(self):
        from repro.service.schemas import MAX_BATCH_QUERIES

        payload = _batch_payload(queries=[dict(TRIANGLE)] * (MAX_BATCH_QUERIES + 1))
        with pytest.raises(ServiceError) as info:
            parse_batch_request(payload)
        assert info.value.code == "invalid_request"

    def test_objective_override(self):
        req = parse_batch_request(_batch_payload(objective="weighted-vertex"))
        assert req.objective == "weighted-vertex"

    def test_unknown_objective_is_typed_400(self):
        with pytest.raises(ServiceError) as info:
            parse_batch_request(_batch_payload(objective="treewidth"))
        assert (info.value.status, info.value.code) == (400, "invalid_objective")

    def test_bad_query_position_is_reported(self):
        payload = _batch_payload(queries=[dict(TRIANGLE), {"labels": []}])
        with pytest.raises(ServiceError) as info:
            parse_batch_request(payload)
        assert "queries[1]" in info.value.message


class TestErrorBody:
    def test_plain_error(self):
        err = ServiceError(404, "unknown_graph", "no such graph")
        assert err.to_body() == {
            "error": {"code": "unknown_graph", "message": "no such graph"}
        }

    def test_retry_after_included(self):
        err = ServiceError(429, "overloaded", "busy", retry_after_s=1.5)
        assert err.to_body()["error"]["retry_after_s"] == 1.5


class TestResultEnvelope:
    def _result(self, deadline=False):
        stats = SearchStats()
        stats.deadline_exhausted = deadline
        return DSQResult(
            embeddings=[(1, 2, 3)], k=2, q=3, coverage=3, level=0, stats=stats
        )

    def test_envelope_fields(self):
        body = result_to_json(self._result(), graph="tiny", elapsed_ms=1.25)
        assert body["graph"] == "tiny"
        assert body["elapsed_ms"] == 1.25
        assert body["deadline_exhausted"] is False
        assert body["embeddings"] == [[1, 2, 3]]
        json.dumps(body)  # the envelope must be JSON-serializable as-is

    def test_deadline_flag_lifted_to_top_level(self):
        body = result_to_json(self._result(deadline=True), graph="tiny")
        assert body["deadline_exhausted"] is True
        assert body["stats"]["deadline_exhausted"] is True
        assert "elapsed_ms" not in body


class TestUseCompressionField:
    def test_defaults_to_none_on_both_requests(self):
        assert parse_query_request(_query_payload()).use_compression is None
        assert parse_batch_request(_batch_payload()).use_compression is None

    @pytest.mark.parametrize("value", [True, False])
    def test_round_trips_on_both_requests(self, value):
        assert (
            parse_query_request(_query_payload(use_compression=value)).use_compression
            is value
        )
        assert (
            parse_batch_request(_batch_payload(use_compression=value)).use_compression
            is value
        )

    def test_explicit_null_means_absent(self):
        assert (
            parse_query_request(_query_payload(use_compression=None)).use_compression
            is None
        )

    @pytest.mark.parametrize("bad", ["true", 1, 0])
    def test_non_bool_is_typed_400(self, bad):
        with pytest.raises(ServiceError) as info:
            parse_query_request(_query_payload(use_compression=bad))
        assert (info.value.status, info.value.code) == (400, "invalid_request")
        assert "use_compression" in info.value.message
