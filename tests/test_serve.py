"""Scheduling-as-a-service: protocol, coalescing, cancellation, shutdown.

The load-bearing contracts pinned here:

* the structure-only net serialization round-trips (same structural
  fingerprint, byte-identical schedules);
* N concurrent requests for one ``(fingerprint, options, source)`` key run
  exactly **one** live EP search (the service's ``live_searches``) and
  every requester receives byte-identical results;
* a cancelled or timed-out waiter never tears down the shared in-flight
  search;
* graceful shutdown drains in-flight requests before the listener dies;
* the request memo is a pure shortcut: a repeated line gets the bytes the
  full path would give it, with the same cache state and counters, and
  only while the L1 still holds the records those bytes were built from.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import sys
import threading
import time
import types

import pytest

from repro.apps import paper_nets
from repro.apps.divisors import DIVISORS_SOURCE
from repro.apps.workloads import producer_consumer_source, random_choice_net
from repro.cache import SqliteStore
from repro.petrinet.fingerprint import structural_fingerprint
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.serialize import schedule_fingerprint
from repro.serve import (
    ProtocolError,
    SchedulingService,
    net_from_dict,
    net_to_dict,
    options_from_dict,
    start_server,
)
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    MAX_NESTING,
    MAX_WIRE_NODES,
    canonical_json,
    decode_line,
    nesting_depth,
    network_from_spec,
    resolve_sources,
)
from repro.serve.service import LatencyHistogram
from repro.util import BoundedLRU, raised_recursion_limit
from service_path import schedule_through


async def _request(port: int, payload: dict) -> dict:
    # a schedule response line can exceed asyncio's default 64 KiB limit
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    assert line, "server closed the connection without answering"
    return json.loads(line)


def _slow(delay: float):
    """A search wrapper adding ``delay`` so concurrent requests overlap."""

    def wrapper(net, source, **kwargs):
        time.sleep(delay)
        return find_schedule(net, source, **kwargs)

    return wrapper


def _line(payload: dict) -> bytes:
    """One request line, as :func:`_request` sends it."""
    return (json.dumps(payload) + "\n").encode()


class _Connection:
    """One client connection that sends a line and waits for its answer."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        return cls(
            *await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)
        )

    async def ask(self, line: bytes) -> bytes:
        """The raw response line to ``line``."""
        self.writer.write(line)
        await self.writer.drain()
        answer = await self.reader.readline()
        assert answer, "server closed the connection without answering"
        return answer

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


# ---------------------------------------------------------------------------
# protocol: net serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "builder,source",
    [
        (paper_nets.figure_4a, "a"),
        (paper_nets.figure_5, "a"),
        (paper_nets.figure_6, "d"),
        (paper_nets.figure_8, "a"),
    ],
)
def test_net_roundtrip_preserves_fingerprint_and_schedule(builder, source):
    net = builder()
    clone = net_from_dict(net_to_dict(net))
    assert structural_fingerprint(clone) == structural_fingerprint(net)
    original = find_schedule(net, source, raise_on_failure=True)
    replayed = find_schedule(clone, source, raise_on_failure=True)
    assert schedule_fingerprint(replayed.schedule) == schedule_fingerprint(
        original.schedule
    )


def test_net_to_dict_is_deterministic():
    first = canonical_json(net_to_dict(paper_nets.figure_5()))
    second = canonical_json(net_to_dict(paper_nets.figure_5()))
    assert first == second


def test_net_roundtrip_keeps_place_attributes():
    net = random_choice_net(3, seed=7)
    clone = net_from_dict(net_to_dict(net))
    assert set(clone.places) == set(net.places)
    assert set(clone.transitions) == set(net.transitions)
    assert clone.initial_tokens == net.initial_tokens
    for name, place in net.places.items():
        assert clone.places[name].bound == place.bound
    for name, transition in net.transitions.items():
        assert clone.transitions[name].source_kind == transition.source_kind


def test_net_from_dict_rejects_garbage():
    with pytest.raises(ProtocolError) as excinfo:
        net_from_dict({"places": [{"name": "p"}], "arcs": [["p", "ghost", 1]]})
    assert excinfo.value.kind == "bad-net"
    with pytest.raises(ProtocolError):
        net_from_dict("not a net")


_SWITCH_SOURCE = """
PROCESS sw (In DPORT inp, Out DPORT out) {
    int x;
    while (1) {
        READ_DATA(inp, &x, 1);
        switch (x % 3) {
            case 0: WRITE_DATA(out, x, 1); break;
            case -1: x = x + 1; break;
            default: WRITE_DATA(out, 0, 1);
        }
    }
}
"""


def _guarded_nets():
    from repro.apps.false_paths import build_select_rewrite_network
    from repro.apps.video import VideoAppConfig, build_video_system
    from repro.corpus import build_network, generate_spec
    from repro.flowc.linker import link

    for figure in (paper_nets.figure_4a, paper_nets.figure_5, paper_nets.figure_6, paper_nets.figure_8):
        yield figure()
    yield build_video_system(VideoAppConfig(4, 5)).net
    yield link(build_select_rewrite_network()).net
    yield link(network_from_spec({"program": _SWITCH_SOURCE})).net
    yield link(build_network(generate_spec(3))).net


def test_net_roundtrip_keeps_guards_fingerprint_and_bytes():
    guards = set()
    for net in _guarded_nets():
        clone = net_from_dict(json.loads(canonical_json(net_to_dict(net))))
        assert structural_fingerprint(clone) == structural_fingerprint(net), net.name
        assert canonical_json(net_to_dict(clone)) == canonical_json(net_to_dict(net))
        for name, transition in net.transitions.items():
            assert repr(clone.transitions[name].guard) == repr(transition.guard)
            guards.add(repr(transition.guard))
    # if/while, SELECT and switch guards all made the trip
    assert {"True", "False", "0", "1", "-1", "'default'"} <= guards


_VALID_NET_VALUES = {
    "tokens": 0,
    "bound": 0,
    "is_port": True,
    "is_sink": False,
    "weight": 2,
    "guard": "default",
    "select_priority": 1,
}


def _net_with(field, value):
    data = net_to_dict(paper_nets.figure_5())
    if field == "weight":
        data["arcs"][0][2] = value
    elif field in ("tokens", "bound", "is_port"):
        data["places"][0][field] = value
    else:
        data["transitions"][0][field] = value
    return data


@pytest.mark.parametrize(
    "field,value",
    [
        ("tokens", 1.9),
        ("tokens", True),
        ("tokens", "1"),
        ("tokens", -1),
        ("bound", 2.7),
        ("bound", True),
        ("bound", -1),
        ("is_port", "no"),
        ("is_port", 1),
        ("is_sink", 0),
        ("weight", 1.5),
        ("weight", True),
        ("weight", "2"),
        ("weight", 0),
        ("guard", 1.5),
        ("guard", "yes"),
        ("guard", [0]),
        ("select_priority", 0.5),
        ("select_priority", False),
    ],
)
def test_net_from_dict_refuses_values_instead_of_coercing(field, value):
    net_from_dict(_net_with(field, _VALID_NET_VALUES[field]))
    with pytest.raises(ProtocolError) as excinfo:
        net_from_dict(_net_with(field, value))
    assert excinfo.value.kind == "bad-net"
    assert field in str(excinfo.value)


# ---------------------------------------------------------------------------
# protocol: options and sources
# ---------------------------------------------------------------------------


def test_options_from_dict_defaults_and_whitelist():
    assert protocol.WIRE_OPTION_FIELDS == ("max_nodes",)
    assert options_from_dict(None) == SchedulerOptions()
    assert options_from_dict({}) == SchedulerOptions()
    assert options_from_dict({"max_nodes": 500}) == SchedulerOptions(max_nodes=500)
    with pytest.raises(ProtocolError) as excinfo:
        options_from_dict({"termination": "nope"})
    assert excinfo.value.kind == "bad-options"
    with pytest.raises(ProtocolError):
        options_from_dict({"warp_drive": True})
    with pytest.raises(ProtocolError):
        options_from_dict({"max_nodes": -1})


def test_options_from_dict_rejects_a_boolean_budget():
    with pytest.raises(ProtocolError) as excinfo:
        options_from_dict({"max_nodes": True})
    assert excinfo.value.kind == "bad-options"


def test_options_from_dict_caps_the_node_budget_at_the_library_default():
    assert MAX_WIRE_NODES == SchedulerOptions().max_nodes == 200_000
    assert options_from_dict({"max_nodes": MAX_WIRE_NODES}).max_nodes == MAX_WIRE_NODES
    with pytest.raises(ProtocolError) as excinfo:
        options_from_dict({"max_nodes": MAX_WIRE_NODES + 1})
    assert excinfo.value.kind == "bad-options"
    assert str(excinfo.value) == f"max_nodes must be at most {MAX_WIRE_NODES}"


def test_resolve_sources_validation():
    net = paper_nets.figure_5()
    assert resolve_sources(net, None) == net.uncontrollable_sources()
    assert resolve_sources(net, ["a"]) == ["a"]
    with pytest.raises(ProtocolError) as excinfo:
        resolve_sources(net, ["ghost"])
    assert excinfo.value.kind == "unknown-source"
    with pytest.raises(ProtocolError):
        resolve_sources(net, [])


def test_network_from_spec_auto_environment():
    network = network_from_spec({"program": DIVISORS_SOURCE})
    from repro.flowc.linker import link

    system = link(network)
    assert "src.divisors.in" in system.net.transitions


def _spec_with(part, field, value):
    spec = {
        "program": producer_consumer_source(4),
        "channels": [{"source": "producer.data", "target": "consumer.data"}],
        "inputs": [{"port": "producer.trigger"}],
        "outputs": [{"port": "consumer.sum"}],
    }
    (spec[part][0] if part else spec)[field] = value
    return spec


_VALID_SPEC_VALUES = {"bound": 0, "rate": 2, "controllable": True, "auto_environment": False}


@pytest.mark.parametrize(
    "part,field,value",
    [
        ("channels", "bound", 1.5),
        ("channels", "bound", True),
        ("channels", "bound", -1),
        ("inputs", "rate", 1.5),
        ("inputs", "rate", "2"),
        ("inputs", "rate", 0),
        ("inputs", "controllable", "false"),
        ("inputs", "controllable", 0),
        ("outputs", "rate", 1.5),
        ("outputs", "rate", True),
        (None, "auto_environment", "no"),
    ],
)
def test_network_from_spec_refuses_values_instead_of_coercing(part, field, value):
    network_from_spec(_spec_with(part, field, _VALID_SPEC_VALUES[field]))
    with pytest.raises(ProtocolError) as excinfo:
        network_from_spec(_spec_with(part, field, value))
    assert excinfo.value.kind == "bad-flowc"
    assert field in str(excinfo.value)


def test_refused_wire_values_start_no_search_over_the_wire():
    net = net_to_dict(paper_nets.figure_5())
    refused = [
        ({"net": _net_with("tokens", 1.9)}, "bad-net"),
        ({"flowc": _spec_with("inputs", "controllable", "false")}, "bad-flowc"),
        *(({"net": net, "timeout": t}, "bad-request") for t in (True, -1, 0, float("nan"))),
    ]
    lines = [_line({"op": "schedule", **payload}) for payload, _kind in refused]
    good = _line({"op": "schedule", "net": net, "sources": ["a"], "timeout": 30})

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            answers = [json.loads(await client.ask(line)) for line in lines]
            stats = json.loads(await client.ask(_line({"op": "stats"})))["stats"]
            return answers, stats, json.loads(await client.ask(good))
        finally:
            await client.close()
            await server.shutdown()

    answers, stats, accepted = asyncio.run(scenario())
    for (payload, kind), answer in zip(refused, answers):
        assert not answer["ok"] and answer["error"]["type"] == kind, (payload, answer)
    assert "positive number" in answers[-1]["error"]["message"]
    assert stats["live_searches"] == 0 and stats["timeouts"] == 0
    assert accepted["ok"], accepted


def test_decode_line_rejects_non_json():
    with pytest.raises(ProtocolError) as excinfo:
        decode_line(b"{not json")
    assert excinfo.value.kind == "bad-json"
    with pytest.raises(ProtocolError):
        decode_line(b'"a bare string"')


def _nested_id(depth: int) -> bytes:
    """A request line whose ``id`` nests ``depth`` levels (the line: one more)."""
    return b'{"op":"dance","id":' + b"[" * depth + b"]" * depth + b"}\n"


def test_decode_line_refuses_nesting_past_the_cap():
    assert decode_line(_nested_id(MAX_NESTING - 1))["op"] == "dance"
    for depth in (MAX_NESTING, 50000):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(_nested_id(depth))
        assert excinfo.value.kind == "bad-json"


def test_decode_line_maps_recursion_error_to_bad_json(monkeypatch):
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(protocol, "json", types.SimpleNamespace(loads=too_deep))
    with pytest.raises(ProtocolError) as excinfo:
        decode_line(b"[[[]]]")
    assert excinfo.value.kind == "bad-json"


def _depth(obj) -> int:
    if isinstance(obj, (dict, list)):
        children = obj.values() if isinstance(obj, dict) else obj
        return 1 + max(map(_depth, children), default=0)
    return 0


@pytest.mark.parametrize(
    "text",
    [
        r'{"a": "[[[{{{", "b": [1, [2]]}',  # brackets in a string do not nest
        r'{"a": "\"]]]", "b": [[[]]]}',  # nor after an escaped quote
        r'{"a": "\\", "b": [[[]]]}',  # an escaped backslash ends no string
        r'{"a": "[", "b": "]", "c": {}}',
        r'{"a": "\\\"{", "b": [{"c": [{}]}]}',
        "[]",
        '"x"',
        "5",
    ],
)
def test_nesting_depth_matches_the_decoded_structure(text):
    assert nesting_depth(text.encode()) == _depth(json.loads(text))


def test_nesting_depth_of_invalid_lines_is_never_negative():
    """Closers before any opener: a decoder fails at depth 0, not below."""
    assert [nesting_depth(line) for line in (b"]", b"]}", b"]][", b"}{[")] == [0, 0, 0, 1]


def test_nesting_depth_of_request_lines():
    lines = [
        _line({"op": "schedule", "flowc": {"program": DIVISORS_SOURCE}}),
        _line({"op": "schedule", "net": net_to_dict(paper_nets.figure_7(3))}),
    ]
    for line in lines:
        assert nesting_depth(line) == _depth(json.loads(line))


def test_latency_histogram_buckets():
    hist = LatencyHistogram()
    hist.observe(0.0005)
    hist.observe(0.003)
    hist.observe(120.0)
    snap = hist.as_dict()
    assert snap["count"] == 3
    assert snap["buckets"]["<=1ms"] == 1
    assert snap["buckets"]["<=4ms"] == 1
    assert snap["buckets"][">65.536s"] == 1


# ---------------------------------------------------------------------------
# end-to-end: schedule requests over TCP
# ---------------------------------------------------------------------------


def test_server_schedules_serialized_net():
    async def scenario():
        server = await start_server(max_workers=2)
        try:
            response = await _request(
                server.port,
                {
                    "id": "r1",
                    "op": "schedule",
                    "net": net_to_dict(paper_nets.figure_5()),
                    "sources": ["a"],
                },
            )
        finally:
            await server.shutdown()
        return response

    response = asyncio.run(scenario())
    assert response["ok"] and response["id"] == "r1"
    (result,) = response["results"]
    serial = find_schedule(paper_nets.figure_5(), "a", raise_on_failure=True)
    assert result["schedule_fingerprint"] == schedule_fingerprint(serial.schedule)
    assert result["counters"]["nodes_expanded"] == serial.counters.nodes_expanded
    assert result["success"] and not result["from_cache"]


def test_server_schedules_flowc_program():
    async def scenario():
        server = await start_server(max_workers=2)
        try:
            response = await _request(
                server.port,
                {"op": "schedule", "flowc": {"program": DIVISORS_SOURCE}},
            )
        finally:
            await server.shutdown()
        return response

    response = asyncio.run(scenario())
    assert response["ok"], response
    (result,) = response["results"]
    assert result["source"] == "src.divisors.in"
    assert result["success"]


def test_server_schedules_flowc_network_with_channels():
    spec = {
        "program": producer_consumer_source(4),
        "channels": [{"source": "producer.data", "target": "consumer.data", "bound": 4}],
    }

    async def scenario():
        server = await start_server(max_workers=2)
        try:
            return await _request(server.port, {"op": "schedule", "flowc": spec})
        finally:
            await server.shutdown()

    response = asyncio.run(scenario())
    assert response["ok"], response
    (result,) = response["results"]
    assert result["source"] == "src.producer.trigger"
    assert result["success"]


def test_server_error_envelopes():
    async def scenario():
        server = await start_server(max_workers=1)
        port = server.port
        try:
            bad_json = await _request(port, {})  # no net/flowc
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            raw = json.loads(await reader.readline())
            writer.close()
            unknown_op = await _request(port, {"op": "dance"})
            unknown_source = await _request(
                port,
                {
                    "op": "schedule",
                    "net": net_to_dict(paper_nets.figure_5()),
                    "sources": ["ghost"],
                },
            )
        finally:
            await server.shutdown()
        return bad_json, raw, unknown_op, unknown_source

    bad_request, bad_json, unknown_op, unknown_source = asyncio.run(scenario())
    assert not bad_request["ok"] and bad_request["error"]["type"] == "bad-request"
    assert not bad_json["ok"] and bad_json["error"]["type"] == "bad-json"
    assert not unknown_op["ok"] and unknown_op["error"]["type"] == "bad-request"
    assert not unknown_source["ok"]
    assert unknown_source["error"]["type"] == "unknown-source"


def test_retired_options_answer_bad_options_like_unknown_ones():
    """Protocol 2 dropped three scheduler options, protocol 3 two more and
    protocol 4 five more: naming one is an unknown option, refused before
    any search."""
    net = net_to_dict(paper_nets.figure_5())
    retired = {
        "backend": "scalar",
        "kernel_tier": "numpy",
        "intra_workers": 2,
        "objective": "cost",
        "candidate_limit": 8,
        "single_source": True,
        "use_invariant_heuristic": True,
        "validate": True,
        "invariant_precheck": True,
        "defer_sources": True,
    }
    assert not set(retired) & set(protocol.WIRE_OPTION_FIELDS)
    lines = [
        _line({"op": "schedule", "net": net, "options": {name: value}})
        for name, value in retired.items()
    ]

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            return [json.loads(await client.ask(line)) for line in lines]
        finally:
            await client.close()
            await server.shutdown()

    responses = asyncio.run(scenario())
    for name, response in zip(retired, responses):
        assert not response["ok"] and response["error"]["type"] == "bad-options"
        assert name in response["error"]["message"]
        assert response["protocol"] == protocol.PROTOCOL_VERSION == 4


def test_wrong_typed_options_answer_bad_options():
    net = net_to_dict(paper_nets.figure_6())
    lines = [
        _line({"op": "schedule", "net": net, "options": options})
        for options in ({"max_nodes": [1]}, {"max_nodes": "no"}, {"max_nodes": True})
    ]

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            return [json.loads(await client.ask(line)) for line in lines]
        finally:
            await client.close()
            await server.shutdown()

    for response in asyncio.run(scenario()):
        assert not response["ok"] and response["error"]["type"] == "bad-options"


def test_node_budget_over_the_cap_answers_bad_options_over_the_wire():
    net = net_to_dict(paper_nets.figure_5())
    lines = [
        _line({"op": "schedule", "net": net, "sources": ["a"], "options": {"max_nodes": n}})
        for n in (MAX_WIRE_NODES, MAX_WIRE_NODES + 1)
    ]

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            return [json.loads(await client.ask(line)) for line in lines]
        finally:
            await client.close()
            await server.shutdown()

    at_cap, over_cap = asyncio.run(scenario())
    assert at_cap["ok"]
    (result,) = at_cap["results"]
    assert result["success"]
    assert not over_cap["ok"] and over_cap["error"]["type"] == "bad-options"
    assert over_cap["error"]["message"] == f"max_nodes must be at most {MAX_WIRE_NODES}"


def test_oversized_line_gets_one_bad_request_and_its_connection_closes():
    async def scenario():
        server = await start_server(max_workers=1)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=MAX_LINE_BYTES
            )
            # one byte past the cap and no newline: the daemon has read every
            # byte when it refuses the line, so it closes with nothing unread
            writer.write(b"x" * (MAX_LINE_BYTES + 1))
            await writer.drain()
            answer = await reader.readline()
            rest = await reader.read()
            writer.close()
            fresh = await _Connection.open(server.port)
            try:
                pong = json.loads(await fresh.ask(_line({"op": "ping"})))
            finally:
                await fresh.close()
        finally:
            await server.shutdown()
        return answer, rest, pong

    answer, rest, pong = asyncio.run(scenario())
    response = json.loads(answer)
    assert not response["ok"] and response["error"]["type"] == "bad-request"
    assert response["error"]["message"] == f"request line exceeds {MAX_LINE_BYTES} bytes"
    assert rest == b""  # that one envelope, then the daemon closed the connection
    assert pong["ok"]  # and it still serves a fresh one


def test_stats_endpoint_reports_counters_and_histograms():
    async def scenario():
        server = await start_server(max_workers=1)
        try:
            # a search, then L1 hits, then the request memo
            for _ in range(3):
                await _request(
                    server.port,
                    {"op": "schedule", "net": net_to_dict(paper_nets.figure_5())},
                )
            return await _request(server.port, {"op": "stats"})
        finally:
            await server.shutdown()

    response = asyncio.run(scenario())
    assert response["ok"]
    stats = response["stats"]
    for key in (
        "requests",
        "responses",
        "coalesced",
        "cache_hits",
        "live_searches",
        "memo_hits",
        "memo_entries",
        "queue",
        "latency",
        "warmstart",
    ):
        assert key in stats, key
    assert stats["requests"] == 3 and stats["responses"] == 3
    assert stats["live_searches"] == 2  # figure_5 has two sources
    assert stats["l1_hits"] == 4 and stats["warmstart"]["hits"] == 4
    assert stats["memo_hits"] == 1 and stats["memo_entries"] == 1
    latency = stats["latency"]
    assert latency["search"]["count"] == 4  # the memo hit searched nothing
    assert latency["memo"]["count"] == 1
    assert latency["total"]["count"] == 3
    assert stats["queue"]["max_workers"] == 1
    assert response["server"]["draining"] is False


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


def test_coalescing_runs_one_live_search_for_n_clients():
    clients = 12

    async def scenario():
        server = await start_server(max_workers=2)
        server.service._search_fn = _slow(0.25)
        payload = {
            "op": "schedule",
            "net": net_to_dict(paper_nets.figure_5()),
            "sources": ["a"],
        }
        try:
            responses = await asyncio.gather(
                *[_request(server.port, payload) for _ in range(clients)]
            )
        finally:
            await server.shutdown()
        return responses, server.service.snapshot()

    responses, stats = asyncio.run(scenario())
    # exactly one live EP search happened, for all twelve clients
    assert stats["live_searches"] == 1
    assert stats["coalesced"] == clients - 1
    assert stats["errors"] == 0
    # and every client received byte-identical results
    bodies = {canonical_json(response["results"]) for response in responses}
    assert len(bodies) == 1
    assert all(response["ok"] for response in responses)


def test_requests_after_completion_hit_l1_not_coalesce():
    async def scenario():
        server = await start_server(max_workers=1)
        payload = {
            "op": "schedule",
            "net": net_to_dict(paper_nets.figure_6()),
            "sources": ["a"],
        }
        try:
            first = await _request(server.port, payload)
            second = await _request(server.port, payload)
            third = await _request(server.port, payload)
        finally:
            await server.shutdown()
        return first, second, third, server.service.snapshot()

    first, second, third, stats = asyncio.run(scenario())
    assert not first["results"][0]["from_cache"]
    assert second["results"][0]["from_cache"]
    # the third repeat of the line is answered by the request memo, which
    # counts the L1 hit it stands for
    assert third == second
    assert stats["coalesced"] == 0 and stats["l1_hits"] == 2
    assert stats["memo_hits"] == 1
    assert (
        first["results"][0]["schedule_fingerprint"]
        == second["results"][0]["schedule_fingerprint"]
    )


def test_distinct_options_do_not_coalesce():
    async def scenario():
        server = await start_server(max_workers=2)
        server.service._search_fn = _slow(0.15)
        net = net_to_dict(paper_nets.figure_5())
        try:
            responses = await asyncio.gather(
                _request(
                    server.port,
                    {"op": "schedule", "net": net, "sources": ["a"]},
                ),
                _request(
                    server.port,
                    {
                        "op": "schedule",
                        "net": net,
                        "sources": ["a"],
                        "options": {"max_nodes": 100_000},
                    },
                ),
            )
        finally:
            await server.shutdown()
        return responses, server.service.snapshot()

    responses, stats = asyncio.run(scenario())
    assert stats["coalesced"] == 0
    assert stats["live_searches"] == 2
    fingerprints = {r["results"][0]["schedule_fingerprint"] for r in responses}
    assert len(fingerprints) == 1  # both budgets find the same schedule


# ---------------------------------------------------------------------------
# cancellation and timeouts
# ---------------------------------------------------------------------------


def test_cancelled_waiter_does_not_kill_shared_search():
    """A waiter task cancelled mid-flight leaves the search running."""

    async def scenario():
        service = SchedulingService(max_workers=1)
        service._search_fn = _slow(0.3)
        net = paper_nets.figure_5()
        options = SchedulerOptions()
        # precomputed so the second waiter keys immediately instead of
        # queueing its fingerprint computation behind the busy worker
        fingerprint = structural_fingerprint(net)
        first = asyncio.create_task(
            service.schedule_source(net, "a", options, fingerprint=fingerprint)
        )
        await asyncio.sleep(0.05)  # let it register in the single-flight map
        second = asyncio.create_task(
            service.schedule_source(net, "a", options, fingerprint=fingerprint)
        )
        await asyncio.sleep(0.05)
        first.cancel()
        try:
            await first
        except asyncio.CancelledError:
            pass
        payload = await second
        service.close()
        return payload, service.snapshot()

    payload, stats = asyncio.run(scenario())
    assert payload["success"]
    assert stats["live_searches"] == 1
    assert stats["coalesced"] == 1


def test_disconnected_client_does_not_kill_shared_search():
    """A client that drops its socket mid-request leaves the search running."""

    async def scenario():
        server = await start_server(max_workers=1)
        server.service._search_fn = _slow(0.3)
        payload = {
            "op": "schedule",
            "net": net_to_dict(paper_nets.figure_6()),
            "sources": ["a"],
        }
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            await asyncio.sleep(0.1)  # request admitted, search in flight
            writer.close()  # ...and the client vanishes
            response = await _request(server.port, payload)
        finally:
            await server.shutdown()
        return response, server.service.snapshot()

    response, stats = asyncio.run(scenario())
    assert response["ok"] and response["results"][0]["success"]
    assert stats["live_searches"] == 1  # still exactly one search


def test_timeout_answers_error_and_search_completes_for_others():
    async def scenario():
        server = await start_server(max_workers=1)
        server.service._search_fn = _slow(0.4)
        payload = {
            "op": "schedule",
            "net": net_to_dict(paper_nets.figure_5()),
            "sources": ["a"],
        }
        try:
            timed_out, fine = await asyncio.gather(
                _request(server.port, {**payload, "timeout": 0.05}),
                _request(server.port, payload),
            )
        finally:
            await server.shutdown()
        return timed_out, fine, server.service.snapshot()

    timed_out, fine, stats = asyncio.run(scenario())
    assert not timed_out["ok"] and timed_out["error"]["type"] == "timeout"
    assert fine["ok"] and fine["results"][0]["success"]
    assert stats["timeouts"] == 1
    assert stats["live_searches"] == 1  # the timed-out waiter did not re-search


# ---------------------------------------------------------------------------
# shutdown
# ---------------------------------------------------------------------------


def test_shutdown_drains_in_flight_requests():
    async def scenario():
        server = await start_server(max_workers=1, drain_deadline=5.0)
        server.service._search_fn = _slow(0.3)
        payload = {
            "op": "schedule",
            "net": net_to_dict(paper_nets.figure_5()),
            "sources": ["a"],
        }
        request = asyncio.create_task(_request(server.port, payload))
        await asyncio.sleep(0.1)  # admitted before the drain starts
        clean = await server.shutdown()
        response = await request
        return clean, response

    clean, response = asyncio.run(scenario())
    assert clean is True
    assert response["ok"] and response["results"][0]["success"]


def test_shutdown_op_over_the_wire():
    async def scenario():
        server = await start_server(max_workers=1)
        response = await _request(server.port, {"op": "shutdown"})
        clean = await server.serve_until_shutdown()
        return response, clean

    response, clean = asyncio.run(scenario())
    assert response["ok"] and response["shutting_down"]
    assert clean is True


# ---------------------------------------------------------------------------
# the request memo
# ---------------------------------------------------------------------------


class _NeverHits(BoundedLRU):
    """A request memo that never answers: the server as it is without one."""

    def get(self, key, default=None):
        return default


def _numbered_searches():
    """A search wrapper stamping the n-th live search's ``elapsed_seconds`` n.

    Two servers fed one request sequence then give byte-identical answers
    only if they ran the same searches in the same order.
    """
    count = itertools.count(1)

    def wrapper(net, source, **kwargs):
        result = find_schedule(net, source, **kwargs)
        result.elapsed_seconds = float(next(count))
        return result

    return wrapper


def _schedule_line(builder, **fields) -> bytes:
    return _line({"op": "schedule", "net": net_to_dict(builder()), **fields})


def _memo_sequence(seed: int) -> list:
    """Seeded bursts of repeated lines: figure nets, FlowC, some with an id."""
    pool = [
        _schedule_line(builder)
        for builder in (
            paper_nets.figure_4a,
            paper_nets.figure_4b,  # unschedulable: failures are cached too
            paper_nets.figure_5,
            paper_nets.figure_8,
        )
    ] + [
        _schedule_line(paper_nets.figure_6, sources=["a"]),
        _schedule_line(paper_nets.figure_5, id="r1"),
        _schedule_line(paper_nets.figure_8, id=7),
        _line({"op": "schedule", "flowc": {"program": DIVISORS_SOURCE}}),
    ]
    rng = random.Random(seed)
    sequence = []
    for _ in range(30):
        sequence += [rng.choice(pool)] * rng.randint(1, 4)
    return sequence


def test_memo_answers_match_the_full_path_byte_for_byte(tmp_path):
    sequence = _memo_sequence(20261017)

    async def run(memo: bool, store):
        # l1_capacity=2: the L1 evicts, and evicted records return from disk
        server = await start_server(max_workers=2, l1_capacity=2, store=store)
        server.service._search_fn = _numbered_searches()
        if not memo:
            server.service._memo = _NeverHits(2)
        client = await _Connection.open(server.port)
        try:
            answers = [await client.ask(line) for line in sequence]
        finally:
            await client.close()
            await server.shutdown()
        return answers, server.service.snapshot()

    stores = [SqliteStore(tmp_path / name) for name in ("memo", "plain")]
    try:
        with_memo, memo_stats = asyncio.run(run(True, stores[0]))
        without, plain_stats = asyncio.run(run(False, stores[1]))
    finally:
        for store in stores:
            store.close()
    assert with_memo == without
    for key in ("requests", "responses", "l1_hits", "disk_hits", "live_searches"):
        assert memo_stats[key] == plain_stats[key], key
    assert memo_stats["warmstart"] == plain_stats["warmstart"]
    assert memo_stats["memo_hits"] > 0 and plain_stats["memo_hits"] == 0
    assert memo_stats["disk_hits"] > 0


def test_memo_never_answers_from_a_replaced_record():
    line = _schedule_line(paper_nets.figure_6, sources=["a"])
    same_key = _schedule_line(paper_nets.figure_6, sources=["a"], id="other")
    other_net = _schedule_line(paper_nets.figure_8)

    async def scenario():
        server = await start_server(max_workers=1, l1_capacity=1)
        server.service._search_fn = _numbered_searches()
        client = await _Connection.open(server.port)
        try:
            answers = [
                json.loads(await client.ask(request))
                for request in (
                    line,  # search 1
                    line,  # L1 hit, remembered
                    line,  # memo hit
                    other_net,  # search 2 evicts the record
                    same_key,  # search 3: a new record under the same key
                    line,  # the memo's record is gone: an L1 hit on the new one
                    line,  # memo hit, bound to the new record
                )
            ]
        finally:
            await client.close()
            await server.shutdown()
        return answers, server.service.snapshot()

    answers, stats = asyncio.run(scenario())
    elapsed = [answer["results"][0]["elapsed_seconds"] for answer in answers]
    from_cache = [answer["results"][0]["from_cache"] for answer in answers]
    assert elapsed == [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
    assert from_cache == [False, True, True, False, False, True, True]
    assert stats["memo_hits"] == 2 and stats["l1_hits"] == 4


def test_replay_hits_requires_the_same_record_object():
    service = SchedulingService(l1_capacity=2)
    cache = service.cache
    net = paper_nets.figure_6()
    schedule_through(service, net, "a")
    (key,) = list(cache._l1)
    record, _origin = cache.lookup_record_with_origin(net, "a", SchedulerOptions())
    hits = cache.stats.hits
    assert cache.replay_hits(((key, record),))
    assert cache.stats.hits == hits + 1
    assert not cache.replay_hits(((key, dict(record)),))  # equal, not the same
    assert not cache.replay_hits(((key, record), (("gone",), record)))
    assert cache.stats.hits == hits + 1


def _held_searches(release: threading.Event):
    """A search wrapper that holds its executor worker until ``release``."""

    def wrapper(net, source, **kwargs):
        release.wait(60)
        return find_schedule(net, source, **kwargs)

    return wrapper


def test_memo_hit_does_not_queue_behind_live_searches():
    line = _schedule_line(paper_nets.figure_6, sources=["a"])
    release = threading.Event()

    async def scenario():
        server = await start_server(max_workers=2)
        client = await _Connection.open(server.port)
        blockers = []
        try:
            await client.ask(line)
            expected = await client.ask(line)  # remembered from here on
            server.service._search_fn = _held_searches(release)
            blockers = [
                asyncio.create_task(
                    _request(
                        server.port,
                        {"net": net_to_dict(builder()), "sources": ["a"]},
                    )
                )
                for builder in (paper_nets.figure_5, paper_nets.figure_8)
            ]
            deadline = time.monotonic() + 5
            while server.service.queue_depth()["active_searches"] < 2:
                assert time.monotonic() < deadline, "the held searches never started"
                await asyncio.sleep(0.01)
            # both workers stay held until release: an answer that needed
            # the executor would wait for them and time out here
            answer = await asyncio.wait_for(client.ask(line), 5)
            both_pending = not any(blocker.done() for blocker in blockers)
        finally:
            release.set()
            await asyncio.gather(*blockers)
            await client.close()
            await server.shutdown()
        return answer, expected, both_pending

    answer, expected, both_pending = asyncio.run(scenario())
    assert answer == expected
    assert both_pending


def test_memoized_line_is_refused_while_draining():
    line = _schedule_line(paper_nets.figure_6, sources=["a"])

    async def scenario():
        server = await start_server(max_workers=1, drain_deadline=5.0)
        client = await _Connection.open(server.port)
        try:
            for _ in range(3):
                await client.ask(line)
            assert server.service.metrics.memo_hits == 1
            server.service._search_fn = _slow(0.3)
            in_flight = asyncio.create_task(
                _request(server.port, {"net": net_to_dict(paper_nets.figure_8())})
            )
            await asyncio.sleep(0.1)  # admitted: the drain waits for it
            shutdown = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.05)
            refused = json.loads(await client.ask(line))
        finally:
            await client.close()
        finished, clean = await in_flight, await shutdown
        return refused, finished, clean, server.service.metrics.memo_hits

    refused, finished, clean, memo_hits = asyncio.run(scenario())
    assert not refused["ok"] and refused["error"]["type"] == "shutting-down"
    assert finished["ok"] and clean is True
    assert memo_hits == 1


def test_memo_stores_only_all_cached_schedule_responses():
    stats_line = _line({"op": "stats"})
    both_sources = _schedule_line(paper_nets.figure_5)
    never_stored = [  # (line, times sent)
        (_line({"op": "ping"}), 3),
        (stats_line, 3),
        (b"this is not json\n", 3),
        (_line({"op": "dance"}), 3),
        (_schedule_line(paper_nets.figure_5, sources=["ghost"]), 3),
        # first sight of each key: from_cache false
        (_schedule_line(paper_nets.figure_6), 1),
        (_schedule_line(paper_nets.figure_5, sources=["a"]), 1),
        (both_sources, 1),  # "a" from the L1, "d" searched
    ]

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            for line, times in never_stored:
                for _ in range(times):
                    await client.ask(line)
            before = json.loads(await client.ask(stats_line))["stats"]
            await client.ask(both_sources)  # now every source is cached
            after = json.loads(await client.ask(stats_line))["stats"]
        finally:
            await client.close()
            await server.shutdown()
        return before, after

    before, after = asyncio.run(scenario())
    assert before["memo_entries"] == 0 and before["memo_hits"] == 0
    assert after["memo_entries"] == 1


# ---------------------------------------------------------------------------
# fuzz: malformed lines get typed errors and never reach the memo
# ---------------------------------------------------------------------------

#: Every error type a malformed request may get (``internal`` is a bug).
TYPED_ERRORS = {
    "bad-json",
    "bad-request",
    "bad-net",
    "bad-flowc",
    "bad-options",
    "unknown-source",
}


def _fuzz_lines(seed: int, count: int = 100) -> list:
    """``count`` seeded bad request lines, none of them blank."""
    rng = random.Random(seed)
    net = net_to_dict(paper_nets.figure_6())
    valid = _line({"op": "schedule", "net": net, "sources": ["a"]})
    wrong_typed = [
        {"net": 5},
        {"net": "figure_6"},
        {"net": [net]},
        {"net": {"places": 5}},
        {"net": {**net, "arcs": [["a"]]}},
        {"net": {**net, "places": [{"tokens": 1}]}},
        {"flowc": "PROCESS p"},
        {"flowc": [DIVISORS_SOURCE]},
        {"flowc": {"program": 7}},
        {"flowc": {"program": "PROCESS p ((("}},
        {"flowc": {"program": DIVISORS_SOURCE, "channels": 3}},
        {"net": net, "options": [1]},
        {"net": net, "options": {"max_nodes": [1]}},
        {"net": net, "options": {"max_nodes": "no"}},
        {"net": net, "options": {"max_nodes": True}},
        {"net": net, "options": {"warp": 9}},
        {"net": net, "sources": "a"},
        {"net": net, "sources": []},
        {"net": net, "sources": [["a"]]},
        {"net": net, "sources": {"a": 1}},
    ]

    def malformed():
        text = bytes(rng.choice(b'{}[]":,ab 01') for _ in range(rng.randint(1, 30)))
        return (text.strip() or b"{") + b"\n"

    def truncated():
        return valid[: rng.randint(1, len(valid) - 2)] + b"\n"

    def non_utf8():
        at = rng.randrange(len(valid) - 1)
        byte = bytes([rng.choice((0x80, 0xC0, 0xFE, 0xFF))])
        return valid[:at] + byte + valid[at + 1 :]

    def deeply_nested():
        depth = rng.choice((50, MAX_NESTING - 1, MAX_NESTING, 5000, 50000))
        opener, leaf, closer = rng.choice(((b"[", b"", b"]"), (b'{"a":', b"1", b"}")))
        inner = opener * depth + leaf + closer * depth
        wrapper = rng.choice((b"%s", b'{"net":%s}', b'{"op":"dance","id":%s}'))
        return wrapper % inner + b"\n"

    def wrong_field():
        return _line({"op": "schedule", **rng.choice(wrong_typed)})

    makers = (malformed, truncated, non_utf8, deeply_nested, wrong_field)
    return [rng.choice(makers)() for _ in range(count)]


def test_fuzzed_lines_get_typed_errors_and_leave_the_memo_alone():
    valid = _schedule_line(paper_nets.figure_6, sources=["a"])
    stats_line = _line({"op": "stats"})
    lines = _fuzz_lines(20261017)
    serial = find_schedule(paper_nets.figure_6(), "a", raise_on_failure=True)

    async def scenario():
        server = await start_server(max_workers=2)
        client = await _Connection.open(server.port)
        try:
            await client.ask(valid)
            await client.ask(valid)  # remembered
            before = json.loads(await client.ask(stats_line))["stats"]
            answers = [await client.ask(line) for line in lines]
            again = [await client.ask(line) for line in lines[::7]]
            after = json.loads(await client.ask(stats_line))["stats"]
            last = json.loads(await client.ask(valid))
        finally:
            await client.close()
            await server.shutdown()
        return answers, again, before, after, last

    answers, again, before, after, last = asyncio.run(scenario())
    kinds = [json.loads(answer)["error"]["type"] for answer in answers]
    assert set(kinds) <= TYPED_ERRORS, sorted(set(kinds) - TYPED_ERRORS)
    assert again == answers[::7]  # an error is never replayed from the memo
    assert before["memo_entries"] == after["memo_entries"] == 1
    assert after["memo_hits"] == before["memo_hits"] == 0
    assert last["ok"]
    (result,) = last["results"]
    assert result["from_cache"]
    assert result["schedule_fingerprint"] == schedule_fingerprint(serial.schedule)


def test_nesting_around_the_cap_gets_typed_errors():
    """An ``id`` within the cap is echoed; one level deeper is ``bad-json``."""
    depths = range(MAX_NESTING - 3, MAX_NESTING + 3)

    async def scenario():
        server = await start_server(max_workers=1)
        client = await _Connection.open(server.port)
        try:
            answers = [json.loads(await client.ask(_nested_id(d))) for d in depths]
            pong = json.loads(await client.ask(_line({"op": "ping"})))
        finally:
            await client.close()
            await server.shutdown()
        return answers, pong

    answers, pong = asyncio.run(scenario())
    for depth, answer in zip(depths, answers):
        if depth < MAX_NESTING:  # the line nests depth + 1 levels
            assert answer["error"]["type"] == "bad-request"  # unknown op
            assert canonical_json(answer["id"]) == "[" * depth + "]" * depth
        else:
            assert answer["error"]["type"] == "bad-json"
            assert "id" not in answer
    assert pong["ok"]


def test_deep_line_is_refused_while_a_search_holds_the_raised_limit():
    """A live EP search raises the process-wide recursion limit to 100 000.

    Before Python 3.12 that limit alone bounds json's C decoder, so without
    the cap a deep enough line would overflow the C stack.
    """
    release = threading.Event()
    hold = _held_searches(release)

    def holding_raised_limit(net, source, **kwargs):
        with raised_recursion_limit():  # as a live EP search does
            return hold(net, source, **kwargs)

    async def scenario():
        server = await start_server(max_workers=1)
        server.service._search_fn = holding_raised_limit
        search = asyncio.create_task(
            _request(server.port, {"net": net_to_dict(paper_nets.figure_6())})
        )
        client = await _Connection.open(server.port)
        try:
            deadline = time.monotonic() + 5
            while sys.getrecursionlimit() < 100_000:
                assert time.monotonic() < deadline, "the search never started"
                await asyncio.sleep(0.01)
            answers = [
                json.loads(await client.ask(_nested_id(depth)))
                for depth in (MAX_NESTING, 5000)
            ]
        finally:
            release.set()
            searched = await search
            await client.close()
            await server.shutdown()
        return answers, searched

    answers, searched = asyncio.run(scenario())
    assert [answer["error"]["type"] for answer in answers] == ["bad-json"] * 2
    assert searched["ok"] and searched["results"][0]["success"]
