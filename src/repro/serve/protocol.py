"""Wire protocol of the scheduling daemon: JSON lines over TCP.

One request per line, one response per line, both canonical JSON (sorted
keys, compact separators) terminated by ``\\n``.  Requests carry an ``op``:

``schedule``
    The workhorse.  The net arrives either pre-linked (``"net"``: the
    structure-only serialization produced by :func:`net_to_dict`) or as
    FlowC source (``"flowc"``: a program plus an optional netlist spec --
    channels, environment declarations -- compiled and linked server-side).
    Optional ``"sources"`` restricts which uncontrollable sources are
    scheduled (default: all of them) and ``"options"`` may set
    ``max_nodes``, the node budget of each search (the one
    :class:`~repro.scheduling.ep.SchedulerOptions` field on the wire).
``stats``
    Introspection: cache hit/miss/coalesce counters, queue depth and
    per-phase latency histograms (see ``serve.service``).
``ping``
    Liveness probe.
``shutdown``
    Ask the daemon to drain in-flight work and exit.

Responses echo the request ``id`` (when given) and carry either
``"ok": true`` plus op-specific fields or ``"ok": false`` plus an
``"error": {"type", "message"}`` object.  Schedule responses embed, per
source, the canonical schedule dict, its fingerprint, the original search's
:class:`~repro.scheduling.ep.SearchCounters` and the cache origin -- the
same canonical bytes regardless of which of N coalesced requesters receives
them.

The net serialization here is *structural*: places (tokens, bounds, port
flags), transitions (source kinds, sink flags, guards, priorities) and
weighted arcs.  Transition ``code`` and choice-place ``condition`` carry
opaque FlowC AST objects that neither scheduling nor fingerprinting reads,
so they do not travel; a round-tripped net schedules byte-identically to
the original (pinned by ``tests/test_serve.py``).
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.flowc.netlist import Network
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling.ep import SchedulerOptions

#: Version stamped into every response envelope; bump on breaking changes.
#: Version 2 dropped the EP backend, kernel-tier and intra-search worker
#: options and the two per-backend expansion counters of the responses;
#: version 3 dropped the two options of the deleted cost-based schedule
#: selection.
#: Version 4 dropped five options more, keeping ``max_nodes`` alone.
PROTOCOL_VERSION = 4

#: Upper bound on one request line (and the asyncio stream limit).  Nets of
#: tens of thousands of nodes fit comfortably; anything bigger should ship
#: as FlowC source, which is far denser than an arc list.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Largest ``max_nodes`` a request may give: the library default.  A
#: waiter's timeout detaches the waiter but never stops the shared search,
#: so the node budget is what bounds how long one request holds a worker.
MAX_WIRE_NODES = 200_000

#: Deepest array/object nesting a request line may use (a schedule request
#: needs about six levels).  json's C decoder recurses once per level, and
#: before Python 3.12 only the interpreter's recursion limit stops it --
#: which a live EP search raises process-wide to 100 000, deep enough to
#: overflow the C stack.  Lines nesting deeper are refused before decoding.
MAX_NESTING = 512

# the bytes that delimit JSON strings and containers; [{ step in, ]} step out
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


class ProtocolError(Exception):
    """A malformed or unsupported request; maps to an error response.

    ``kind`` is the stable machine-readable error type echoed on the wire
    (``bad-json``, ``bad-request``, ``bad-net``, ``bad-flowc``,
    ``bad-options``, ``unknown-source``, ``timeout``, ``shutting-down``,
    ``internal``).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def canonical_json(obj) -> str:
    """Canonical encoding shared by responses and fingerprints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_line(obj: Mapping[str, object]) -> bytes:
    """One wire line: canonical JSON + newline, UTF-8."""
    return (canonical_json(obj) + "\n").encode("utf-8")


def nesting_depth(line: bytes) -> int:
    """How deep ``line``'s arrays and objects nest, brackets in strings aside.

    Exact for valid JSON; for invalid JSON, at least the depth a decoder
    reaches before the first error.  Linear in the line's length.
    """
    if b"\\" in line:
        # drop escape pairs first, so every remaining quote delimits a string
        line = line.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = line.translate(None, _NOT_MARKS).replace(b'""', b"")
    if b'"' in marks:  # brackets inside strings: keep the ones outside
        marks = b"".join(marks.split(b'"')[::2])
    return max(accumulate(array("b", marks.translate(_STEPS)), initial=0))


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one request line into a dict, raising :class:`ProtocolError`."""
    # counting openers is cheap and bounds the depth; only a line with more
    # than MAX_NESTING of them is measured exactly
    if (
        line.count(b"[") + line.count(b"{") > MAX_NESTING
        and nesting_depth(line) > MAX_NESTING
    ):
        raise ProtocolError(
            "bad-json", f"request nests deeper than {MAX_NESTING} levels"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError("bad-json", f"request is not valid JSON: {error}")
    except RecursionError:
        raise ProtocolError("bad-json", "request nests too deeply to decode")
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# net serialization
# ---------------------------------------------------------------------------


def net_to_dict(net: PetriNet) -> Dict[str, object]:
    """Structure-only JSON form of a net (inverse: :func:`net_from_dict`).

    Deterministic: places, transitions and arcs are listed in sorted name
    order and default-valued attributes are omitted, so two structurally
    identical nets serialize to identical bytes.

    Example::

        >>> from repro.apps.paper_nets import figure_5
        >>> data = net_to_dict(figure_5())
        >>> sorted(data)
        ['arcs', 'name', 'places', 'transitions']
    """
    places: List[Dict[str, object]] = []
    for name in sorted(net.places):
        place = net.places[name]
        entry: Dict[str, object] = {"name": name}
        tokens = net.initial_tokens.get(name, 0)
        if tokens:
            entry["tokens"] = int(tokens)
        if place.bound is not None:
            entry["bound"] = int(place.bound)
        if place.is_port:
            entry["is_port"] = True
        if place.channel is not None:
            entry["channel"] = place.channel
        if place.process is not None:
            entry["process"] = place.process
        places.append(entry)
    transitions: List[Dict[str, object]] = []
    for name in sorted(net.transitions):
        transition = net.transitions[name]
        entry = {"name": name}
        if transition.source_kind is not SourceKind.NONE:
            entry["source_kind"] = transition.source_kind.value
        if transition.is_sink:
            entry["is_sink"] = True
        if transition.guard is not None:
            entry["guard"] = transition.guard
        if transition.select_priority is not None:
            entry["select_priority"] = int(transition.select_priority)
        if transition.process is not None:
            entry["process"] = transition.process
        transitions.append(entry)
    arcs: List[List[object]] = []
    for transition in sorted(net.pre):
        for place, weight in sorted(net.pre[transition].items()):
            arcs.append([place, transition, int(weight)])
    for transition in sorted(net.post):
        for place, weight in sorted(net.post[transition].items()):
            arcs.append([transition, place, int(weight)])
    return {
        "name": net.name,
        "places": places,
        "transitions": transitions,
        "arcs": arcs,
    }


def _integer(value: object, kind: str, field: str, of: object = None, *, minimum=None) -> int:
    """``value`` when it is a JSON integer (not a boolean) of at least
    ``minimum``; a :class:`ProtocolError` of ``kind`` naming ``field`` (of
    ``of``, when given) otherwise."""
    if type(value) is not int or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ProtocolError(kind, f"{_what(field, of)} must be an integer{floor}, got {value!r}")
    return value


def _optional_integer(value: object, kind: str, field: str, of: object = None, *, minimum=None):
    return None if value is None else _integer(value, kind, field, of, minimum=minimum)


def _boolean(value: object, kind: str, field: str, of: object = None) -> bool:
    if type(value) is not bool:
        raise ProtocolError(kind, f"{_what(field, of)} must be a JSON boolean, got {value!r}")
    return value


def _what(field: str, of: object) -> str:
    return field if of is None else f"{field} of {of!r}"


def net_from_dict(data: Mapping[str, object]) -> PetriNet:
    """Rebuild a net from :func:`net_to_dict` output (wire requests).

    Validates shape as it goes; any inconsistency (unknown arc endpoint,
    non-positive weight, duplicate name) raises :class:`ProtocolError` with
    kind ``bad-net``.  Values are refused, never coerced: tokens, bounds and
    weights are JSON integers (tokens and bounds non-negative, weights
    positive), flags are JSON booleans, and a guard is a boolean, an
    integer or ``"default"``.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError("bad-net", "net must be a JSON object")
    try:
        net = PetriNet(name=str(data.get("name", "net")))
        for entry in data.get("places", ()):
            name = str(entry["name"])
            net.add_place(
                name,
                _integer(entry.get("tokens", 0), "bad-net", "tokens", name, minimum=0),
                bound=_optional_integer(entry.get("bound"), "bad-net", "bound", name, minimum=0),
                is_port=_boolean(entry.get("is_port", False), "bad-net", "is_port", name),
                channel=entry.get("channel"),
                process=entry.get("process"),
            )
        for entry in data.get("transitions", ()):
            name = str(entry["name"])
            guard = entry.get("guard")
            if not (guard is None or guard == "default" or isinstance(guard, int)):
                raise ProtocolError(
                    "bad-net",
                    f"guard of {name!r} must be a boolean, an integer or 'default', got {guard!r}",
                )
            net.add_transition(
                name,
                source_kind=SourceKind(entry.get("source_kind", "none")),
                is_sink=_boolean(entry.get("is_sink", False), "bad-net", "is_sink", name),
                guard=guard,
                select_priority=_optional_integer(
                    entry.get("select_priority"), "bad-net", "select_priority", name
                ),
                process=entry.get("process"),
            )
        for arc in data.get("arcs", ()):
            src, dst, weight = arc
            net.add_arc(str(src), str(dst), _integer(weight, "bad-net", "arc weight", arc, minimum=1))
        net.validate()
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError("bad-net", f"invalid net serialization: {error}")
    return net


# ---------------------------------------------------------------------------
# FlowC requests
# ---------------------------------------------------------------------------


def _port_ref(text: object) -> Tuple[str, str]:
    if not isinstance(text, str) or "." not in text:
        raise ProtocolError("bad-flowc", f"port reference {text!r} is not 'process.port'")
    process, port = text.split(".", 1)
    return process, port


def _rate(spec: Mapping[str, object]) -> int:
    return _integer(spec.get("rate", 1), "bad-flowc", "rate", spec["port"], minimum=1)


def network_from_spec(payload: Mapping[str, object]) -> Network:
    """Build a :class:`~repro.flowc.netlist.Network` from a wire FlowC spec.

    ``payload`` carries ``program`` (FlowC source declaring one or more
    processes) and optionally ``channels`` (``{"source": "p.port",
    "target": "p.port", "bound": int?, "name": str?}``), ``inputs`` /
    ``outputs`` (environment declarations, ``{"port": "p.port",
    "controllable": bool?, "rate": int?}``) and ``name``.  Unless
    ``auto_environment`` is set to false, any port still unconnected after
    those declarations is auto-declared -- inputs as *uncontrollable*
    environment inputs, outputs as environment outputs -- so a bare program
    is immediately schedulable.  Bounds must be non-negative JSON integers,
    rates positive ones and flags JSON booleans; other values answer
    ``bad-flowc``.
    """
    program = payload.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ProtocolError("bad-flowc", "flowc request needs a non-empty 'program' string")
    network = Network(name=str(payload.get("name", "system")))
    try:
        network.add_processes_from_source(program)
        for spec in payload.get("channels", ()):
            s_process, s_port = _port_ref(spec["source"])
            t_process, t_port = _port_ref(spec["target"])
            network.connect(
                s_process,
                s_port,
                t_process,
                t_port,
                name=spec.get("name"),
                bound=_optional_integer(
                    spec.get("bound"), "bad-flowc", "channel bound", spec["source"], minimum=0
                ),
            )
        for spec in payload.get("inputs", ()):
            process, port = _port_ref(spec["port"])
            network.declare_input(
                process,
                port,
                controllable=_boolean(
                    spec.get("controllable", False), "bad-flowc", "controllable", spec["port"]
                ),
                rate=_rate(spec),
            )
        for spec in payload.get("outputs", ()):
            process, port = _port_ref(spec["port"])
            network.declare_output(process, port, rate=_rate(spec))
        if _boolean(payload.get("auto_environment", True), "bad-flowc", "auto_environment"):
            declared = set(network.environment_inputs) | set(network.environment_outputs)
            for ref, direction in network.unconnected_ports():
                if ref in declared:
                    continue
                if direction == "input":
                    network.declare_input(ref.process, ref.port, controllable=False)
                else:
                    network.declare_output(ref.process, ref.port)
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError("bad-flowc", f"invalid FlowC request: {error}")
    return network


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

#: SchedulerOptions fields settable over the wire: the node budget only.
#: ``termination`` is deliberately absent: arbitrary condition objects have
#: no JSON form and would defeat both fingerprint keying and the caches.
#: ``use_invariant_heuristic=False`` is the library's ablation baseline.
WIRE_OPTION_FIELDS = ("max_nodes",)


def options_from_dict(data: Optional[Mapping[str, object]]) -> SchedulerOptions:
    """Whitelisted :class:`SchedulerOptions` from a request's ``options``.

    Unknown fields are rejected rather than ignored: a typoed knob that
    silently fell back to defaults would be served from the wrong cache key
    forever after.
    """
    if data is None:
        return SchedulerOptions()
    if not isinstance(data, Mapping):
        raise ProtocolError("bad-options", "options must be a JSON object")
    unknown = set(data) - set(WIRE_OPTION_FIELDS)
    if unknown:
        raise ProtocolError(
            "bad-options",
            f"unknown option(s) {sorted(unknown)}; settable: {list(WIRE_OPTION_FIELDS)}",
        )
    options = SchedulerOptions(**data)
    _integer(options.max_nodes, "bad-options", "max_nodes", minimum=1)
    if options.max_nodes > MAX_WIRE_NODES:
        raise ProtocolError("bad-options", f"max_nodes must be at most {MAX_WIRE_NODES}")
    return options


def resolve_sources(net: PetriNet, requested: Optional[Sequence[object]]) -> List[str]:
    """The source transitions one request schedules, validated against ``net``."""
    if requested is None:
        sources = net.uncontrollable_sources()
        if not sources:
            raise ProtocolError(
                "unknown-source", "net has no uncontrollable source transitions"
            )
        return sources
    if not isinstance(requested, (list, tuple)) or not requested:
        raise ProtocolError("bad-request", "'sources' must be a non-empty list")
    sources = []
    for item in requested:
        name = str(item)
        if name not in net.transitions:
            raise ProtocolError("unknown-source", f"unknown transition {name!r}")
        sources.append(name)
    return sources


def error_response(request_id: object, error: ProtocolError) -> Dict[str, object]:
    """The error envelope for one failed request."""
    body: Dict[str, object] = {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "error": {"type": error.kind, "message": str(error)},
    }
    if request_id is not None:
        body["id"] = request_id
    return body
