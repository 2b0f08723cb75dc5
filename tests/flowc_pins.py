"""Pinned FlowC front-end outputs: AST digests and prefix-truncation errors.

``tests/golden/flowc/ast_sha256.json`` maps each pinned program to
``sha256(repr(parse_program(source)))``: the Figure 18 PFC system at its 100
frame geometries and the corpus-pool programs of spec seeds 0-299.
``tests/golden/flowc/prefix_errors.json`` holds, for a handful of programs,
the :class:`FlowCParseError` or :class:`FlowCLexError` text of every prefix
``source[:k]`` (``""`` where the prefix parses).  Both were first generated
with the character-loop scanner that the master-pattern lexer replaced, on
programs none of that scanner's four position and number defects touch, so
they pin that the rewrite kept every AST and every error message.

When the ``WCET(n)`` process annotation left the language (and ``Process``
its ``wcet`` field), the pins were regenerated by the front end that still
parsed it, not by the new one: each AST digest is that front end's
``sha256(repr(parse_program(source)).replace(", wcet=None)", ")"))`` on the
annotation-free program text, and the ``literals`` prefix errors are its
errors on the annotation-free :data:`LITERALS_SOURCE`.  The ``divisors`` and
``pool_28`` prefix errors never carried an annotation and are unchanged.

``tests/golden/flowc/net_sha256.json`` maps each pinned system to the
sha256 of the ``repr`` of its linked net and symbol tables (:func:`net_digest`:
places and transitions with their attributes, ``pre``, ``post`` and the
initial tokens, all in dict order, then ``channel_places``,
``port_place_of``, ``environment_transitions``, ``initial_places`` and
``declarations``): the PFC system at its 100 frame geometries, the corpus
pool's 3,000 specs and twenty Figure-4b specs.  It pins that a change of the
linker keeps every linked net down to dict order.

``tests/test_flowc_frontend.py`` diffs all three.  Regenerate them only for
an intended change of the language or of the linked nets::

    PYTHONPATH=src python tests/flowc_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

from repro.apps.divisors import DIVISORS_SOURCE
from repro.apps.video import VideoAppConfig, build_video_network, video_flowc_source
from repro.corpus.generator import DEFAULT_SEED, generate_spec, make_unschedulable_spec
from repro.corpus.topologies import build_network, emit_program
from repro.flowc.lexer import FlowCLexError
from repro.flowc.linker import LinkedSystem, link
from repro.flowc.netlist import Network
from repro.flowc.parser import FlowCParseError, parse_program

FIXTURES = Path(__file__).parent / "golden" / "flowc"
AST_FIXTURE = FIXTURES / "ast_sha256.json"
PREFIX_FIXTURE = FIXTURES / "prefix_errors.json"
NET_FIXTURE = FIXTURES / "net_sha256.json"

#: the frame geometries of the PFC system (lines x pixels)
PFC_GEOMETRIES = [(lines, pixels) for lines in range(2, 12) for pixels in range(2, 12)]

#: corpus-pool spec seeds whose programs are pinned (every family)
POOL_SEEDS = range(300)

#: corpus-pool spec seeds whose linked nets are pinned (the whole pool)
NET_POOL_SEEDS = range(3000)

#: seeds of the Figure-4b specs whose linked nets are pinned
NET_UNSCHEDULABLE_SEEDS = [DEFAULT_SEED + i for i in range(20)]

#: every literal and operator kind the parser accepts, in one process
LITERALS_SOURCE = """
/* one process
   with every literal kind */
PROCESS lit (In DPORT a, In DPORT b, Out DPORT o) {
    int v, k[4], c = 'x';
    float g = 1.5e-3, h = 2., e = 3E+2;
    while (1) {
        switch (SELECT(a, 1, b, 2)) {
            case 0: READ_DATA(a, &v, 1); break;
            default: READ_DATA(b, k, 2);
        }
        v += c > 'a' ? k[0] << 2 : -v;
        v %= 7; v *= *k; v /= 1; v -= v-- + ++v;
        if (!(v != 0) && v <= 3 || ~v >= 1) printf("v=%d\\t\\"q\\"\\n", v);
        else ;
        for (c = 0; c < 4; c++) { k[c] = k[c] ^ v | c & 1 >> 1; continue; }
        WRITE_DATA(o, v == 1 ? g : h, 1);
        return;
    }
}
"""


def ast_programs() -> Dict[str, str]:
    """The programs of the AST pin, by name."""
    programs = {
        f"pfc_{lines}x{pixels}": video_flowc_source(VideoAppConfig(lines, pixels))
        for lines, pixels in PFC_GEOMETRIES
    }
    programs.update(
        {f"pool_{seed}": emit_program(generate_spec(seed)) for seed in POOL_SEEDS}
    )
    return programs


def ast_digest(source: str) -> str:
    """sha256 of the parsed AST's ``repr``."""
    return hashlib.sha256(repr(parse_program(source)).encode()).hexdigest()


def prefix_programs() -> Dict[str, str]:
    """The programs of the prefix-error pin, by name."""
    return {
        "divisors": DIVISORS_SOURCE,
        "pool_28": emit_program(generate_spec(28)),
        "literals": LITERALS_SOURCE,
    }


def prefix_errors(source: str) -> List[str]:
    """The front end's error text for each prefix ``source[:k]``, ``k`` from 0
    to ``len(source)`` (``""`` where the prefix parses)."""
    messages = []
    for k in range(len(source) + 1):
        try:
            parse_program(source[:k])
        except (FlowCLexError, FlowCParseError) as error:
            messages.append(f"{type(error).__name__}: {error}")
        else:
            messages.append("")
    return messages


def linked_networks() -> Dict[str, Callable[[], Network]]:
    """The systems of the linked-net pin, by name, as network builders."""
    networks: Dict[str, Callable[[], Network]] = {
        f"pfc_{lines}x{pixels}": (
            lambda lines=lines, pixels=pixels: build_video_network(VideoAppConfig(lines, pixels))
        )
        for lines, pixels in PFC_GEOMETRIES
    }
    networks.update(
        {
            f"pool_{seed}": lambda seed=seed: build_network(generate_spec(seed))
            for seed in NET_POOL_SEEDS
        }
    )
    networks.update(
        {
            f"unschedulable_{seed}": lambda seed=seed: build_network(make_unschedulable_spec(seed))
            for seed in NET_UNSCHEDULABLE_SEEDS
        }
    )
    return networks


def net_digest(system: LinkedSystem) -> str:
    """sha256 of the ``repr`` of a linked net and its symbol tables, in dict order."""
    net = system.net
    value = (
        list(net.places.values()),
        list(net.transitions.values()),
        list(net.pre.items()),
        list(net.post.items()),
        list(net.initial_tokens.items()),
        list(system.channel_places.items()),
        list(system.port_place_of.items()),
        list(system.environment_transitions.items()),
        list(system.initial_places.items()),
        list(system.declarations.items()),
    )
    return hashlib.sha256(repr(value).encode()).hexdigest()


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    digests = {name: ast_digest(source) for name, source in ast_programs().items()}
    AST_FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    errors = {name: prefix_errors(source) for name, source in prefix_programs().items()}
    PREFIX_FIXTURE.write_text(json.dumps(errors, indent=1, ensure_ascii=False) + "\n")
    nets = {name: net_digest(link(build())) for name, build in linked_networks().items()}
    NET_FIXTURE.write_text(json.dumps(nets, indent=1) + "\n")
    print(
        f"wrote {AST_FIXTURE} ({len(digests)} programs), {PREFIX_FIXTURE} "
        f"and {NET_FIXTURE} ({len(nets)} systems)"
    )


if __name__ == "__main__":
    main()
