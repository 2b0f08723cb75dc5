"""Pinned FlowC front-end outputs: AST digests and prefix-truncation errors.

``tests/golden/flowc/ast_sha256.json`` maps each pinned program to
``sha256(repr(parse_program(source)))``: the Figure 18 PFC system at its 100
frame geometries and the corpus-pool programs of spec seeds 0-299.
``tests/golden/flowc/prefix_errors.json`` holds, for a handful of programs,
the :class:`FlowCParseError` or :class:`FlowCLexError` text of every prefix
``source[:k]`` (``""`` where the prefix parses).  Both were generated with
the character-loop scanner that the master-pattern lexer replaced, on
programs none of that scanner's four position and number defects touch, so
they pin that the rewrite kept every AST and every error message.

``tests/test_flowc_frontend.py`` diffs both.  Regenerate them only for an
intended change of the language::

    PYTHONPATH=src python tests/flowc_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.apps.divisors import DIVISORS_SOURCE
from repro.apps.video import VideoAppConfig, video_flowc_source
from repro.corpus.generator import generate_spec
from repro.corpus.topologies import emit_program
from repro.flowc.lexer import FlowCLexError
from repro.flowc.parser import FlowCParseError, parse_program

FIXTURES = Path(__file__).parent / "golden" / "flowc"
AST_FIXTURE = FIXTURES / "ast_sha256.json"
PREFIX_FIXTURE = FIXTURES / "prefix_errors.json"

#: the frame geometries of the PFC system (lines x pixels)
PFC_GEOMETRIES = [(lines, pixels) for lines in range(2, 12) for pixels in range(2, 12)]

#: corpus-pool spec seeds whose programs are pinned (every family)
POOL_SEEDS = range(300)

#: every literal and operator kind the parser accepts, in one process
LITERALS_SOURCE = """
/* timing-annotated process
   with every literal kind */
PROCESS lit (In DPORT a, In DPORT b, Out DPORT o) WCET(12) {
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


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    digests = {name: ast_digest(source) for name, source in ast_programs().items()}
    AST_FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    errors = {name: prefix_errors(source) for name, source in prefix_programs().items()}
    PREFIX_FIXTURE.write_text(json.dumps(errors, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {AST_FIXTURE} ({len(digests)} programs) and {PREFIX_FIXTURE}")


if __name__ == "__main__":
    main()
