"""Tests for the FlowC front-end: lexer, parser, leaders, compiler, linker.

The lexer is diffed against the character-loop scanner it replaced
(``tests/flowc_reference_lexer.py``) on generated programs and a seeded
fuzz, and the parser's ASTs and error messages against the pins of
``tests/flowc_pins.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from flowc_pins import (
    AST_FIXTURE,
    PREFIX_FIXTURE,
    ast_digest,
    ast_programs,
    prefix_errors,
    prefix_programs,
)
from flowc_reference_lexer import reference_tokenize
from repro.apps.divisors import DIVISORS_SOURCE
from repro.apps.false_paths import CONSTANT_LOOP_SOURCE, SELECT_REWRITE_SOURCE
from repro.apps.video import VideoAppConfig, video_flowc_source
from repro.apps.workloads import pipeline_source, producer_consumer_source
from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Declaration,
    Identifier,
    If,
    IntLiteral,
    ReadData,
    SelectExpr,
    Switch,
    While,
    WriteData,
    ports_referenced,
    statement_children,
)
from repro.flowc.compiler import (
    CompilationError,
    SelectCondition,
    compile_process,
    constant_trip_count,
    evaluate_constant,
)
from repro.flowc.leaders import contains_port_statement, is_port_statement, portions
from repro.corpus.generator import generate_spec
from repro.corpus.topologies import emit_program
from repro.flowc.lexer import FlowCLexError, Token, position, tokenize
from repro.flowc.linker import link
from repro.flowc.netlist import Network, NetworkError
from repro.flowc.parser import (
    FlowCParseError,
    parse_expression,
    parse_process,
    parse_program,
    parse_statements,
)
from repro.petrinet.analysis import is_unique_choice_net


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


def test_tokenize_basic_stream():
    tokens = tokenize("int x = 10; // comment\nx += 2;")
    kinds = [t.kind for t in tokens]
    values = [t.value for t in tokens]
    assert "keyword" in kinds and "ident" in kinds and "int" in kinds
    assert "+=" in values
    assert tokens[-1].kind == "eof"


def test_tokenize_floats_strings_chars_comments():
    tokens = tokenize('float f = 1.5e2; char c = \'A\'; /* block\ncomment */ "text"')
    values = {t.value for t in tokens}
    assert "1.5e2" in values
    assert str(ord("A")) in values
    assert "text" in values


def test_tokenize_errors():
    with pytest.raises(FlowCLexError):
        tokenize("int x = @;")
    with pytest.raises(FlowCLexError):
        tokenize('"unterminated')
    with pytest.raises(FlowCLexError):
        tokenize("/* never closed")


def test_eof_after_a_trailing_line_comment_sits_past_the_comment():
    assert tokenize("x // c")[-1] == Token("eof", "", 1, 7)
    with pytest.raises(FlowCParseError) as excinfo:
        parse_program("PROCESS p () { // c")
    assert str(excinfo.value) == "expected '}' (line 1, column 20, got '')"


def test_backslash_newline_in_a_string_starts_a_line():
    tokens = tokenize('x\n"a\\\nb" y')
    assert tokens[1] == Token("string", "a\nb", 2, 1)  # the line it starts on
    assert tokens[2] == Token("ident", "y", 3, 4)


def test_raw_newline_in_a_char_literal_starts_a_line():
    tokens = tokenize("'\n' y")
    assert tokens[0] == Token("int", "10", 1, 1)
    assert tokens[1] == Token("ident", "y", 2, 3)


@pytest.mark.parametrize("digit", ["²", "٣"])  # superscript two, Arabic-Indic three
def test_number_literals_are_ascii_digits_only(digit):
    with pytest.raises(FlowCLexError) as excinfo:
        tokenize(f"x = {digit};")
    assert str(excinfo.value) == f"unexpected character {digit!r} at line 1, column 5"
    with pytest.raises(FlowCLexError):
        parse_program(f"PROCESS p () {{ int x; x = 1{digit}; }}")
    # identifiers still continue on any str.isalnum character
    assert [t.value for t in tokenize(f"x{digit} é{digit}")][:2] == [f"x{digit}", f"é{digit}"]


def test_parse_error_carries_the_positioned_token():
    with pytest.raises(FlowCParseError) as excinfo:
        parse_process("PROCESS p (In DPORT x) {\n    int v;\n    v = ;\n}")
    assert excinfo.value.token == Token("op", ";", 3, 9)
    assert str(excinfo.value) == "expected an expression (line 3, column 9, got ';')"


def test_tokenize_positions_agree_with_on_demand_positions():
    """The linear pass of tokenize() and position() give the same answer."""
    source = "/* a\n b */ x\n\n  y 'q'\r\n\t\"s\" // tail\nz"
    tokens = tokenize(source)
    offsets = [source.index(text) for text in ("x", "y", "'q'", '"s"', "z")] + [len(source)]
    assert [(t.line, t.column) for t in tokens] == [position(source, o) for o in offsets]


# ---------------------------------------------------------------------------
# lexer vs the reference scanner
# ---------------------------------------------------------------------------


def _scan(tokenizer, source: str):
    """Every token as ``(kind, value, line, column)``, or the error text."""
    try:
        return [(t.kind, t.value, t.line, t.column) for t in tokenizer(source)]
    except FlowCLexError as error:
        return str(error)


def _assert_scans_like_the_reference(sources) -> None:
    for source in sources:
        assert _scan(tokenize, source) == _scan(reference_tokenize, source), source


#: fuzz fragments that keep a string lexable
_FRAGMENTS = (
    # identifiers and keywords, ASCII and not
    "x", "acc", "_t1", "PROCESS", "In", "Out", "DPORT", "while", "int", "float",
    "READ_DATA", "WRITE_DATA", "SELECT", "WCET", "é", "ßeta", "Ωmega",
    "xʰ", "x²", "a٣",
    # numbers
    "0", "42", "007", "1.5", "2.", "3e8", "4E-2", "5.5e+3", "8.e1",
    # operators and punctuation, including pairs that are no operator
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "<<", ">>", "&=", "^=", "|=", "+", "-", "*", "/", "%", "<", ">", "=",
    "!", "&", "|", "^", "~", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
    # whitespace and comments
    " ", "  ", "\t", "\r", "\n", "\n    ", "// note", "//", "/* a */",
    "/* two\nlines */", "/**/", "*/",
    # string and character literals with escapes and newlines
    '"abc"', '""', '"a\\nb"', '"tab\\t"', '"q\\""', '"back\\\\"', '"nul\\0"',
    '"x\\q"', '"line\\\ncont"', "'a'", "'\n'", "'''", "'é'",
)

#: fuzz fragments that make a string (or its rest) fail to lex
_HOSTILE = (
    "1.2.3", "6e", "7e+", "9ex", "²", "٣", "½", "Ⅳ", "߀",
    "\f", "\v", "\u00a0", "/*", "/* open", '"open', '"nl\n"', '"\\', '"', "''", "'",
    "'ab'", "@", "#", "$", "`", "\\", "\x00",
)


def _fuzz_sources(seed: int, count: int):
    """Seeded strings of FlowC fragments, a quarter of them truncated."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = [
            rng.choice(_HOSTILE if rng.random() < 0.05 else _FRAGMENTS)
            for _ in range(rng.randint(1, 16))
        ]
        source = "".join(rng.choice(("", " ")) + part for part in parts)
        if rng.random() < 0.25:
            source = source[: rng.randint(0, len(source))]
        yield source


def _app_sources():
    yield DIVISORS_SOURCE
    yield CONSTANT_LOOP_SOURCE
    yield SELECT_REWRITE_SOURCE
    yield producer_consumer_source(8, burst=2)
    yield pipeline_source(3, 4)


def test_lexer_matches_the_reference_on_pool_programs():
    _assert_scans_like_the_reference(emit_program(generate_spec(seed)) for seed in range(300))


def test_lexer_matches_the_reference_on_the_pfc_geometries():
    _assert_scans_like_the_reference(
        video_flowc_source(VideoAppConfig(lines, pixels))
        for lines in range(2, 12)
        for pixels in range(2, 12)
    )


def test_lexer_matches_the_reference_on_the_app_sources():
    _assert_scans_like_the_reference(_app_sources())


def test_lexer_matches_the_reference_on_a_seeded_fuzz():
    sources = list(_fuzz_sources(20261017, 20_000))
    _assert_scans_like_the_reference(sources)
    failures = sum(isinstance(_scan(reference_tokenize, s), str) for s in sources[:2000])
    assert 100 < failures < 1900  # the fuzz reaches both lexable and bad input


@pytest.mark.slow
def test_lexer_matches_the_reference_on_the_whole_pool():
    _assert_scans_like_the_reference(emit_program(generate_spec(seed)) for seed in range(3000))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10))
def test_lexer_matches_the_reference_on_a_larger_fuzz(seed):
    _assert_scans_like_the_reference(_fuzz_sources(seed, 20_000))


# ---------------------------------------------------------------------------
# parser pins
# ---------------------------------------------------------------------------


def test_asts_match_the_pinned_digests():
    pinned = json.loads(AST_FIXTURE.read_text())
    programs = ast_programs()
    assert set(programs) == set(pinned)
    for name, source in programs.items():
        assert ast_digest(source) == pinned[name], name


def test_prefix_errors_match_the_pin():
    pinned = json.loads(PREFIX_FIXTURE.read_text())
    programs = prefix_programs()
    assert set(programs) == set(pinned)
    for name, source in programs.items():
        messages = prefix_errors(source)
        assert len(messages) == len(pinned[name]) == len(source) + 1
        for k, (message, expected) in enumerate(zip(messages, pinned[name])):
            assert message == expected, f"{name}[:{k}]"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_divisors_process():
    process = parse_process(DIVISORS_SOURCE)
    assert process.name == "divisors"
    assert [p.name for p in process.ports] == ["in", "max", "all"]
    assert process.port("in").is_input and process.port("max").is_output
    assert isinstance(process.body[0], Declaration)
    assert isinstance(process.body[1], While)
    assert ports_referenced(process.body) == ["in", "max", "all", "all"]


def test_parse_expression_precedence():
    expr = parse_expression("1 + 2 * 3 == 7")
    assert isinstance(expr, BinaryOp) and expr.op == "=="
    left = expr.left
    assert isinstance(left, BinaryOp) and left.op == "+"
    assert isinstance(left.right, BinaryOp) and left.right.op == "*"


def test_parse_statements_and_assignment():
    statements = parse_statements("x = y % 2; if (x) y++; else y--;")
    assert len(statements) == 2
    assert isinstance(statements[1], If)


def test_parse_select_switch():
    source = """
    PROCESS p (In DPORT a, In DPORT b, Out DPORT o) {
        int v;
        while (1) {
            switch (SELECT(a, 1, b, 2)) {
                case 0: READ_DATA(a, &v, 1); break;
                case 1: READ_DATA(b, &v, 2); break;
            }
            WRITE_DATA(o, v, 1);
        }
    }
    """
    process = parse_process(source)
    loop = process.body[1]
    assert isinstance(loop, While)
    switch = loop.body[0]
    assert isinstance(switch, Switch) and switch.is_select
    assert isinstance(switch.subject, SelectExpr)
    assert [port for port, _ in switch.subject.entries] == ["a", "b"]


def test_parse_errors():
    with pytest.raises(FlowCParseError):
        parse_process("PROCESS broken (In DPORT x) { while ( }")
    with pytest.raises(FlowCParseError):
        parse_process("int not_a_process;")
    with pytest.raises(FlowCParseError):
        parse_process("PROCESS a () { } PROCESS b () { }")  # exactly one expected


def test_parse_program_multiple_processes():
    processes = parse_program(
        "PROCESS a (Out DPORT o) { WRITE_DATA(o, 1, 1); } PROCESS b (In DPORT i) { int x; READ_DATA(i, &x, 1); }"
    )
    assert [p.name for p in processes] == ["a", "b"]


# ---------------------------------------------------------------------------
# leaders
# ---------------------------------------------------------------------------


def _transition_starts(process):
    """The first statement of every transition of the compiled process that
    carries code: the leaders of the rule the compiler runs."""
    net = compile_process(process).net
    return [transition.code[0] for transition in net.transitions.values() if transition.code]


def _portion_starts(statements):
    """The first statement of every run ``portions`` yields, at every depth
    the compiler splits (the sequences nested in control statements)."""
    starts = []
    for portion in portions(statements):
        if isinstance(portion, list):
            starts.append(portion[0])
        else:
            for child in statement_children(portion):
                starts.extend(_portion_starts(child))
    return starts


def test_leader_rules_on_figure_1():
    process = parse_process(DIVISORS_SOURCE)
    loop = process.body[1]
    assert isinstance(loop, While)
    body = loop.body
    leaders = {id(statement) for statement in _transition_starts(process)}
    read_stmt = body[0]
    write_max = body[3]
    write_all_first = body[4]
    inner_while = body[5]
    assert isinstance(read_stmt, ReadData)
    assert isinstance(write_max, WriteData)
    assert isinstance(write_all_first, WriteData)
    assert isinstance(inner_while, While)
    # line 4: READ_DATA is a leader (rules 2 and 4)
    assert id(read_stmt) in leaders
    # line 9: the statement after WRITE_DATA(max, ...) is a leader (rule 3)
    assert id(write_all_first) in leaders
    # line 11: the first statement of the port-containing while is a leader (rule 4)
    assert id(inner_while.body[0]) in leaders
    # line 13: the WRITE inside the if is a leader (rule 4 applied to the if)
    inner_if = inner_while.body[1]
    assert isinstance(inner_if, If)
    assert id(inner_if.then_body[0]) in leaders
    # WRITE_DATA(max, ...) itself is not a leader
    assert id(write_max) not in leaders


def test_a_constant_for_is_split_after_unrolling():
    """The PFC producer's shape: the compiler unrolls the constant ``for``
    and splits the copies, so its ``init`` and ``update`` lead transitions
    and the body's first statement ``p = 0;`` leads none."""
    process = parse_process(
        "PROCESS producer (In DPORT req, Out DPORT pix) {"
        "  int r, line, p, buf[3];"
        "  while (1) {"
        "    READ_DATA(req, &r, 1);"
        "    for (line = 0; line < 2; line++) {"
        "      p = 0;"
        "      while (p < 3) { buf[p] = r + p; p++; }"
        "      WRITE_DATA(pix, buf, 3);"
        "    }"
        "  }"
        "}"
    )
    codes = sorted(
        [str(statement) for statement in transition.code]
        for transition in compile_process(process).net.transitions.values()
        if transition.code
    )
    body = ["p = 0;", "while ((p < 3)) { ... }", "WRITE_DATA(pix, buf, 3);"]
    assert codes == [["READ_DATA(req, &r, 1);"], ["line = 0;", *body], ["line++;"],
                     ["line++;", *body]]
    # the loop itself is one control statement to split around
    (loop,) = process.body[1].body[1:]
    assert list(portions([loop])) == [loop]


def test_contains_and_is_port_statement():
    process = parse_process(DIVISORS_SOURCE)
    loop = process.body[1]
    assert contains_port_statement(loop)
    assert not contains_port_statement(process.body[0])
    assert is_port_statement(loop.body[0])
    assert not is_port_statement(loop.body[1])


def test_split_into_portions():
    statements = parse_statements(
        "READ_DATA(p, &x, 1); x = x + 1; WRITE_DATA(q, x, 1); WRITE_DATA(q, x, 1); y = 0;"
    )
    split = list(portions(statements))
    assert [len(portion) for portion in split] == [3, 1, 1]
    assert isinstance(split[0][0], ReadData)
    assert isinstance(split[1][0], WriteData)
    # a port-containing control statement stands alone; blocks are flattened
    statements = parse_statements("{ x = 1; } while (x) { READ_DATA(p, &x, 1); } y = 2;")
    split = list(portions(statements))
    assert split == [[statements[0].statements[0]], statements[1], [statements[2]]]


def test_leader_statements_in_order():
    """The leaders ``portions`` finds, in source order, are the first
    statements of the compiler's transitions on Figure 1."""
    process = parse_process(DIVISORS_SOURCE)
    leaders = _portion_starts(process.body[1:])
    assert [str(statement) for statement in leaders] == [
        "READ_DATA(in, &n, 1);",
        "WRITE_DATA(all, i, 1);",
        "i--;",
        "WRITE_DATA(all, i, 1);",
    ]
    assert sorted(map(id, leaders)) == sorted(map(id, _transition_starts(process)))


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------


def test_compile_divisors_matches_figure_3():
    process = parse_process(DIVISORS_SOURCE)
    compiled = compile_process(process)
    net = compiled.net
    # exactly one control place marked initially (the program counter)
    assert sum(net.initial_tokens.values()) == 1
    # three dangling port places
    assert sorted(compiled.port_places) == ["all", "in", "max"]
    # the first transition reads `in` and writes `max` in one segment
    read_transitions = [t for t in net.transitions if net.weight_pt(compiled.port_places["in"], t)]
    assert len(read_transitions) == 1
    t0 = read_transitions[0]
    assert net.weight_tp(t0, compiled.port_places["max"]) == 1
    # two transitions write to `all` (line 9 and line 13)
    all_writers = [t for t in net.transitions if net.weight_tp(t, compiled.port_places["all"])]
    assert len(all_writers) == 2
    # choice places carry the loop / if conditions
    conditions = [str(p.condition) for p in net.places.values() if p.condition is not None]
    assert any("i > 1" in c or "(i > 1)" in c for c in conditions)
    assert any("% i" in c for c in conditions)
    # the per-process net is unique choice (Section 3.1)
    assert is_unique_choice_net(net)
    # declarations were hoisted out of the cyclic net
    assert compiled.declarations and isinstance(compiled.declarations[0], Declaration)


def test_compile_initialisation_statements_are_hoisted():
    source = """
    PROCESS p (In DPORT i, Out DPORT o) {
        int x, acc;
        acc = 0;
        while (1) {
            READ_DATA(i, &x, 1);
            acc = acc + x;
            WRITE_DATA(o, acc, 1);
        }
    }
    """
    compiled = compile_process(parse_process(source))
    assert len(compiled.declarations) == 2  # the declaration and `acc = 0;`
    # the cyclic net returns to its initial marking after one iteration once a
    # token is supplied on the input port (no one-shot initialisation remains)
    net = compiled.net
    m = net.initial_marking.add({compiled.port_places["i"]: 1})
    fired = []
    for _ in range(10):
        enabled = [t for t in net.enabled_transitions(m) if net.pre[t]]
        if not enabled:
            break
        m = net.fire(enabled[0], m)
        fired.append(enabled[0])
    assert fired
    assert m.restrict([compiled.initial_place]) == {compiled.initial_place: 1}


def test_compile_multirate_weights():
    source = """
    PROCESS p (In DPORT i, Out DPORT o) {
        int line[8];
        while (1) {
            READ_DATA(i, line, 8);
            WRITE_DATA(o, line, 8);
        }
    }
    """
    compiled = compile_process(parse_process(source))
    net = compiled.net
    transition = [t for t in net.transitions if net.pre[t].get(compiled.port_places["i"])][0]
    assert net.weight_pt(compiled.port_places["i"], transition) == 8
    assert net.weight_tp(transition, compiled.port_places["o"]) == 8


def test_compile_rejects_non_constant_rate():
    source = """
    PROCESS p (In DPORT i) {
        int n, buf[4];
        while (1) {
            READ_DATA(i, &n, 1);
            READ_DATA(i, buf, n);
        }
    }
    """
    with pytest.raises(CompilationError):
        compile_process(parse_process(source))


def test_compile_rejects_undeclared_port():
    source = "PROCESS p (In DPORT i) { int x; while (1) { READ_DATA(other, &x, 1); } }"
    with pytest.raises(CompilationError):
        compile_process(parse_process(source))


def test_constant_trip_count_and_unrolling():
    statements = parse_statements("for (i = 0; i < 5; i++) WRITE_DATA(o, i, 1);")
    assert constant_trip_count(statements[0]) == 5
    statements = parse_statements("for (i = 10; i > 0; i -= 2) WRITE_DATA(o, i, 1);")
    assert constant_trip_count(statements[0]) == 5
    statements = parse_statements("for (i = 0; i < n; i++) WRITE_DATA(o, i, 1);")
    assert constant_trip_count(statements[0]) is None

    source = """
    PROCESS p (Out DPORT o) {
        int i;
        while (1) {
            for (i = 0; i < 3; i++)
                WRITE_DATA(o, i, 1);
        }
    }
    """
    unrolled = compile_process(parse_process(source))
    rolled = compile_process(parse_process(source), max_unroll=0)
    writers_unrolled = [
        t for t in unrolled.net.transitions if unrolled.net.weight_tp(t, unrolled.port_places["o"])
    ]
    writers_rolled = [
        t for t in rolled.net.transitions if rolled.net.weight_tp(t, rolled.port_places["o"])
    ]
    assert len(writers_unrolled) == 3
    assert len(writers_rolled) == 1
    # without unrolling the loop becomes a data-dependent choice place
    assert any(p.condition is not None for p in rolled.net.places.values())


def test_compile_select_switch_breaks_unique_choice():
    source = """
    PROCESS p (In DPORT a, In DPORT b, Out DPORT o) {
        int v;
        while (1) {
            switch (SELECT(a, 1, b, 1)) {
                case 0: READ_DATA(a, &v, 1); break;
                case 1: READ_DATA(b, &v, 1); break;
            }
            WRITE_DATA(o, v, 1);
        }
    }
    """
    compiled = compile_process(parse_process(source))
    net = compiled.net
    select_places = [p for p in net.places.values() if isinstance(p.condition, SelectCondition)]
    assert len(select_places) == 1
    # the SELECT branches have different presets, so the net is not unique choice
    assert not is_unique_choice_net(net)


def test_evaluate_constant():
    assert evaluate_constant(parse_expression("3 * 4 + 1")) == 13
    assert evaluate_constant(parse_expression("-(2)")) == -2
    assert evaluate_constant(parse_expression("x + 1")) is None
    # folded as the C target and the interpreter compute it
    assert evaluate_constant(parse_expression("-7 / 2")) == -3
    assert evaluate_constant(parse_expression("-7 % 2")) == -1
    assert evaluate_constant(parse_expression("1 / 0")) is None
    assert evaluate_constant(parse_expression("1 < 2")) is None


# ---------------------------------------------------------------------------
# netlist and linker
# ---------------------------------------------------------------------------


def _two_process_network() -> Network:
    source = """
    PROCESS prod (In DPORT trig, Out DPORT out) {
        int t;
        while (1) {
            READ_DATA(trig, &t, 1);
            WRITE_DATA(out, t, 1);
        }
    }
    PROCESS cons (In DPORT inp, Out DPORT res) {
        int v;
        while (1) {
            READ_DATA(inp, &v, 1);
            WRITE_DATA(res, v + 1, 1);
        }
    }
    """
    network = Network(name="pair")
    network.add_processes_from_source(source)
    network.connect("prod", "out", "cons", "inp", name="link", bound=4)
    network.declare_input("prod", "trig", controllable=False)
    network.declare_output("cons", "res")
    return network


def test_network_validation_and_errors():
    network = _two_process_network()
    network.validate()
    with pytest.raises(NetworkError):
        network.connect("prod", "out", "cons", "inp")  # already connected
    with pytest.raises(NetworkError):
        network.connect("prod", "trig", "cons", "inp")  # trig is not an output
    incomplete = Network()
    incomplete.add_processes_from_source(
        "PROCESS lonely (In DPORT x) { int v; while (1) { READ_DATA(x, &v, 1); } }"
    )
    with pytest.raises(NetworkError):
        incomplete.validate()


def test_link_merges_channel_places():
    network = _two_process_network()
    system = link(network)
    net = system.net
    channel_place = system.channel_places["link"]
    assert net.places[channel_place].is_port
    assert net.places[channel_place].bound == 4
    # the producer writes and the consumer reads the same merged place
    writers = net.predecessors_of_place(channel_place)
    readers = net.successors_of_place(channel_place)
    assert any(t.startswith("prod.") for t in writers)
    assert any(t.startswith("cons.") for t in readers)
    # environment ports got source / sink transitions
    assert "src.prod.trig" in net.transitions
    assert "sink.cons.res" in net.transitions
    assert net.transitions["src.prod.trig"].is_uncontrollable_source
    assert system.uncontrollable_source_transitions == ["src.prod.trig"]
    assert system.channel_of_place(channel_place) == "link"


def test_link_describe_and_port_mapping():
    network = _two_process_network()
    description = network.describe()
    assert "channel" in description and "uncontrollable" in description
    system = link(network)
    assert system.port_place_of[("prod", "out")] == system.port_place_of[("cons", "inp")]
