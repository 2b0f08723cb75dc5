"""Tests for the FlowC interpreter and the channel / binding primitives."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.flowc import interpreter as flowc_interpreter
from repro.flowc.ast_nodes import (
    BinaryOp,
    Block,
    Declarator,
    Expression,
    ExprStatement,
    If,
    IntLiteral,
    Statement,
)
from repro.flowc.interpreter import (
    Environment,
    Interpreter,
    InterpreterError,
    OperationCounter,
    WouldBlock,
)
from repro.flowc.parser import parse_expression, parse_statements
from repro.runtime.channels import (
    ChannelBuffer,
    CommunicationStats,
    EnvironmentSink,
    EnvironmentSource,
    PortBinding,
)


def run_code(source: str, binding=None, env=None) -> Environment:
    env = env or Environment("test")
    interpreter = Interpreter(env, binding)
    interpreter.run(parse_statements(source))
    return env


def test_arithmetic_and_assignment():
    env = run_code("int x, y; x = 7; y = x * 3 + 1; x += y % 5; x--;")
    assert env.get("y") == 22
    assert env.get("x") == 8


def test_integer_division_truncates_toward_zero():
    env = run_code("int a, b; a = 7 / 2; b = 0 - (7 / 2);")
    assert env.get("a") == 3
    env2 = run_code("int a; a = 9 % 4;")
    assert env2.get("a") == 1
    # C semantics with negative operands, the same for `op` and `op=`:
    # the quotient truncates toward zero, the remainder has the dividend's sign
    env3 = run_code(
        "int a, b, q, r, qa, ra; a = -7; b = 2; q = a / b; r = a % b;"
        " qa = a; qa /= b; ra = a; ra %= b;"
    )
    assert [env3.get(name) for name in ("q", "r", "qa", "ra")] == [-3, -1, -3, -1]
    env4 = run_code("int r, ra; r = 7 % (0 - 2); ra = 7; ra %= 0 - 2;")
    assert (env4.get("r"), env4.get("ra")) == (1, 1)


def test_control_flow_constructs():
    env = run_code(
        """
        int i, total, k;
        total = 0;
        for (i = 0; i < 5; i++) total = total + i;
        k = 0;
        while (k < 3) { k++; if (k == 2) continue; total = total + 100; }
        switch (k) { case 3: total = total + 1000; break; default: total = 0; }
        """
    )
    assert env.get("total") == 10 + 200 + 1000


def test_arrays_and_indexing():
    env = run_code("int buf[4], i; for (i = 0; i < 4; i++) buf[i] = i * i;")
    assert env.get("buf") == [0, 1, 4, 9]
    with pytest.raises(InterpreterError):
        run_code("int buf[2]; buf[5] = 1;")


def test_logical_operators_short_circuit():
    env = run_code("int a, b; a = (0 && (1 / 0)); b = (1 || (1 / 0));")
    assert env.get("a") == 0
    assert env.get("b") == 1


def test_division_by_zero_raises():
    _variables, counter = counted("int x; x = 1 / 0;", raises=InterpreterError)
    # the division is counted before it is refused
    assert counter == OperationCounter(arithmetic=1)


def test_unknown_function_raises_and_builtins_work():
    with pytest.raises(InterpreterError):
        run_code("int x; x = mystery(1);")
    env = run_code("int x; x = clip255(300) + abs(0 - 2);")
    assert env.get("x") == 257


def test_operation_counter_tracks_work():
    counter = OperationCounter()
    env = Environment("t")
    interpreter = Interpreter(env, counter=counter)
    interpreter.run(parse_statements("int i, s; s = 0; for (i = 0; i < 10; i++) s = s + i;"))
    # `s = 0`, `i = 0`, then per iteration `s = s + i` and `i++`; 11 tests of `i < 10`
    assert counter == OperationCounter(
        arithmetic=20, comparisons=11, assignments=22, branches=11
    )
    snapshot = counter.copy()
    snapshot.merge(counter)
    assert snapshot.total() == 2 * counter.total()


def test_read_write_through_binding():
    binding = PortBinding()
    channel = ChannelBuffer("ch", capacity=4)
    binding.bind_writer("out", channel)
    binding.bind_reader("inp", channel)
    env = Environment("p")
    interpreter = Interpreter(env, binding)
    interpreter.run(parse_statements("int x; x = 5; WRITE_DATA(out, x, 1); WRITE_DATA(out, x + 1, 1);"))
    assert len(channel) == 2
    interpreter.run(parse_statements("int y; READ_DATA(inp, &y, 1);"))
    assert env.get("y") == 5
    assert binding.stats.intertask_writes == 2
    assert binding.stats.intertask_reads == 1


def test_multirate_read_into_array():
    binding = PortBinding()
    channel = ChannelBuffer("ch")
    channel.write([1, 2, 3, 4])
    binding.bind_reader("inp", channel)
    env = Environment("p")
    env.declare_array("buf", 4)
    Interpreter(env, binding).run(parse_statements("READ_DATA(inp, buf, 4);"))
    assert env.get("buf") == [1, 2, 3, 4]


def test_select_resolution_priority():
    binding = PortBinding()
    a = ChannelBuffer("a")
    b = ChannelBuffer("b")
    binding.bind_reader("a", a)
    binding.bind_reader("b", b)
    b.write([42])
    env = Environment("p")
    interpreter = Interpreter(env, binding)
    value = interpreter.evaluate(parse_expression("SELECT(a, 1, b, 1)"))
    assert value == 1  # only b is ready
    a.write([7])
    value = interpreter.evaluate(parse_expression("SELECT(a, 1, b, 1)"))
    assert value == 0  # a has higher (textual) priority


def test_select_blocks_when_nothing_ready():
    binding = PortBinding()
    binding.bind_reader("a", ChannelBuffer("a"))
    env = Environment("p")
    with pytest.raises(WouldBlock):
        Interpreter(env, binding).evaluate(parse_expression("SELECT(a, 1)"))


# ---------------------------------------------------------------------------
# exact operation counts, construct by construct
# ---------------------------------------------------------------------------


def counted(source: str, binding=None, *, raises=None):
    """Run ``source``; return its environment's variables and the counter.

    With ``raises`` the run must raise that exception, and the counter holds
    what was counted before it.
    """
    env = Environment("test")
    interpreter = Interpreter(env, binding)
    if raises is None:
        interpreter.run(parse_statements(source))
    else:
        with pytest.raises(raises):
            interpreter.run(parse_statements(source))
    return env.variables, interpreter.counter


def _reader(values, port="inp"):
    binding = PortBinding()
    channel = ChannelBuffer(port)
    channel.write(values)
    binding.bind_reader(port, channel)
    return binding


def test_counts_of_the_ternary_conditional():
    variables, counter = counted("int a, x, y; a = 3; x = a > 1 ? a : 0 - a; y = a < 1 ? a : 0 - a;")
    assert (variables["x"], variables["y"]) == (3, -3)
    assert counter == OperationCounter(arithmetic=1, comparisons=2, assignments=3, branches=2)


def test_counts_of_a_builtin_and_an_unknown_call():
    variables, counter = counted("int x; x = clip255(300);")
    assert variables["x"] == 255
    assert counter == OperationCounter(assignments=1, calls=1)
    # the arguments are evaluated and the call counted before the name is refused
    _variables, counter = counted("int x; x = mystery(1 + 2, 3);", raises=InterpreterError)
    assert counter == OperationCounter(arithmetic=1, calls=1)


def test_counts_of_a_select_and_a_blocked_select():
    binding = PortBinding()
    a, b = ChannelBuffer("a"), ChannelBuffer("b")
    binding.bind_reader("a", a)
    binding.bind_reader("b", b)
    b.write([1, 2])
    variables, counter = counted("int s; s = SELECT(a, 1, b, 1 + 1);", binding)
    assert variables["s"] == 1
    assert counter == OperationCounter(arithmetic=1, assignments=1, selects=1)
    assert binding.stats.selects == 1
    # nothing is ready: the select is counted before it blocks
    b.read(2)
    _variables, counter = counted("int s; s = SELECT(a, 1, b, 1);", binding, raises=WouldBlock)
    assert counter == OperationCounter(selects=1)
    assert binding.stats.selects == 2


def test_counts_of_a_data_switch_with_computed_case_labels():
    # each label is evaluated, with its arithmetic, until one matches
    source = (
        "int k, x; k = {k}; switch (k) {{ case 0 - 1: x = 5; break; "
        "case 1 + 1: x = 6; break; default: x = 7; }}"
    )
    variables, counter = counted(source.format(k=2))
    assert variables["x"] == 6
    assert counter == OperationCounter(arithmetic=2, assignments=2, branches=1)
    variables, counter = counted(source.format(k=9))
    assert variables["x"] == 7
    assert counter == OperationCounter(arithmetic=2, assignments=2, branches=1)


def test_compound_assignment_to_an_element_counts_memory_twice():
    variables, counter = counted("int buf[3], i; i = 1; buf[i] += 4;")
    assert variables["buf"] == [0, 4, 0]
    assert counter == OperationCounter(arithmetic=1, assignments=2, memory=2)


def test_counts_of_prefix_and_postfix_increments_of_an_element():
    variables, counter = counted("int buf[3], i, a; i = 2; a = ++buf[i];")
    assert (variables["buf"], variables["a"]) == ([0, 0, 1], 1)
    assert counter == OperationCounter(arithmetic=1, assignments=3, memory=2)
    variables, counter = counted("int buf[3], i, b; i = 2; b = buf[i]--;")
    assert (variables["buf"], variables["b"]) == ([0, 0, -1], 0)
    assert counter == OperationCounter(arithmetic=1, assignments=3, memory=2)


def test_counts_of_unary_operators():
    variables, counter = counted("int a, b, c, d; a = 5; b = -a; c = !a; d = ~a;")
    assert [variables[name] for name in "bcd"] == [-5, 0, -6]
    assert counter == OperationCounter(arithmetic=3, assignments=4)


def test_logical_operators_count_one_comparison_and_skip_the_right_side():
    variables, counter = counted(
        "int a, b, c, d, k; a = (0 && k++); b = (1 || k++); c = (1 && k++); d = (k || 0);"
    )
    assert [variables[name] for name in "abcdk"] == [0, 1, 0, 1, 1]
    # one comparison per operator; only `c`'s right side runs its `k++`
    assert counter == OperationCounter(arithmetic=1, comparisons=4, assignments=5)


def test_counts_of_multi_item_reads_into_an_array_and_an_element():
    binding = _reader([1, 2, 3, 4, 5])
    variables, counter = counted("int buf[4], i; READ_DATA(inp, buf, 3);", binding)
    assert variables["buf"] == [1, 2, 3, 0]
    assert counter == OperationCounter(assignments=1, memory=3, reads=1, items_read=3)
    # a block starting at buf[i] is stored item by item, with no assignment
    variables, counter = counted("int buf[4], i; i = 1; READ_DATA(inp, buf[i], 2);", binding)
    assert variables["buf"] == [0, 4, 5, 0]
    assert counter == OperationCounter(assignments=1, memory=2, reads=1, items_read=2)


def test_counts_of_writing_an_array_with_padding():
    binding = PortBinding()
    sink = EnvironmentSink("out")
    binding.bind_sink("out", sink)
    _variables, counter = counted(
        "int buf[2]; buf[0] = 7; buf[1] = 8; WRITE_DATA(out, buf, 4);", binding
    )
    assert sink.values == [7, 8, 0, 0]
    assert counter == OperationCounter(assignments=2, memory=2, writes=1, items_written=4)


def test_counts_of_declarations():
    variables, counter = counted("int n = 3 + 4, buf[2 * 3], m;")
    assert (variables["n"], variables["buf"], variables["m"]) == (7, [0] * 6, 0)
    # the initialiser assigns; the array size is evaluated but not assigned
    assert counter == OperationCounter(arithmetic=2, assignments=1)


# ---------------------------------------------------------------------------
# run-time errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("statement", ["break;", "continue;"])
def test_break_or_continue_outside_a_loop_is_refused(statement):
    with pytest.raises(InterpreterError, match="break/continue outside of a loop"):
        counted(f"int x; x = 1; {statement} x = 2;")


@pytest.mark.parametrize(
    "loop, kind",
    [("while (1) x++;", "while"), ("for (;;) x++;", "for"), ("for (x = 0; x >= 0; x++) ;", "for")],
)
def test_a_loop_past_the_iteration_limit_is_refused(monkeypatch, loop, kind):
    monkeypatch.setattr(flowc_interpreter, "MAX_LOOP_ITERATIONS", 5)
    with pytest.raises(InterpreterError, match=f"^{kind} loop exceeded the iteration limit$"):
        counted(f"int x; {loop}")
    # the limit is read when the loop runs: five iterations still pass
    variables, _counter = counted("int x; while (x < 5) x++;")
    assert variables["x"] == 5


def test_indexing_a_non_array_is_refused():
    with pytest.raises(InterpreterError, match=r"^indexing a non-array value in x\[0\]$"):
        counted("int x, y; y = x[0];")


@pytest.mark.parametrize("source", ["1 = 2;", "(a + b) = 1;", "(a + b)++;"])
def test_an_invalid_assignment_target_is_refused(source):
    with pytest.raises(InterpreterError, match="^invalid assignment target: "):
        counted(f"int a, b; {source}")


def test_an_unsupported_read_target_is_refused_after_the_read():
    binding = _reader([1])
    with pytest.raises(InterpreterError, match=r"^unsupported READ_DATA target: \(a \+ 1\)$"):
        counted("int a; READ_DATA(inp, a + 1, 1);", binding)
    assert binding.stats.intertask_reads == 1


def test_bare_statement_and_expression_nodes_are_refused():
    interpreter = Interpreter(Environment("test"))
    with pytest.raises(InterpreterError, match=r"^unsupported statement: Statement\(\)$"):
        interpreter.execute(Statement())
    with pytest.raises(InterpreterError, match=r"^unsupported expression: Expression\(\)$"):
        interpreter.evaluate(Expression())
    with pytest.raises(InterpreterError, match=r"^unsupported expression: Expression\(\)$"):
        interpreter.run((ExprStatement(Expression()),))


def test_a_nested_expression_of_an_unknown_class_is_refused():
    """The handlers look children up in the tables directly; a node of a
    class outside them is refused as a bare ``Expression`` is."""
    node = Declarator("x")
    message = f"^{re.escape(f'unsupported expression: {node!r}')}$"
    with pytest.raises(InterpreterError, match=message):
        Interpreter(Environment("test")).run((ExprStatement(node),))
    with pytest.raises(InterpreterError, match=message):
        Interpreter(Environment("test")).evaluate(BinaryOp("+", IntLiteral(1), node))
    env = run_code("int y;")
    with pytest.raises(InterpreterError, match=message):
        Interpreter(env).run(parse_statements("y = 3;") + (ExprStatement(node),))
    assert env.get("y") == 3  # the statement before it ran


def test_a_nested_statement_of_an_unknown_class_is_refused():
    node = Declarator("x")
    message = f"^{re.escape(f'unsupported statement: {node!r}')}$"
    interpreter = Interpreter(Environment("test"))
    with pytest.raises(InterpreterError, match=message):
        interpreter.run((If(IntLiteral(1), (node,)),))
    with pytest.raises(InterpreterError, match=message):
        interpreter.execute(Block((ExprStatement(IntLiteral(1)), node)))
    with pytest.raises(InterpreterError, match=message):
        interpreter.execute_block((Block((node,)),))


@pytest.mark.parametrize("key", [Declarator, "x"])
def test_any_other_key_error_propagates_unchanged(monkeypatch, key):
    error = KeyError(key)

    def lookup():
        raise error

    monkeypatch.setitem(flowc_interpreter.BUILTIN_FUNCTIONS, "lookup", lookup)
    with pytest.raises(KeyError) as caught:
        counted("int x; x = lookup();")
    assert caught.value is error


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_channel_buffer_capacity_and_stats():
    channel = ChannelBuffer("c", capacity=3)
    channel.write([1, 2])
    assert channel.occupancy == 2 and channel.space() == 1
    with pytest.raises(WouldBlock):
        channel.write([3, 4])
    channel.write([3])
    assert channel.max_occupancy == 3
    assert channel.read(2) == [1, 2]
    with pytest.raises(WouldBlock):
        channel.read(2)
    assert channel.total_written == 3 and channel.total_read == 2


def test_channel_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ChannelBuffer("c", capacity=0)


def test_environment_source_and_sink():
    source = EnvironmentSource("init", [1, 2])
    assert source.available() == 2
    assert source.read(1) == [1]
    source.offer(3)
    assert source.read(2) == [2, 3]
    with pytest.raises(WouldBlock):
        source.read(1)
    sink = EnvironmentSink("out")
    sink.write([9, 9])
    assert len(sink) == 2


def test_binding_environment_and_intratask_classification():
    stats = CommunicationStats()
    binding = PortBinding(stats=stats)
    channel = ChannelBuffer("c")
    binding.bind_writer("w", channel, intratask=True)
    binding.bind_reader("r", channel, intratask=True)
    binding.bind_source("in", EnvironmentSource("in", [5]))
    binding.bind_sink("out", EnvironmentSink("out"))
    binding.write("w", [1], 1)
    binding.read("r", 1)
    binding.read("in", 1)
    binding.write("out", [2], 1)
    assert stats.intratask_reads == 1 and stats.intratask_writes == 1
    assert stats.environment_reads == 1 and stats.environment_writes == 1
    assert stats.intertask_reads == 0
    merged = CommunicationStats()
    merged.merge(stats)
    assert merged.intratask_items == stats.intratask_items


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=20))
def test_channel_fifo_order_property(values):
    channel = ChannelBuffer("c")
    channel.write(values)
    assert channel.read(len(values)) == values
