"""Tests for the FlowC interpreter and the channel / binding primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

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
    with pytest.raises(InterpreterError):
        run_code("int x; x = 1 / 0;")


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
    assert counter.arithmetic >= 10
    assert counter.branches >= 10
    assert counter.assignments >= 12
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
