"""C code synthesis for a scheduled task (Section 6.4).

The synthesized source has three parts:

* **declarations** -- state variables (one per place retained as state),
  the variables of the collapsed processes, and intra-task channel buffers;
* **initialisation** -- initial marking values for the state variables and
  buffer pointers (Section 6.4.2);
* **run** -- the ISR: one labelled block per code segment, each with an
  execution section (the FlowC code of the transitions, with data-dependent
  choices turned into ``if``/``else`` or ``switch``), an update section
  (state variable increments) and a jump section (``goto`` / ``return`` /
  ``switch``) (Section 6.4.3, Figure 16).  A label is ``cs1``, ``cs2``, ...
  in order of first mention, ``cs1`` being the source's segment; every
  segment root and every ECS a jump lands on, inlined or not, gets one.

The output is compilable-looking C; it is not executed by the test-suite (the
interpreted :class:`~repro.codegen.task.ExecutableTask` is used for that, and
both resolve a choice through :func:`~repro.flowc.compiler.choice_of`) but it
is measured by the code-size model, compared structurally in tests and pinned
by ``tests/golden/codegen/c_sha256.json``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.codegen.segments import (
    ECS,
    CodeSegmentNode,
    JumpSpec,
    SegmentSet,
    extract_code_segments,
)
from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Break,
    Call,
    Conditional,
    Continue,
    Declaration,
    Expression,
    ExprStatement,
    For,
    If,
    Index,
    PostfixOp,
    ReadData,
    Return,
    SelectExpr,
    Statement,
    Switch,
    UnaryOp,
    While,
    WriteData,
    walk_expressions,
    walk_statements,
)
from repro.flowc.compiler import choice_of
from repro.flowc.linker import LinkedSystem
from repro.petrinet.analysis import StructuralAnalysis
from repro.runtime.cost_model import CodeSizeCosts, CodeSizeModel, CompilerProfile, PROFILES
from repro.scheduling.schedule import Schedule


# ---------------------------------------------------------------------------
# Statement rendering
# ---------------------------------------------------------------------------


def render_statement(statement: Statement, indent: int = 0) -> List[str]:
    """Render a statement as C source lines.

    A simple statement is one line, its ``str``; the five compound kinds open
    a block and render their bodies one level deeper.
    """
    pad = "    " * indent

    def body(statements: Sequence[Statement]) -> List[str]:
        return [line for inner in statements for line in render_statement(inner, indent + 1)]

    if isinstance(statement, Block):
        return [pad + "{", *body(statement.statements), pad + "}"]
    if isinstance(statement, If):
        lines = [pad + f"if ({statement.condition}) {{", *body(statement.then_body)]
        if statement.else_body:
            lines += [pad + "} else {", *body(statement.else_body)]
        return lines + [pad + "}"]
    if isinstance(statement, While):
        return [pad + f"while ({statement.condition}) {{", *body(statement.body), pad + "}"]
    if isinstance(statement, For):
        init, cond, update = (
            "" if part is None else part
            for part in (statement.init, statement.condition, statement.update)
        )
        return [pad + f"for ({init}; {cond}; {update}) {{", *body(statement.body), pad + "}"]
    if isinstance(statement, Switch):
        lines = [pad + f"switch ({statement.subject}) {{"]
        for case in statement.cases:
            lines.append(pad + ("default:" if case.value is None else f"case {case.value}:"))
            lines += body(case.body) + [pad + "    break;"]
        return lines + [pad + "}"]
    return [pad + str(statement)]


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesizedTask:
    """The C source of one synthesized task plus size accounting inputs."""

    name: str
    source_transition: str
    segments: SegmentSet
    state_places: List[str]
    declarations_section: str
    initialisation_section: str
    run_section: str
    intra_task_channels: List[str] = field(default_factory=list)
    external_input_ports: List[str] = field(default_factory=list)
    external_output_ports: List[str] = field(default_factory=list)

    @property
    def full_source(self) -> str:
        return "\n".join(
            [
                self.declarations_section,
                "",
                self.initialisation_section,
                "",
                self.run_section,
                "",
            ]
        )

    def count_construct(self, kind: str) -> int:
        """Rough construct counts on the generated text (used by tests)."""
        if kind == "labels":
            return sum(1 for line in self.run_section.splitlines() if re.fullmatch(r"cs\d+:", line))
        if kind == "gotos":
            return self.run_section.count("goto ")
        if kind == "returns":
            return self.run_section.count("return;")
        if kind == "switches":
            return self.run_section.count("switch (")
        raise KeyError(kind)


def _state_variable_name(place: str) -> str:
    return "st_" + place.replace(".", "_")


class _TaskSynthesizer:
    def __init__(self, system: LinkedSystem, schedule: Schedule):
        self.system = system
        self.schedule = schedule
        self.task_name = schedule.source_transition.replace(".", "_")
        self.net = schedule.net
        self.segments = extract_code_segments(schedule)
        self.state_places = self.segments.state_places()
        # the snapshot the schedule's marking vectors are read in
        self.inet = self.net.indexed()
        self._state_pids = frozenset(self.inet.place_index[p] for p in self.state_places)
        # the ECSs whose code gets a label line: segment roots, jump targets
        self.labelled: Set[ECS] = {segment.root.ecs for segment in self.segments.segments}
        for node in self.segments.node_by_ecs.values():
            for jump in node.jumps.values():
                cases = [jump] if jump.deterministic else jump.cases
                self.labelled.update(case.target_ecs for case in cases if not case.is_return)
        self.labels: Dict[ECS, str] = {}
        self.involved = schedule.involved_transitions()
        self._classify_channels()

    # -- channel classification (Section 6.3) --------------------------------
    def _classify_channels(self) -> None:
        involved_processes = {
            self.net.transitions[t].process
            for t in self.involved
            if self.net.transitions[t].process is not None
        }
        self.intra_task_channels: List[str] = []
        self.external_channels: List[str] = []
        for channel in self.system.network.channels:
            if channel.source.process in involved_processes and channel.target.process in involved_processes:
                self.intra_task_channels.append(channel.name)
            else:
                self.external_channels.append(channel.name)
        self.external_inputs = [ref.port for ref in self.system.network.environment_inputs]
        self.external_outputs = [ref.port for ref in self.system.network.environment_outputs]

    # -- declarations ------------------------------------------------------------
    def _declarations(self) -> str:
        lines: List[str] = [f'#include "{self.system.network.name}.data.h"', ""]
        lines.append("/* state variables (places of the Petri net, Section 6.4.1) */")
        for place in self.state_places:
            lines.append(f"int {_state_variable_name(place)};")
        if not self.state_places:
            lines.append("/* no state variables are needed for this schedule */")
        lines.append("")
        lines.append("/* variables of the collapsed processes (made unique by linking) */")
        for process, statements in sorted(self.system.declarations.items()):
            for statement in statements:
                if not isinstance(statement, Declaration):
                    continue
                for declarator in statement.declarators:
                    lines.append(f"{statement.type_name} {process}_{declarator};")
        lines.append("")
        if self.intra_task_channels:
            lines.append("/* intra-task channels become circular buffers (Section 6.3) */")
            place_bounds = self.schedule.place_bounds()
            for channel in self.intra_task_channels:
                bound = self._channel_bound(channel, place_bounds)
                lines.append(f"int buf_{channel}[{max(bound, 1)}];")
                lines.append(f"int buf_{channel}_head, buf_{channel}_count;")
        return "\n".join(lines)

    def _channel_bound(self, channel: str, place_bounds: Dict[str, int]) -> int:
        """Buffer size of an intra-task channel: its place's bound over the
        schedule (``Schedule.place_bounds``, computed once per task)."""
        return max(place_bounds.get(self.system.channel_places[channel], 1), 1)

    # -- initialisation ------------------------------------------------------------
    def _initialisation(self) -> str:
        lines = [f"void {self.task_name}_init(void)", "{"]
        initial, index = self.inet.initial_vec, self.inet.place_index
        for place in self.state_places:
            lines.append(f"    {_state_variable_name(place)} = {initial[index[place]]};")
        for channel in self.intra_task_channels:
            lines.append(f"    buf_{channel}_head = 0;")
            lines.append(f"    buf_{channel}_count = 0;")
        # hoisted per-process initialisation statements (Section 6.4.2)
        for process, statements in sorted(self.system.declarations.items()):
            for statement in statements:
                if isinstance(statement, Declaration):
                    continue
                for line in render_statement(statement, 1):
                    lines.append(f"    /* {process} */ " + line.strip())
        lines.append("}")
        return "\n".join(lines)

    # -- run section ------------------------------------------------------------
    def _run(self) -> str:
        lines = [f"void {self.task_name}_ISR(void)", "{"]
        ordered = [self.segments.entry_segment] + [
            segment
            for segment in self.segments.segments
            if segment is not self.segments.entry_segment
        ]
        for segment in ordered:
            lines.extend(self._emit_node(segment.root, indent=1))
        lines.append("}")
        return "\n".join(lines)

    def _label(self, ecs: ECS) -> str:
        """The C label of an ECS's code: ``cs<n>``, numbered on first mention."""
        return self.labels.setdefault(ecs, f"cs{len(self.labels) + 1}")

    def _emit_node(self, node: CodeSegmentNode, indent: int) -> List[str]:
        label = [f"{self._label(node.ecs)}:"] if node.ecs in self.labelled else []
        return label + self._emit_choice(node, indent)

    def _emit_choice(self, node: CodeSegmentNode, indent: int) -> List[str]:
        pad = "    " * indent
        transitions = sorted(node.ecs)
        if len(transitions) == 1:
            return self._emit_branch(node, transitions[0], indent)
        # data-dependent choice: an if/else or a switch over the expression of
        # the choice place, resolved as the simulators resolve it
        choice = choice_of(self.net, transitions)
        if choice is not None and not choice.is_boolean:
            lines = [pad + f"switch ({choice.expression}) {{"]
            for transition, guard in choice.guards:
                lines.append(pad + ("default:" if guard == "default" else f"case {guard}:"))
                lines.extend(self._emit_branch(node, transition, indent + 1))
                lines.append(pad + "    break;")
            return lines + [pad + "}"]
        if choice is None:  # a hand-built net's choice carries no condition
            condition, then, other = "1 /* unresolved choice condition */", transitions[0], transitions[-1]
        else:
            condition, then, other = choice.expression, choice.branch(True), choice.branch(False)
        return (
            [pad + f"if ({condition}) {{"]
            + self._emit_branch(node, then, indent + 1)
            + [pad + "} else {"]
            + self._emit_branch(node, other, indent + 1)
            + [pad + "}"]
        )

    def _emit_branch(self, node: CodeSegmentNode, transition: str, indent: int) -> List[str]:
        """The code of one transition of ``node`` and what follows it."""
        return self._emit_transition_code(transition, indent) + self._emit_continuation(
            node, transition, indent
        )

    def _emit_transition_code(self, transition: str, indent: int) -> List[str]:
        pad = "    " * indent
        obj = self.net.transitions[transition]
        lines: List[str] = [pad + f"/* transition {transition} */"]
        if obj.is_source:
            lines.append(pad + "/* triggering input latched by the framework */")
        elif obj.is_sink:
            lines.append(pad + "/* primary output accepted by the environment */")
        elif obj.code:
            for statement in obj.code:
                lines.extend(render_statement(statement, indent))
        # update section: state variable deltas caused by this transition, in
        # place-ID order (= name order, the order of state_places)
        inet = self.inet
        for pid, delta in inet.delta[inet.transition_index[transition]]:
            if pid not in self._state_pids:
                continue
            variable = _state_variable_name(inet.place_names[pid])
            if delta > 0:
                lines.append(pad + f"{variable} += {delta};")
            else:
                lines.append(pad + f"{variable} -= {-delta};")
        return lines

    def _emit_continuation(self, node: CodeSegmentNode, transition: str, indent: int) -> List[str]:
        pad = "    " * indent
        if transition in node.children:
            return self._emit_node(node.children[transition], indent)
        jump = node.jumps.get(transition)
        if jump is None:
            return [pad + "return;"]
        if jump.deterministic:
            if jump.is_return:
                return [pad + "return;"]
            assert jump.target_ecs is not None
            return [pad + f"goto {self._label(jump.target_ecs)};"]
        lines: List[str] = []
        discriminating = self._discriminating_places(jump)
        if not discriminating:
            # all cases behave identically
            first = jump.cases[0]
            if first.is_return:
                return [pad + "return;"]
            return [pad + f"goto {self._label(first.target_ecs)};"]
        place = discriminating[0]
        pid = self.inet.place_index[place]
        lines.append(pad + f"switch ({_state_variable_name(place)}) {{")
        seen_values: Set[int] = set()
        for case in jump.cases:
            value = case.node.vec_in(self.inet)[pid]
            if value in seen_values:
                continue
            seen_values.add(value)
            lines.append(pad + f"case {value}:")
            if case.is_return:
                lines.append(pad + "    return;")
            else:
                lines.append(pad + f"    goto {self._label(case.target_ecs)};")
        lines.append(pad + "}")
        lines.append(pad + "return;")
        return lines

    def _discriminating_places(self, jump: JumpSpec) -> List[str]:
        """The state places on which the jump's cases' vectors differ."""
        index = self.inet.place_index
        vecs = [case.node.vec_in(self.inet) for case in jump.cases]
        return [
            place
            for place in self.state_places
            if len({vec[index[place]] for vec in vecs}) > 1
        ]

    # -- entry point ------------------------------------------------------------
    def synthesize(self) -> SynthesizedTask:
        return SynthesizedTask(
            name=self.task_name,
            source_transition=self.schedule.source_transition,
            segments=self.segments,
            state_places=self.state_places,
            declarations_section=self._declarations(),
            initialisation_section=self._initialisation(),
            run_section=self._run(),
            intra_task_channels=list(self.intra_task_channels),
            external_input_ports=list(self.external_inputs),
            external_output_ports=list(self.external_outputs),
        )


def synthesize_task(
    system: LinkedSystem,
    schedule: Schedule,
    *,
    analysis: Optional[StructuralAnalysis] = None,
) -> SynthesizedTask:
    """Generate the C source of the task implementing ``schedule``.

    The task is named after the source transition it reacts to.  ``analysis``
    is accepted for callers that pass one and is not read: code generation
    reads the schedule and the net, and the await test of the schedule reads
    the analysis memoised on the net (:meth:`StructuralAnalysis.of`).
    """
    return _TaskSynthesizer(system, schedule).synthesize()


# ---------------------------------------------------------------------------
# Code size estimation
# ---------------------------------------------------------------------------


def _expression_operator_count(expr: Expression) -> int:
    count = 0
    for sub in walk_expressions(expr):
        if isinstance(sub, (BinaryOp, UnaryOp, PostfixOp, Assignment, Conditional)):
            count += 1
        elif isinstance(sub, Index):
            count += 1
    return count


def statement_code_size(statement: Statement, costs: CodeSizeCosts, *, comm_site_bytes: int) -> int:
    """Approximate object size in bytes of one statement."""
    total = 0
    for sub in walk_statements([statement]):
        if isinstance(sub, (ReadData, WriteData)):
            total += comm_site_bytes
        elif isinstance(sub, Declaration):
            total += costs.per_declaration * len(sub.declarators)
        elif isinstance(sub, ExprStatement):
            total += costs.per_statement + costs.per_operator * _expression_operator_count(sub.expr)
            if isinstance(sub.expr, Call):
                total += costs.per_call
            if isinstance(sub.expr, SelectExpr):
                total += costs.per_branch
        elif isinstance(sub, If):
            total += costs.per_branch + costs.per_operator * _expression_operator_count(sub.condition)
        elif isinstance(sub, (While, For)):
            total += costs.per_loop
        elif isinstance(sub, Switch):
            total += costs.per_branch + costs.per_switch_case * len(sub.cases)
        elif isinstance(sub, (Break, Continue, Return)):
            total += costs.per_statement
    return total


def process_code_size(
    system: LinkedSystem,
    process: str,
    *,
    costs: Optional[CodeSizeCosts] = None,
    inline_communication: bool = True,
    profile: CompilerProfile | str = "pfc",
) -> int:
    """Code size of one process compiled as a separate task (the baseline)."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    costs = costs or CodeSizeCosts()
    comm_site = costs.inlined_comm_site if inline_communication else costs.called_comm_site
    total = costs.process_prologue
    body = system.network.processes[process].body
    for statement in body:
        total += statement_code_size(statement, costs, comm_site_bytes=comm_site)
    # with called communication the shared function body is counted once, by
    # baseline_code_size
    return CodeSizeModel(costs).scaled(total, profile)


def baseline_code_size(
    system: LinkedSystem,
    *,
    costs: Optional[CodeSizeCosts] = None,
    inline_communication: bool = True,
    profile: CompilerProfile | str = "pfc",
) -> Dict[str, int]:
    """Per-process and total code size of the multi-task implementation."""
    costs = costs or CodeSizeCosts()
    sizes = {
        process: process_code_size(
            system,
            process,
            costs=costs,
            inline_communication=inline_communication,
            profile=profile,
        )
        for process in system.network.processes
    }
    total = sum(sizes.values())
    if not inline_communication:
        if isinstance(profile, str):
            profile = PROFILES[profile]
        total += CodeSizeModel(costs).scaled(costs.comm_function_body, profile)
    sizes["total"] = total
    return sizes


def synthesized_code_size(
    task: SynthesizedTask,
    system: LinkedSystem,
    *,
    costs: Optional[CodeSizeCosts] = None,
    profile: CompilerProfile | str = "pfc",
    share_code_segments: bool = True,
) -> int:
    """Code size of the synthesized single task.

    Each distinct ECS contributes its transition code once (that is the point
    of code segments); intra-task communication uses buffer accesses instead
    of communication primitives; labels, gotos and jump switches add a small
    structural overhead.  With ``share_code_segments=False`` the code of an
    ECS is counted once per schedule node carrying it (the ablation of the
    sharing optimisation).
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    costs = costs or CodeSizeCosts()
    net = task.segments.schedule.net
    inet = net.indexed()
    # (process, port) of both ends of every channel inside the task
    intra_ports: Set[Tuple[Optional[str], str]] = set()
    for channel in system.network.channels:
        if channel.name in task.intra_task_channels:
            intra_ports.add((channel.source.process, channel.source.port))
            intra_ports.add((channel.target.process, channel.target.port))
    total = costs.task_prologue

    multiplicity: Dict[FrozenSet[str], int] = {}
    for node in task.segments.schedule.nodes:
        ecs = frozenset(node.edges)
        multiplicity[ecs] = multiplicity.get(ecs, 0) + 1

    def transition_code_size(transition: str) -> int:
        obj = net.transitions[transition]
        if not obj.code:
            return costs.per_statement
        size = 0
        for statement in obj.code:
            comm_ports = set()
            for sub in walk_statements([statement]):
                if isinstance(sub, (ReadData, WriteData)):
                    comm_ports.add((obj.process, sub.port))
            if comm_ports and comm_ports <= intra_ports:
                site_bytes = costs.intratask_comm_site
            elif comm_ports:
                site_bytes = costs.environment_comm_site
            else:
                site_bytes = costs.inlined_comm_site
            size += statement_code_size(statement, costs, comm_site_bytes=site_bytes)
        return size

    # Equivalent code is emitted once: transitions with identical code bodies
    # (the unrolled iterations of a constant loop, equivalent threads...)
    # share their execution section, which is the purpose of the code-segment
    # sharing analysis of Section 6.2.  The jump / label / state-update
    # overhead is still paid per structural position.  The key is the AST
    # itself (frozen dataclasses compare by value): a compound statement's
    # text elides its bodies as ``{ ... }``.
    emitted_bodies: Dict[Tuple, int] = {}

    def shared_body_size(transition: str) -> int:
        obj = net.transitions[transition]
        key = (obj.process, tuple(obj.code or ()), obj.guard)
        if key in emitted_bodies:
            return 0
        size = transition_code_size(transition)
        emitted_bodies[key] = size
        return size

    # one label per code segment (goto targets of the jump sections)
    total += len(task.segments.segments) * costs.per_label

    for ecs, code_node in task.segments.node_by_ecs.items():
        copies = 1 if share_code_segments else multiplicity.get(ecs, 1)
        structural = 0
        body = 0
        for transition in ecs:
            if share_code_segments:
                body += shared_body_size(transition)
            else:
                body += transition_code_size(transition)
        if len(ecs) > 1:
            structural += costs.per_branch
        for jump in code_node.jumps.values():
            if jump.deterministic:
                structural += costs.per_goto
            else:
                distinct = {case.node.vec_in(inet) for case in jump.cases}
                structural += costs.per_switch_case * max(len(distinct), 1) + costs.per_goto
                structural += costs.per_state_update
        total += body * copies + (structural if share_code_segments else structural * copies)
    total += len(task.intra_task_channels) * costs.per_declaration * 3
    total += len(task.state_places) * costs.per_declaration
    return CodeSizeModel(costs).scaled(total, profile)
