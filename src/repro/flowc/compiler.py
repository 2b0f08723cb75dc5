"""Compilation of a FlowC process into a sequential Petri net (Section 3.1).

Each process becomes a Petri net with:

* exactly one *control place* marked at any reachable marking (the "program
  counter" token);
* one dangling *port place* per declared port, connected by weighted arcs to
  the transitions performing READ_DATA / WRITE_DATA on that port;
* *equal choice* places for data-dependent control (``if``, ``while``,
  ``for``, data ``switch``), annotated with the condition expression and
  resolved by transitions carrying ``True`` / ``False`` / case guards;
* non-equal choice places for ``switch (SELECT(...))`` constructs
  (Section 7.1), whose branch transitions test the availability of the
  involved port places.

The granularity follows the leader rules (:func:`repro.flowc.leaders.portions`):
consecutive statements without port operations collapse into a single
transition whose ``code`` attribute carries the statement list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Break,
    Continue,
    Declaration,
    Expression,
    ExprStatement,
    For,
    Identifier,
    If,
    IntLiteral,
    PostfixOp,
    Process,
    ReadData,
    Return,
    SelectExpr,
    Statement,
    Switch,
    UnaryOp,
    While,
    WriteData,
    iter_statements,
)
from repro.flowc.interpreter import InterpreterError, arithmetic
from repro.flowc.leaders import contains_port_statement, portions
from repro.petrinet.net import PetriNet


class CompilationError(Exception):
    """Raised when a FlowC construct cannot be compiled to a Petri net."""


# marker stored in Place.condition for SELECT choice places
@dataclass(frozen=True)
class SelectCondition:
    """Condition attached to a place created for ``switch (SELECT(...))``."""

    select: SelectExpr


@dataclass(frozen=True)
class Choice:
    """A data-dependent choice of a compiled net and the rule resolving it.

    The compiler turns each ``if``, ``while``, data ``switch`` and
    ``switch (SELECT(...))`` into a place carrying a condition, consumed by
    one guarded transition per branch.  The running code evaluates
    ``expression`` (the condition, or the ``SELECT`` of a
    :class:`SelectCondition`) and :meth:`branch` maps the value to a branch.
    Both simulators and the C synthesizer resolve choices through this class.
    """

    place: str
    expression: Expression
    #: (branch transition, guard) in the order the caller listed them
    guards: Tuple[Tuple[str, object], ...]

    @property
    def is_boolean(self) -> bool:
        """An ``if``/``while`` choice: its guards are ``True`` and ``False``."""
        return all(guard.__class__ is bool for _, guard in self.guards)

    def branch(self, value: object) -> Optional[str]:
        """The transition ``value`` selects, or ``None`` when no branch does.

        Guards are told apart by type, never by value (``0 == False``):
        ``True``/``False`` match the value's truth, case labels and SELECT
        entry indices match the value itself, and ``"default"`` takes any
        value that no label matches.
        """
        default = None
        for transition, guard in self.guards:
            if guard.__class__ is bool:
                if guard is bool(value):
                    return transition
            elif guard == "default":
                default = transition
            elif guard == value:
                return transition
        return default


def choice_of(net: PetriNet, transitions: Sequence[str]) -> Optional[Choice]:
    """The choice among ``transitions``: the place with a condition that all
    of them consume from; ``None`` when there is none (the free choices of a
    hand-built net carry no condition)."""
    pre = net.pre
    for place in pre[transitions[0]]:
        condition = net.places[place].condition
        if condition is not None and all(place in pre[t] for t in transitions):
            expression = condition.select if isinstance(condition, SelectCondition) else condition
            guards = tuple((t, net.transitions[t].guard) for t in transitions)
            return Choice(place, expression, guards)
    return None


@dataclass
class CompiledProcess:
    """Result of compiling one FlowC process.

    ``port_places`` maps every declared port to its port place: first the
    ports the statements use, in the order they are first used, then the
    unused ones, in declaration order, as places with no arcs.

    ``declarations`` holds the hoisted initialisation sequence: the leading
    statements of the process (declarations and plain assignments) that
    perform no port operation.  They are executed once at start-up and are not
    part of the cyclic Petri net.
    """

    process: Process
    net: PetriNet
    initial_place: str
    port_places: Dict[str, str] = field(default_factory=dict)
    declarations: List[Statement] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.process.name


def evaluate_constant(expr: Expression) -> Optional[int]:
    """The value of an integer constant expression, folded as the C target
    computes it (:func:`~repro.flowc.interpreter.arithmetic`), or ``None``.

    It folds transfer rates, case labels, loop bounds and trip counts.
    """
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = evaluate_constant(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, UnaryOp) and expr.op == "+":
        return evaluate_constant(expr.operand)
    if isinstance(expr, BinaryOp):
        left = evaluate_constant(expr.left)
        right = evaluate_constant(expr.right)
        if left is None or right is None:
            return None
        try:
            return arithmetic(expr.op, left, right)
        except (InterpreterError, ValueError):  # not arithmetic, x/0, negative shift
            return None
    return None


def _constant_truth(expr: Expression) -> Optional[bool]:
    """``True``/``False`` when the condition is a compile-time constant."""
    value = evaluate_constant(expr)
    if value is None:
        return None
    return bool(value)


def constant_trip_count(statement: For) -> Optional[int]:
    """Trip count of a ``for`` loop when it is a compile-time constant.

    Recognises the canonical shape ``for (i = a; i < b; i += c)`` (also
    ``<=``, ``i++``, ``i--``, ``i -= c``) with constant ``a``, ``b``, ``c``.
    Returns ``None`` when the count cannot be determined statically.
    """
    if statement.init is None or statement.condition is None or statement.update is None:
        return None
    init = statement.init
    if not (isinstance(init, Assignment) and init.op == "=" and isinstance(init.target, Identifier)):
        return None
    variable = init.target.name
    start = evaluate_constant(init.value)
    if start is None:
        return None
    condition = statement.condition
    if not (
        isinstance(condition, BinaryOp)
        and isinstance(condition.left, Identifier)
        and condition.left.name == variable
        and condition.op in ("<", "<=", ">", ">=")
    ):
        return None
    limit = evaluate_constant(condition.right)
    if limit is None:
        return None
    update = statement.update
    step: Optional[int] = None
    if isinstance(update, (PostfixOp, UnaryOp)) and getattr(update, "op", None) in ("++", "--"):
        operand = update.operand
        if isinstance(operand, Identifier) and operand.name == variable:
            step = 1 if update.op == "++" else -1
    elif isinstance(update, Assignment) and isinstance(update.target, Identifier) and update.target.name == variable:
        delta = evaluate_constant(update.value)
        if update.op == "+=" and delta is not None:
            step = delta
        elif update.op == "-=" and delta is not None:
            step = -delta
        elif update.op == "=":
            # i = i + c / i = i - c
            value = update.value
            if (
                isinstance(value, BinaryOp)
                and isinstance(value.left, Identifier)
                and value.left.name == variable
            ):
                delta = evaluate_constant(value.right)
                if delta is not None and value.op == "+":
                    step = delta
                elif delta is not None and value.op == "-":
                    step = -delta
    if step is None or step == 0:
        return None
    count = 0
    current = start
    comparisons = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    compare = comparisons[condition.op]
    while compare(current, limit):
        count += 1
        current += step
        if count > 1_000_000:
            return None
    return count


class _ProcessCompiler:
    """Stateful helper building the Petri net of one process."""

    DEFAULT_MAX_UNROLL = 1024

    def __init__(self, process: Process, *, max_unroll: int = DEFAULT_MAX_UNROLL):
        self.process = process
        self.max_unroll = max_unroll
        self.net = PetriNet(name=process.name)
        self.port_places: Dict[str, str] = {}
        self.declarations: List[Declaration] = []
        self._place_counter = 0
        self._transition_counter = 0
        self.initial_place = self._new_place(tokens=1)

    # -- naming -------------------------------------------------------------
    def _new_place(self, tokens: int = 0, condition: Optional[object] = None) -> str:
        name = f"{self.process.name}.p{self._place_counter}"
        self._place_counter += 1
        self.net.add_place(name, tokens, process=self.process.name, condition=condition)
        return name

    def _new_transition(
        self,
        code: Optional[List[Statement]] = None,
        guard: Optional[object] = None,
        select_priority: Optional[int] = None,
    ) -> str:
        name = f"{self.process.name}.t{self._transition_counter}"
        self._transition_counter += 1
        self.net.add_transition(
            name,
            code=tuple(code) if code else (),
            process=self.process.name,
            guard=guard,
            select_priority=select_priority,
        )
        return name

    def _port_place(self, port: str) -> str:
        if port not in {p.name for p in self.process.ports}:
            raise CompilationError(
                f"process {self.process.name!r} uses undeclared port {port!r}"
            )
        if port not in self.port_places:
            name = f"{self.process.name}.{port}"
            self.net.add_place(name, 0, is_port=True, process=self.process.name)
            self.port_places[port] = name
        return self.port_places[port]

    def _rate(self, expr: Expression, context: str) -> int:
        value = evaluate_constant(expr)
        if value is None or value <= 0:
            raise CompilationError(
                f"{context}: transfer rate must be a positive compile-time constant, got {expr}"
            )
        return value

    # -- top level -----------------------------------------------------------
    def compile(self) -> CompiledProcess:
        body = list(self.process.body)
        # Hoist the initialisation sequence: leading statements that perform
        # no port operation are executed once at start-up (Section 6.4.2) and
        # are not part of the cyclic schedule (footnote in Section 4.1), so
        # the net starts directly with the reactive loop, matching Figure 3.
        while body and not contains_port_statement(body[0]):
            self.declarations.append(body[0])
            body.pop(0)
        exit_place = self._compile_sequence(body, self.initial_place)
        if exit_place != self.initial_place:
            # Implicit restart: processes describe cyclic behaviour executed
            # repeatedly in response to the environment (Section 4.1 footnote).
            if self.net.postset_of_place(exit_place) or self._place_is_reachable(exit_place):
                loop = self._new_transition(code=[], guard=None)
                self.net.add_arc(exit_place, loop)
                self.net.add_arc(loop, self.initial_place)
        self._simplify()
        for port in self.process.ports:
            self._port_place(port.name)
        self.net.validate()
        return CompiledProcess(
            process=self.process,
            net=self.net,
            initial_place=self.initial_place,
            port_places=dict(self.port_places),
            declarations=list(self.declarations),
        )

    def _place_is_reachable(self, place: str) -> bool:
        """A place is considered reachable if it has any predecessor or tokens."""
        return bool(self.net.preset_of_place(place)) or bool(
            self.net.initial_tokens.get(place, 0)
        )

    # -- sequences -----------------------------------------------------------
    def _compile_sequence(self, statements: Sequence[Statement], entry: str) -> str:
        """Compile a statement sequence starting at control place ``entry``.

        Returns the control place reached after the sequence.
        """
        current_place = entry
        for portion in portions(statements):
            if isinstance(portion, list):
                current_place = self._emit_segment(portion, current_place)
            else:
                current_place = self._compile_control(portion, current_place)
        return current_place

    def _emit_segment(self, statements: List[Statement], entry: str) -> str:
        """Emit one transition for a leader-delimited portion of code."""
        transition = self._new_transition(code=list(statements))
        self.net.add_arc(entry, transition)
        exit_place = self._new_place()
        self.net.add_arc(transition, exit_place)
        for statement in statements:
            if isinstance(statement, ReadData):
                port_place = self._port_place(statement.port)
                rate = self._rate(statement.nitems, f"READ_DATA on {statement.port}")
                self.net.add_arc(port_place, transition, rate)
            elif isinstance(statement, WriteData):
                port_place = self._port_place(statement.port)
                rate = self._rate(statement.nitems, f"WRITE_DATA on {statement.port}")
                self.net.add_arc(transition, port_place, rate)
        return exit_place

    # -- control statements ----------------------------------------------------
    def _compile_control(self, statement: Statement, entry: str) -> str:
        if isinstance(statement, While):
            return self._compile_while(statement.condition, statement.body, entry)
        if isinstance(statement, For):
            return self._compile_for(statement, entry)
        if isinstance(statement, If):
            return self._compile_if(statement, entry)
        if isinstance(statement, Switch):
            if isinstance(statement.subject, SelectExpr):
                return self._compile_select_switch(statement, entry)
            return self._compile_data_switch(statement, entry)
        if isinstance(statement, (Break, Continue, Return)):
            raise CompilationError(
                f"{statement} is not supported inside port-containing control flow"
            )
        raise CompilationError(f"unsupported port-containing statement: {statement}")

    def _compile_while(self, condition: Expression, body: Sequence[Statement], entry: str) -> str:
        constant = _constant_truth(condition)
        if constant is True:
            # Infinite reactive loop: body cycles back to the entry place.
            body_exit = self._compile_sequence(body, entry)
            if body_exit != entry:
                loop = self._new_transition(code=[])
                self.net.add_arc(body_exit, loop)
                self.net.add_arc(loop, entry)
            # Code after `while (1)` is unreachable; give it a fresh place.
            return self._new_place()
        if constant is False:
            return entry
        choice = self._ensure_choice_place(entry, condition)
        exit_place = self._new_place()
        # True branch: execute the body then return to the choice place.
        t_true = self._new_transition(code=[], guard=True)
        self.net.add_arc(choice, t_true)
        body_entry = self._new_place()
        self.net.add_arc(t_true, body_entry)
        body_exit = self._compile_sequence(body, body_entry)
        t_loop = self._new_transition(code=[])
        self.net.add_arc(body_exit, t_loop)
        self.net.add_arc(t_loop, choice)
        # False branch: leave the loop.
        t_false = self._new_transition(code=[], guard=False)
        self.net.add_arc(choice, t_false)
        self.net.add_arc(t_false, exit_place)
        return exit_place

    def _ensure_choice_place(self, entry: str, condition: object) -> str:
        """Attach ``condition`` to ``entry``, inserting an epsilon step if the
        place already resolves another condition or is a port place."""
        place = self.net.places[entry]
        if place.condition is None and not place.is_port and not self.net.postset_of_place(entry):
            place.condition = condition
            return entry
        epsilon = self._new_transition(code=[])
        self.net.add_arc(entry, epsilon)
        fresh = self._new_place(condition=condition)
        self.net.add_arc(epsilon, fresh)
        return fresh

    def _compile_for(self, statement: For, entry: str) -> str:
        """Compile a ``for`` loop containing port operations.

        Loops whose trip count is a compile-time constant are unrolled (the
        static schedule then needs no data-dependent choice for them, which is
        what makes fixed-length pixel/line loops over channels quasi-statically
        schedulable); other loops are desugared into
        ``init; while (cond) { body; update; }``.
        """
        trip_count = constant_trip_count(statement)
        if trip_count is not None and trip_count <= self.max_unroll:
            unrolled: List[Statement] = []
            if statement.init is not None:
                unrolled.append(ExprStatement(statement.init))
            for _ in range(trip_count):
                unrolled.extend(statement.body)
                if statement.update is not None:
                    unrolled.append(ExprStatement(statement.update))
            return self._compile_sequence(unrolled, entry)
        prologue: List[Statement] = []
        if statement.init is not None:
            prologue.append(ExprStatement(statement.init))
        body: List[Statement] = list(statement.body)
        if statement.update is not None:
            body.append(ExprStatement(statement.update))
        condition = statement.condition if statement.condition is not None else IntLiteral(1)
        current = entry
        if prologue:
            current = self._compile_sequence(prologue, current)
        return self._compile_while(condition, body, current)

    def _compile_if(self, statement: If, entry: str) -> str:
        choice = self._ensure_choice_place(entry, statement.condition)
        exit_place = self._new_place()
        t_true = self._new_transition(code=[], guard=True)
        self.net.add_arc(choice, t_true)
        then_entry = self._new_place()
        self.net.add_arc(t_true, then_entry)
        then_exit = self._compile_sequence(statement.then_body, then_entry)
        t_join_then = self._new_transition(code=[])
        self.net.add_arc(then_exit, t_join_then)
        self.net.add_arc(t_join_then, exit_place)

        t_false = self._new_transition(code=[], guard=False)
        self.net.add_arc(choice, t_false)
        if statement.else_body:
            else_entry = self._new_place()
            self.net.add_arc(t_false, else_entry)
            else_exit = self._compile_sequence(statement.else_body, else_entry)
            t_join_else = self._new_transition(code=[])
            self.net.add_arc(else_exit, t_join_else)
            self.net.add_arc(t_join_else, exit_place)
        else:
            self.net.add_arc(t_false, exit_place)
        return exit_place

    def _compile_data_switch(self, statement: Switch, entry: str) -> str:
        choice = self._ensure_choice_place(entry, statement.subject)
        exit_place = self._new_place()
        for case in statement.cases:
            guard: object = "default" if case.value is None else evaluate_constant(case.value)
            if guard is None:
                raise CompilationError("switch case labels must be constant expressions")
            t_case = self._new_transition(code=[], guard=guard)
            self.net.add_arc(choice, t_case)
            case_entry = self._new_place()
            self.net.add_arc(t_case, case_entry)
            body = _strip_trailing_break(case.body)
            case_exit = self._compile_sequence(body, case_entry)
            t_join = self._new_transition(code=[])
            self.net.add_arc(case_exit, t_join)
            self.net.add_arc(t_join, exit_place)
        if all(case.value is not None for case in statement.cases):
            # C skips a switch that no case matches: an implicit default
            t_default = self._new_transition(code=[], guard="default")
            self.net.add_arc(choice, t_default)
            self.net.add_arc(t_default, exit_place)
        return exit_place

    def _compile_select_switch(self, statement: Switch, entry: str) -> str:
        """Compile ``switch (SELECT(...))`` (Section 7.1).

        Each case transition tests the availability of its port: input ports
        contribute a read (test) arc of the required weight, so the branch is
        enabled only when the channel holds enough tokens.  Availability of
        free space on bounded output channels is left to the scheduler /
        run-time, matching the conservative treatment in the paper.
        """
        select = statement.subject
        assert isinstance(select, SelectExpr)
        choice = self._ensure_choice_place(entry, SelectCondition(select))
        exit_place = self._new_place()
        cases_by_index: Dict[int, Tuple[Statement, ...]] = {}
        default_body: Optional[Tuple[Statement, ...]] = None
        for case in statement.cases:
            if case.value is None:
                default_body = case.body
                continue
            index = evaluate_constant(case.value)
            if index is None:
                raise CompilationError("SELECT case labels must be constant expressions")
            cases_by_index[index] = case.body
        for priority, (port, count_expr) in enumerate(select.entries):
            body = cases_by_index.get(priority, default_body or ())
            t_case = self._new_transition(code=[], guard=priority, select_priority=priority)
            self.net.add_arc(choice, t_case)
            port_decl = self.process.port(port)
            if port_decl.is_input:
                port_place = self._port_place(port)
                rate = self._rate(count_expr, f"SELECT on {port}")
                # test arc: requires the tokens but does not consume them
                self.net.add_arc(port_place, t_case, rate)
                self.net.add_arc(t_case, port_place, rate)
            case_entry = self._new_place()
            self.net.add_arc(t_case, case_entry)
            case_exit = self._compile_sequence(_strip_trailing_break(body), case_entry)
            t_join = self._new_transition(code=[])
            self.net.add_arc(case_exit, t_join)
            self.net.add_arc(t_join, exit_place)
        return exit_place

    # -- simplification --------------------------------------------------------
    def _simplify(self) -> None:
        """Collapse epsilon transitions to obtain the compact net of Figure 3.

        A transition ``t1 -> p -> t2`` chain is merged when ``p`` is an
        internal unmarked control place with exactly one predecessor and one
        successor and at least one of the two transitions is a silent
        (code-free, guard-free for the absorbed one) epsilon.
        """
        changed = True
        while changed:
            changed = False
            for place in list(self.net.places):
                obj = self.net.places[place]
                if obj.is_port or obj.condition is not None:
                    continue
                if place == self.initial_place or self.net.initial_tokens.get(place, 0):
                    continue
                predecessors = self.net.preset_of_place(place)
                successors = self.net.postset_of_place(place)
                if len(predecessors) != 1 or len(successors) != 1:
                    continue
                t1 = next(iter(predecessors))
                t2 = next(iter(successors))
                if t1 == t2:
                    continue
                trans1 = self.net.transitions[t1]
                trans2 = self.net.transitions[t2]
                # t2 must consume only from the merged place so the preset of
                # the merged transition stays equal to t1's preset; this keeps
                # every choice place Equal Choice (the merge never changes the
                # ECS structure seen by t1's predecessors).
                if set(self.net.pre[t2]) != {place}:
                    continue
                t2_silent = (
                    not trans2.code
                    and trans2.guard is None
                    and trans2.select_priority is None
                )
                t1_absorbable = (
                    not trans1.code
                    and set(self.net.post[t1]) == {place}
                    and not (trans1.guard is not None and trans2.guard is not None)
                    and not (
                        trans1.select_priority is not None
                        and trans2.select_priority is not None
                    )
                )
                if not (t2_silent or t1_absorbable):
                    continue
                self._merge_transitions(t1, place, t2)
                changed = True
                break
        self._remove_dangling_places()

    def _remove_dangling_places(self) -> None:
        """Drop unmarked internal places with no arcs (unreachable exits)."""
        removed = False
        for place in list(self.net.places):
            obj = self.net.places[place]
            if obj.is_port or place == self.initial_place:
                continue
            if self.net.initial_tokens.get(place, 0):
                continue
            if self.net.preset_of_place(place) or self.net.postset_of_place(place):
                continue
            # a dangling place has no arcs, so removing it cannot change any
            # other place's adjacency; one invalidation after the loop suffices
            del self.net.places[place]
            removed = True
        if removed:
            self.net.invalidate_caches()

    def _merge_transitions(self, t1: str, place: str, t2: str) -> None:
        trans1 = self.net.transitions[t1]
        trans2 = self.net.transitions[t2]
        merged_code = tuple(trans1.code or ()) + tuple(trans2.code or ())
        merged_guard = trans1.guard if trans1.guard is not None else trans2.guard
        merged_priority = (
            trans1.select_priority if trans1.select_priority is not None else trans2.select_priority
        )
        new_pre: Dict[str, int] = dict(self.net.pre[t1])
        for p, w in self.net.pre[t2].items():
            if p == place:
                continue
            new_pre[p] = new_pre.get(p, 0) + w
        new_post: Dict[str, int] = {}
        for p, w in self.net.post[t1].items():
            if p == place:
                continue
            new_post[p] = new_post.get(p, 0) + w
        for p, w in self.net.post[t2].items():
            new_post[p] = new_post.get(p, 0) + w
        # reuse t1's identity for the merged transition
        self.net.transitions[t1] = type(trans1)(
            name=t1,
            code=merged_code,
            process=trans1.process,
            source_kind=trans1.source_kind,
            is_sink=trans1.is_sink,
            guard=merged_guard,
            select_priority=merged_priority,
        )
        self.net.pre[t1] = new_pre
        self.net.post[t1] = new_post
        del self.net.transitions[t2]
        del self.net.pre[t2]
        del self.net.post[t2]
        del self.net.places[place]
        self.net.initial_tokens.pop(place, None)
        self.net.invalidate_caches()


def _strip_trailing_break(body: Sequence[Statement]) -> Tuple[Statement, ...]:
    """A ``case`` body without the ``break``s that end it, braced or not."""
    statements = iter_statements(body)
    while statements and isinstance(statements[-1], Break):
        statements.pop()
    return tuple(statements)


def compile_process(
    process: Process,
    *,
    max_unroll: int = _ProcessCompiler.DEFAULT_MAX_UNROLL,
) -> CompiledProcess:
    """Compile a FlowC process into its sequential Petri net, with its
    epsilon transitions collapsed (the compact net of Figure 3).

    Parameters
    ----------
    max_unroll:
        Maximum constant trip count for which port-containing ``for`` loops
        are unrolled instead of being turned into data-dependent choices.
    """
    return _ProcessCompiler(process, max_unroll=max_unroll).compile()
