"""Core Petri net data structures.

The net follows the definition of Section 2 of the paper: a tuple
``(P, T, F, M0)`` where ``F`` maps ``(P x T) U (T x P)`` to non-negative
integer weights.  Transitions additionally carry the annotations produced by
the FlowC compiler (code fragments, condition labels, process of origin,
source kind) and places carry the attributes used by linking (port/channel
identity, user-defined bounds, condition expressions for choice places).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.petrinet.marking import Marking

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.petrinet.indexed import IndexedNet


class PetriNetError(Exception):
    """Base class for structural errors in a Petri net."""


class ArcError(PetriNetError):
    """Raised when an arc refers to unknown nodes or has an invalid weight."""


class SourceKind(enum.Enum):
    """Classification of source transitions attached to environment ports."""

    NONE = "none"
    CONTROLLABLE = "controllable"
    UNCONTROLLABLE = "uncontrollable"


@dataclass
class Place:
    """A place of the net.

    Attributes
    ----------
    name:
        Unique identifier within the net.
    bound:
        Optional user-defined bound on the number of tokens (channel bound).
    is_port:
        True for places that model a FlowC port / channel.
    channel:
        Name of the channel this place implements, when ``is_port``.
    process:
        Name of the process the place belongs to (``None`` for merged channel
        places shared by two processes).
    condition:
        For choice places introduced by ``if``/``while`` statements, the
        source expression whose run-time value selects the successor.
    """

    name: str
    bound: Optional[int] = None
    is_port: bool = False
    channel: Optional[str] = None
    process: Optional[str] = None
    condition: Optional[object] = None

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Transition:
    """A transition of the net.

    Attributes
    ----------
    name:
        Unique identifier within the net.
    code:
        Opaque annotation carrying the FlowC statements executed when the
        transition fires (a list of AST statements, or ``None`` for silent
        transitions).
    process:
        Name of the originating FlowC process (``None`` for environment
        source/sink transitions).
    source_kind:
        Whether the transition is an environment source and of which class.
    is_sink:
        True for environment sink transitions attached to primary outputs.
    guard:
        For transitions that resolve a data-dependent choice, the branch
        they represent: ``True`` or ``False`` for ``if``/``while``, the case
        label (an integer) or ``"default"`` for ``switch``, the entry index
        for SELECT; ``None`` otherwise.
    select_priority:
        Priority used to resolve SELECT choices (lower value = higher
        priority); ``None`` for transitions not created by SELECT.
    """

    name: str
    code: object = None
    process: Optional[str] = None
    source_kind: SourceKind = SourceKind.NONE
    is_sink: bool = False
    guard: Union[bool, int, str, None] = None
    select_priority: Optional[int] = None

    @property
    def is_source(self) -> bool:
        """True for any environment-port transition (either source kind)."""
        return self.source_kind is not SourceKind.NONE

    @property
    def is_uncontrollable_source(self) -> bool:
        """True when the environment decides when this transition fires."""
        return self.source_kind is SourceKind.UNCONTROLLABLE

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class PetriNet:
    """A weighted Petri net with an initial marking."""

    name: str = "net"
    places: Dict[str, Place] = field(default_factory=dict)
    transitions: Dict[str, Transition] = field(default_factory=dict)
    # pre[t][p] = F(p, t); post[t][p] = F(t, p)
    pre: Dict[str, Dict[str, int]] = field(default_factory=dict)
    post: Dict[str, Dict[str, int]] = field(default_factory=dict)
    initial_tokens: Dict[str, int] = field(default_factory=dict)

    # -- derived caches (not part of the value of the net) -----------------
    # Structural version: bumped on every mutation so the indexed view and
    # the place adjacency can detect staleness.
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _indexed: Optional["IndexedNet"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _indexed_version: int = field(default=-1, init=False, repr=False, compare=False)
    # place -> {transition: weight} adjacency, maintained incrementally by
    # add_place/add_arc and rebuilt lazily after invalidate_caches() or
    # when the constructor was handed the dicts (merge_nets).
    _place_in: Dict[str, Dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _place_out: Dict[str, Dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _adjacency_dirty: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Constructor-supplied dicts bypass add_place/add_arc; rebuild lazily.
        if self.places or self.pre or self.post:
            self._adjacency_dirty = True

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Declare a structural mutation done outside the ``add_*`` methods.

        Code that pokes ``pre``/``post``/``places``/``initial_tokens``
        directly (the compiler's epsilon collapse) must call this afterwards
        so the indexed view and the place adjacency are rebuilt before their
        next use.
        """
        self._version += 1
        self._indexed = None
        self._adjacency_dirty = True

    def indexed(self) -> "IndexedNet":
        """The cached integer-dense view of this net (see ``petrinet.indexed``).

        Rebuilt automatically when the structural version changed; callers
        must not keep using an old view across mutations.  The memos kept on
        a view (``IndexedNet.analysis_cache``) die with it.
        """
        if self._indexed is None or self._indexed_version != self._version:
            from repro.petrinet.indexed import IndexedNet

            self._indexed = IndexedNet(self)
            self._indexed_version = self._version
        return self._indexed

    def _adjacency(self) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, int]]]:
        if self._adjacency_dirty:
            place_in: Dict[str, Dict[str, int]] = {p: {} for p in self.places}
            place_out: Dict[str, Dict[str, int]] = {p: {} for p in self.places}
            for transition, places in self.pre.items():
                for place, weight in places.items():
                    place_out[place][transition] = weight
            for transition, places in self.post.items():
                for place, weight in places.items():
                    place_in[place][transition] = weight
            self._place_in = place_in
            self._place_out = place_out
            self._adjacency_dirty = False
        return self._place_in, self._place_out

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(
        self,
        name: str,
        tokens: int = 0,
        *,
        bound: Optional[int] = None,
        is_port: bool = False,
        channel: Optional[str] = None,
        process: Optional[str] = None,
        condition: Optional[object] = None,
    ) -> Place:
        """Add a place; raises if the name is already used."""
        if name in self.places:
            raise PetriNetError(f"duplicate place {name!r}")
        if name in self.transitions:
            raise PetriNetError(f"name {name!r} already used by a transition")
        if tokens < 0:
            raise PetriNetError(f"negative initial tokens for place {name!r}")
        place = Place(
            name=name,
            bound=bound,
            is_port=is_port,
            channel=channel,
            process=process,
            condition=condition,
        )
        self.places[name] = place
        if tokens:
            self.initial_tokens[name] = tokens
        if not self._adjacency_dirty:
            self._place_in[name] = {}
            self._place_out[name] = {}
        self._version += 1
        return place

    def add_transition(
        self,
        name: str,
        *,
        code: object = None,
        process: Optional[str] = None,
        source_kind: SourceKind = SourceKind.NONE,
        is_sink: bool = False,
        guard: Union[bool, int, str, None] = None,
        select_priority: Optional[int] = None,
    ) -> Transition:
        """Add a transition; raises if the name is already used."""
        if name in self.transitions:
            raise PetriNetError(f"duplicate transition {name!r}")
        if name in self.places:
            raise PetriNetError(f"name {name!r} already used by a place")
        transition = Transition(
            name=name,
            code=code,
            process=process,
            source_kind=source_kind,
            is_sink=is_sink,
            guard=guard,
            select_priority=select_priority,
        )
        self.transitions[name] = transition
        self.pre[name] = {}
        self.post[name] = {}
        self._version += 1
        return transition

    def add_arc(self, src: str, dst: str, weight: int = 1) -> None:
        """Add an arc from ``src`` to ``dst`` with the given weight.

        One endpoint must be a place and the other a transition.  Adding an
        arc that already exists accumulates the weight.
        """
        if weight <= 0:
            raise ArcError(f"arc weight must be positive, got {weight}")
        if src in self.places and dst in self.transitions:
            total = self.pre[dst].get(src, 0) + weight
            self.pre[dst][src] = total
            if not self._adjacency_dirty:
                self._place_out[src][dst] = total
        elif src in self.transitions and dst in self.places:
            total = self.post[src].get(dst, 0) + weight
            self.post[src][dst] = total
            if not self._adjacency_dirty:
                self._place_in[dst][src] = total
        else:
            raise ArcError(f"arc ({src!r}, {dst!r}) does not connect a place and a transition")
        self._version += 1

    # ------------------------------------------------------------------
    # weights / structure queries
    # ------------------------------------------------------------------
    def weight_pt(self, place: str, transition: str) -> int:
        """F(p, t): weight of the arc from ``place`` to ``transition``."""
        return self.pre.get(transition, {}).get(place, 0)

    def weight_tp(self, transition: str, place: str) -> int:
        """F(t, p): weight of the arc from ``transition`` to ``place``."""
        return self.post.get(transition, {}).get(place, 0)

    def preset_of_place(self, place: str) -> Dict[str, int]:
        """Transitions feeding ``place`` with their weights."""
        place_in, _place_out = self._adjacency()
        return dict(place_in.get(place, ()))

    def postset_of_place(self, place: str) -> Dict[str, int]:
        """Transitions consuming from ``place`` with their weights."""
        _place_in, place_out = self._adjacency()
        return dict(place_out.get(place, ()))

    def successors_of_place(self, place: str) -> List[str]:
        """Names of the transitions consuming from ``place``, sorted."""
        return sorted(self.postset_of_place(place))

    def predecessors_of_place(self, place: str) -> List[str]:
        """Names of the transitions producing into ``place``, sorted."""
        return sorted(self.preset_of_place(place))

    # ------------------------------------------------------------------
    # marking / firing semantics
    # ------------------------------------------------------------------
    @property
    def initial_marking(self) -> Marking:
        """The initial marking ``M0`` as an immutable :class:`Marking`."""
        return Marking(self.initial_tokens)

    def set_initial_tokens(self, place: str, tokens: int) -> None:
        """Set ``M0(place) = tokens``.

        Bumps the version like the ``add_*`` mutators: ``M0`` enters the
        snapshot's ``initial_vec`` and the place degrees of the structural
        analysis memoised on it, so the next :meth:`indexed` is a new
        snapshot."""
        if place not in self.places:
            raise PetriNetError(f"unknown place {place!r}")
        if tokens < 0:
            raise PetriNetError("initial token count must be non-negative")
        if tokens:
            self.initial_tokens[place] = tokens
        else:
            self.initial_tokens.pop(place, None)
        self._version += 1

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True if ``transition`` is enabled at ``marking``."""
        if transition not in self.transitions:
            raise PetriNetError(f"unknown transition {transition!r}")
        return all(marking[place] >= weight for place, weight in self.pre[transition].items())

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire ``transition`` at ``marking`` and return the new marking."""
        if not self.is_enabled(transition, marking):
            raise PetriNetError(f"transition {transition!r} is not enabled at {marking.pretty()}")
        indexed = self.indexed()
        return marking.add(indexed.deltas_by_name[indexed.transition_index[transition]])

    def fire_sequence(self, sequence: Sequence[str], marking: Optional[Marking] = None) -> Marking:
        """Fire a sequence of transitions, raising if any is not enabled."""
        current = self.initial_marking if marking is None else marking
        for transition in sequence:
            current = self.fire(transition, current)
        return current

    def is_fireable_sequence(self, sequence: Sequence[str], marking: Optional[Marking] = None) -> bool:
        """True if the sequence can be fired from ``marking`` (default M0)."""
        current = self.initial_marking if marking is None else marking
        for transition in sequence:
            if not self.is_enabled(transition, current):
                return False
            current = self.fire(transition, current)
        return True

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """All transitions enabled at ``marking`` (sorted by name)."""
        indexed = self.indexed()
        vec = indexed.vec_of_marking(marking)
        names = indexed.transition_names
        # transition IDs follow sorted-name order, so the result is sorted
        return [names[tid] for tid in indexed.enabled_vec(vec)]

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    def source_transitions(self) -> List[str]:
        """Structural sources: transitions with an empty preset."""
        return sorted(t for t in self.transitions if not self.pre[t])

    def uncontrollable_sources(self) -> List[str]:
        """The environment inputs -- one single-source schedule is built per entry."""
        return sorted(
            t for t, obj in self.transitions.items() if obj.source_kind is SourceKind.UNCONTROLLABLE
        )

    def controllable_sources(self) -> List[str]:
        """Source transitions the scheduler itself may choose to fire."""
        return sorted(
            t for t, obj in self.transitions.items() if obj.source_kind is SourceKind.CONTROLLABLE
        )

    def choice_places(self) -> List[str]:
        """Places with more than one successor transition."""
        return sorted(p for p in self.places if len(self.postset_of_place(p)) > 1)

    # ------------------------------------------------------------------
    # utility
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity of arcs and the initial marking."""
        for transition, places in list(self.pre.items()) + list(self.post.items()):
            if transition not in self.transitions:
                raise PetriNetError(f"arc refers to unknown transition {transition!r}")
            for place in places:
                if place not in self.places:
                    raise PetriNetError(f"arc refers to unknown place {place!r}")
        for place in self.initial_tokens:
            if place not in self.places:
                raise PetriNetError(f"initial marking refers to unknown place {place!r}")

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Deep-ish copy of the net (place/transition objects are shared-free)."""
        return merge_nets([self], name or self.name)

    def stats(self) -> Dict[str, int]:
        """Basic size statistics of the net."""
        arcs = sum(len(places) for places in self.pre.values())
        arcs += sum(len(places) for places in self.post.values())
        return {
            "places": len(self.places),
            "transitions": len(self.transitions),
            "arcs": arcs,
            "tokens": sum(self.initial_tokens.values()),
        }

    def to_dot(self) -> str:
        """Render the net in Graphviz dot syntax (for documentation)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for place in sorted(self.places):
            tokens = self.initial_tokens.get(place, 0)
            label = place if not tokens else f"{place}\\n{tokens}"
            shape = "ellipse" if not self.places[place].is_port else "doublecircle"
            lines.append(f'  "{place}" [shape={shape}, label="{label}"];')
        for transition in sorted(self.transitions):
            lines.append(f'  "{transition}" [shape=box];')
        for transition, places in sorted(self.pre.items()):
            for place, weight in sorted(places.items()):
                suffix = f' [label="{weight}"]' if weight != 1 else ""
                lines.append(f'  "{place}" -> "{transition}"{suffix};')
        for transition, places in sorted(self.post.items()):
            for place, weight in sorted(places.items()):
                suffix = f' [label="{weight}"]' if weight != 1 else ""
                lines.append(f'  "{transition}" -> "{place}"{suffix};')
        lines.append("}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self.transitions)

    def __contains__(self, name: str) -> bool:
        return name in self.transitions or name in self.places


def merge_nets(
    nets: Iterable[PetriNet],
    name: str = "linked",
    *,
    identify: Optional[Mapping[str, str]] = None,
) -> PetriNet:
    """Union of several nets, each copied once, with the places of
    ``identify`` merged into their targets.

    The places, transitions, ``pre``, ``post`` and initial tokens of each net
    are copied in order (fresh :class:`Place` and :class:`Transition`
    objects, dict order kept).  A place named by a key of ``identify`` is
    not copied: its arcs and tokens go to the place the key maps to, and
    weights add up where both reach one transition.  The linker makes each
    channel's place this way.  The place adjacency is left to be built on
    first use.

    Raises :class:`PetriNetError` if a name is used twice, or by both a
    place and a transition; the linker prefixes every name with its process.
    """
    nets = list(nets)
    rename: Mapping[str, str] = identify or {}
    places: Dict[str, Place] = {}
    transitions: Dict[str, Transition] = {}
    pre: Dict[str, Dict[str, int]] = {}
    post: Dict[str, Dict[str, int]] = {}
    initial_tokens: Dict[str, int] = {}
    copied = 0
    for net in nets:
        tokens = net.initial_tokens
        for key, p in net.places.items():
            target = rename.get(key)
            if target is None:
                target = key
                places[key] = Place(p.name, p.bound, p.is_port, p.channel, p.process, p.condition)
                copied += 1
            count = tokens.get(key)
            if count:
                initial_tokens[target] = initial_tokens.get(target, 0) + count
        for key, t in net.transitions.items():
            transitions[key] = Transition(
                t.name, t.code, t.process, t.source_kind, t.is_sink, t.guard, t.select_priority
            )
            pre[key] = _renamed(net.pre[key], rename)
            post[key] = _renamed(net.post[key], rename)
        copied += len(net.transitions)
    if len(places) + len(transitions) != copied or not places.keys().isdisjoint(transitions):
        names = [p for net in nets for p in net.places if p not in rename]
        names += [t for net in nets for t in net.transitions]
        clash = next(name for name, count in Counter(names).items() if count > 1)
        raise PetriNetError(f"name {clash!r} is used twice in the union")
    return PetriNet(name, places, transitions, pre, post, initial_tokens)


def _renamed(arcs: Dict[str, int], rename: Mapping[str, str]) -> Dict[str, int]:
    """A copy of one transition's arcs with the places of ``rename`` renamed.

    A renamed arc follows the others, unless its target is already there.
    """
    if rename.keys().isdisjoint(arcs):
        return dict(arcs)
    renamed = {place: weight for place, weight in arcs.items() if place not in rename}
    for place, weight in arcs.items():
        if place in rename:
            target = rename[place]
            renamed[target] = renamed.get(target, 0) + weight
    return renamed
