"""Immutable markings of a Petri net.

A marking maps place names to non-negative token counts.  Markings are
hashable so they can be used as keys in reachability structures and compared
for equality when the scheduler looks for an ancestor with the same marking
(Section 5.2 of the paper).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Marking(Mapping[str, int]):
    """An immutable mapping from place name to token count.

    Places with zero tokens are not stored, so two markings that agree on all
    non-zero places are equal regardless of which zero entries were supplied.
    Indexing a place that carries no tokens returns ``0``.
    """

    __slots__ = ("_data", "_items", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        data: Dict[str, int] = {}
        items = tokens.items() if isinstance(tokens, Mapping) else tokens
        for place, count in items:
            if count < 0:
                raise ValueError(f"negative token count for place {place!r}: {count}")
            if count:
                data[place] = int(count)
        self._data = data
        self._items: Tuple[Tuple[str, int], ...] = tuple(sorted(data.items()))
        self._hash = hash(self._items)

    @classmethod
    def _from_sorted_items(cls, items: Tuple[Tuple[str, int], ...]) -> "Marking":
        """Internal fast path: build from already-sorted positive-count items.

        Used by the indexed core, whose place IDs follow sorted-name order, to
        skip the re-sort and validation of ``__init__``.
        """
        self = object.__new__(cls)
        self._data = dict(items)
        self._items = items
        self._hash = hash(items)
        return self

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, place: str) -> int:
        return self._data.get(place, 0)

    def get(self, place: str, default: int = 0) -> int:  # type: ignore[override]
        """Token count of ``place`` (``default`` when absent / zero)."""
        return self._data.get(place, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, place: object) -> bool:
        return place in self._data

    # -- equality / hashing ------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._items == other._items
        if isinstance(other, Mapping):
            # Compare without constructing a throwaway Marking (and paying its
            # sort + hash): a marking equals a mapping iff the non-zero entries
            # agree.  Mappings with negative counts can never equal a marking.
            data = self._data
            seen = 0
            for place, count in other.items():
                if not count:
                    continue
                if data.get(place, 0) != count:
                    return False
                seen += 1
            return seen == len(data)
        return NotImplemented

    def __repr__(self) -> str:
        if not self._items:
            return "Marking({})"
        inner = ", ".join(f"{name!r}: {count}" for name, count in self._items)
        return f"Marking({{{inner}}})"

    def pretty(self) -> str:
        """Compact human-readable rendering such as ``p1 p2^2``."""
        if not self._items:
            return "<empty>"
        parts = []
        for name, count in self._items:
            parts.append(name if count == 1 else f"{name}^{count}")
        return " ".join(parts)

    def as_dict(self) -> Dict[str, int]:
        """The non-zero token counts as a new plain dict."""
        return dict(self._data)

    # -- arithmetic helpers -------------------------------------------------
    def items_with_zero(self, places: Iterable[str]) -> Iterator[Tuple[str, int]]:
        """Iterate ``(place, count)`` for every place in ``places``."""
        for place in places:
            yield place, self._data.get(place, 0)

    def add(self, deltas: Mapping[str, int]) -> "Marking":
        """Return a new marking with ``deltas`` added (may be negative)."""
        data = dict(self._data)
        for place, delta in deltas.items():
            data[place] = data.get(place, 0) + delta
        return Marking(data)

    def covers(self, other: "Marking") -> bool:
        """True if every place has at least as many tokens as in ``other``."""
        return all(self[place] >= count for place, count in other.items())

    def total_tokens(self) -> int:
        """Sum of all token counts in the marking."""
        return sum(self._data.values())

    def restrict(self, places: Iterable[str]) -> "Marking":
        """Projection of the marking onto ``places``."""
        keep = set(places)
        return Marking({name: count for name, count in self._data.items() if name in keep})
