"""The documentation contract of the public API surface.

A pydocstyle-lite enforced by an explicit symbol list: every public symbol
below must carry a substantive docstring, every public method / property of
the listed classes must be documented (inherited docstrings count -- an
override of a documented base method is fine), and the designated entry
points must include a short usage example.  Growing the public API means
growing this list.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

#: (module, symbol) pairs forming the supported public API surface.
PUBLIC_API = [
    # scheduling entry points
    ("repro.scheduling.ep", "find_schedule"),
    ("repro.scheduling.ep", "find_all_schedules"),
    ("repro.scheduling.ep", "SchedulerOptions"),
    ("repro.scheduling.ep", "SchedulerResult"),
    ("repro.scheduling.ep", "SearchCounters"),
    ("repro.scheduling.ep", "SchedulingFailure"),
    # canonical serialization
    ("repro.scheduling.serialize", "schedule_to_dict"),
    ("repro.scheduling.serialize", "schedule_from_dict"),
    ("repro.scheduling.serialize", "schedule_to_json"),
    ("repro.scheduling.serialize", "schedule_fingerprint"),
    ("repro.scheduling.serialize", "result_to_record"),
    ("repro.scheduling.serialize", "schedule_summary"),
    # schedules and the net facade
    ("repro.scheduling.schedule", "Schedule"),
    ("repro.petrinet.net", "PetriNet"),
    ("repro.petrinet.net", "Place"),
    ("repro.petrinet.net", "Transition"),
    ("repro.petrinet.marking", "Marking"),
    ("repro.petrinet.fingerprint", "structural_fingerprint"),
    ("repro.petrinet.invariants", "t_invariant_basis"),
    ("repro.petrinet.invariants", "invariant_basis"),
    ("repro.petrinet.invariants", "InvariantBasis"),
    # the irrelevance criterion (Definition 4.5)
    ("repro.scheduling.termination", "IncrementalIrrelevance"),
    ("repro.scheduling.termination", "witnessed_by"),
    ("repro.petrinet.indexed", "MarkingStore"),
    # the disk level of the daemon's record cache
    ("repro.cache", "options_cache_key"),
    ("repro.cache", "SqliteStore"),
    ("repro.cache", "activate"),
    ("repro.cache", "schedule_entry_problem"),
    ("repro.cache.cli", "main"),
    # the scheduling daemon
    ("repro.serve", "SchedulingService"),
    ("repro.serve", "ScheduleServer"),
    ("repro.serve", "start_server"),
    ("repro.serve", "ServeMetrics"),
    ("repro.serve", "LatencyHistogram"),
    ("repro.serve", "ProtocolError"),
    ("repro.serve", "net_to_dict"),
    ("repro.serve", "net_from_dict"),
    ("repro.serve", "options_from_dict"),
    ("repro.serve.__main__", "main"),
    # experiments facade
    ("repro.experiments.common", "build_pfc_setup"),
]

#: Entry points whose docstring must include a usage example.
MUST_HAVE_EXAMPLE = {
    ("repro.scheduling.ep", "find_schedule"),
    ("repro.scheduling.ep", "find_all_schedules"),
    ("repro.scheduling.ep", "SchedulerOptions"),
    ("repro.cache", None),  # the package docstring itself
    ("repro.serve", None),  # the package docstring itself
    ("repro.serve.server", "start_server"),
    ("repro.serve.service", "SchedulingService"),
}


def _resolve(module_name: str, symbol: str):
    module = importlib.import_module(module_name)
    assert hasattr(module, symbol), f"{module_name}.{symbol} disappeared"
    return getattr(module, symbol)


@pytest.mark.parametrize("module_name,symbol", PUBLIC_API)
def test_public_symbol_has_docstring(module_name, symbol):
    obj = _resolve(module_name, symbol)
    doc = inspect.getdoc(obj) or ""
    assert len(doc.strip()) >= 20, f"{module_name}.{symbol} needs a substantive docstring"


@pytest.mark.parametrize(
    "module_name,symbol",
    [(m, s) for m, s in PUBLIC_API if inspect.isclass(_resolve(m, s))],
)
def test_public_class_methods_are_documented(module_name, symbol):
    cls = _resolve(module_name, symbol)
    undocumented = []
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if not (
            inspect.isfunction(member)
            or inspect.ismethod(member)
            or isinstance(member, property)
        ):
            continue
        target = member.fget if isinstance(member, property) else member
        if not (inspect.getdoc(target) or "").strip():
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name}.{symbol} has undocumented public members: {undocumented}"
    )


@pytest.mark.parametrize(
    "module_name,symbol",
    sorted(MUST_HAVE_EXAMPLE, key=lambda entry: (entry[0], entry[1] or "")),
)
def test_entry_points_show_an_example(module_name, symbol):
    if symbol is None:
        obj = importlib.import_module(module_name)
    else:
        obj = _resolve(module_name, symbol)
    doc = inspect.getdoc(obj) or ""
    assert ">>>" in doc or "Example" in doc, (
        f"{module_name}.{symbol or '(module)'} docstring needs a short example"
    )


def test_module_docstrings_exist():
    """Every package module a user might read first explains itself."""
    for module_name in [
        "repro.cache",
        "repro.cache.cli",
        "repro.serve",
        "repro.serve.protocol",
        "repro.serve.service",
        "repro.serve.server",
        "repro.scheduling.ep",
        "repro.scheduling.serialize",
        "repro.scheduling.termination",
        "repro.petrinet.net",
        "repro.petrinet.invariants",
        "repro.petrinet.fingerprint",
        "repro.experiments.common",
    ]:
        module = importlib.import_module(module_name)
        assert len((module.__doc__ or "").strip()) >= 40, f"{module_name} needs a module docstring"
