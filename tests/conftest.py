"""Shared fixtures for the test suite.

Heavy artefacts (the library, generated circuits, case studies) are
session-scoped; tests that need to *mutate* a netlist build their own via
the factory fixtures.
"""

import pytest
from hypothesis import settings

from repro.circuits.m0lite import build_m0lite

# Gate-level simulation makes single examples legitimately slow, and the
# sandbox shares one CPU core -- wall-clock deadlines would only add
# flakiness, so disable them for every property test.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
from repro.circuits.multiplier import build_mult16
from repro.netlist.core import Design, Module
from repro.tech.scl90 import build_scl90


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden files under tests/golden/data/ from "
        "the current outputs instead of comparing against them")


def _closed_spans(source, name):
    from repro.obs.report import load_events

    if not isinstance(source, list):
        source = str(source)
    return [line for line in load_events(source)
            if line.get("event") == "span" and line.get("name") == name
            and line.get("elapsed") is not None]


class RecordedTrace:
    """A tracer over a memory sink, with lookups over what it wrote."""

    def __init__(self):
        from repro.obs.trace import MemorySink, Tracer

        self.sink = MemorySink()
        self.tracer = Tracer(self.sink)

    @property
    def lines(self):
        return self.sink.lines

    def spans(self, name):
        """The closed span lines named ``name``, in emission order."""
        return _closed_spans(self.sink.lines, name)


@pytest.fixture()
def trace():
    """A :class:`RecordedTrace`: pass ``trace.tracer`` to the code under
    test, then read ``trace.spans("grid")``."""
    return RecordedTrace()


@pytest.fixture()
def spans_of():
    """``spans_of(source, name)``: the closed span lines named ``name``
    of a JSONL trace file or a list of lines (opening lines, with
    ``elapsed: null``, are left out)."""
    return _closed_spans


@pytest.fixture(scope="session")
def lib():
    """The scl90 library (read-only)."""
    return build_scl90()


@pytest.fixture(scope="session")
def mult_module(lib):
    """A generated 16-bit multiplier (treat as read-only)."""
    return build_mult16(lib)


@pytest.fixture(scope="session")
def m0_module(lib):
    """A generated M0-lite core (treat as read-only)."""
    return build_m0lite(lib)


@pytest.fixture()
def fresh_mult(lib):
    """A private multiplier instance tests may mutate."""
    return build_mult16(lib)


def _toy(lib, registered=True):
    """clk -> [NAND2 -> DFF -> INV] toy design."""
    m = Module("toy")
    clk = m.add_input("clk")
    a = m.add_input("a")
    b = m.add_input("b")
    y = m.add_output("y")
    n1 = m.add_net("n1")
    q = m.add_net("q")
    m.add_instance("g1", "NAND2_X1", {"A": a, "B": b, "Y": n1}, library=lib)
    if registered:
        m.add_instance("ff", "DFF_X1", {"D": n1, "CK": clk, "Q": q},
                       library=lib)
        m.add_instance("g2", "INV_X1", {"A": q, "Y": y}, library=lib)
    else:
        m.add_instance("g2", "INV_X1", {"A": n1, "Y": y}, library=lib)
    return Design(m, lib)


@pytest.fixture()
def toy_design(lib):
    """A tiny registered design tests may mutate."""
    return _toy(lib)


@pytest.fixture(scope="session")
def mult_study():
    """The full multiplier case study (fast mode, shared)."""
    from repro.paper import multiplier_study

    return multiplier_study(fast=True)


@pytest.fixture(scope="session")
def m0_study():
    """The full M0-lite case study (fast mode, shared)."""
    from repro.paper import cortex_m0_study

    return cortex_m0_study(fast=True)
