"""One flatten per SCPG netlist.

The transform hands back its hierarchy; ``ScpgDesign.flat`` is flattened
and linted on first read, and the SCPG flow assigns its one post-CTS
flatten.  Read after the transform, the flat must be exactly the netlist
the transform used to flatten eagerly, lowered form for lowered form.
"""

import pytest

from repro.circuits import generators
from repro.circuits.multiplier import build_mult16
from repro.errors import NetlistError
from repro.flows import scpg_flow
from repro.netlist.core import Design
from repro.netlist.soa import lower_leakage, lower_soa
from repro.scpg import transform as scpg_transform
from repro.techniques import technique

from ..netlist.test_copy import assert_same_netlist, digest

_scpg = technique("scpg")


@pytest.fixture
def flattens(monkeypatch):
    """The list every ``Design.flatten`` call appends its design to."""
    calls = []
    real = Design.flatten

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Design, "flatten", counted)
    return calls


class TestFlattenCount:
    def test_transform_flattens_on_first_read(self, lib, flattens):
        scpg = _scpg.transform(Design(build_mult16(lib), lib))
        assert flattens == []
        repr(scpg)
        assert scpg == scpg
        assert flattens == []
        flat = scpg.flat
        assert flattens == [scpg.design]
        assert scpg.flat is flat and scpg.area > 0
        assert len(flattens) == 1

    def test_flow_flattens_once(self, lib, flattens):
        result = _scpg.implement(Design(build_mult16(lib), lib), lib)
        assert flattens == [result.scpg.design]
        assert result.scpg.flat is result.flow.flat
        assert result.scpg.area > 0
        assert len(flattens) == 1

    def test_flow_lints_its_flat(self, lib, monkeypatch):
        real = scpg_flow.synthesize_clock_tree

        def leaves_pin_open(module, library, clock):
            out = real(module, library, clock)
            module.add_instance("u_open", library.cell("BUF_X1"),
                                {"Y": module.add_net("n_open")})
            return out

        monkeypatch.setattr(scpg_flow, "synthesize_clock_tree",
                            leaves_pin_open)
        with pytest.raises(NetlistError, match="u_open input pin A"):
            _scpg.implement(Design(build_mult16(lib), lib), lib)


def _eager_flats(monkeypatch):
    """Flatten every design the transform assembles the moment it is
    built, as the transform once did."""
    flats = []
    real = Design

    def eager(top, library):
        design = real(top, library)
        flats.append(design.flatten())
        return design

    monkeypatch.setattr(scpg_transform, "Design", eager)
    return flats


@pytest.mark.parametrize("name", generators.available_families())
def test_lazy_flat_is_the_eager_flat(lib, monkeypatch, name):
    module = generators.elaborate(generators.family(name).key(), lib)
    eager = _eager_flats(monkeypatch)
    scpg = _scpg.transform(Design(module, lib))
    (want,) = eager
    got = scpg.flat.top
    assert_same_netlist(got, want.top)
    assert digest(lower_soa(got)) == digest(lower_soa(want.top))
    assert digest(lower_leakage(got)) == digest(lower_leakage(want.top))
