"""Golden snapshots of the cross-technique comparison.

Every number in ``repro compare`` -- per-technique Fmax, area
overheads, power breakdowns and savings against the shared baseline on
both case-study designs -- is pinned exactly.  The SCPG column doubles
as the bit-identity guarantee for the plugin refactor: it must keep
producing the pre-plugin ``ScpgPowerModel`` numbers forever.
"""

import pytest

from repro.session import Session
from repro.techniques import DEFAULT_COMPARE_FREQS


@pytest.fixture(scope="module")
def session():
    s = Session(store=None)
    yield s
    s.close()


@pytest.mark.parametrize("design", ["mult16", "m0lite"])
def test_compare_snapshot(session, design, golden_check):
    comparison = session.compare_techniques(design)
    assert comparison.freqs == list(DEFAULT_COMPARE_FREQS)
    assert comparison.techniques == ["cbtstc", "lector", "scpg"]
    golden_check("compare_{}".format(design), comparison.as_dict())
