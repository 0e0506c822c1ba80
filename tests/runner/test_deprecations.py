"""The batch kernels that replaced the per-axis model methods.

``ScpgPowerModel`` and ``SubvtModel`` expose one per-point method each
(``power`` and ``point``); a grid of points goes through the model's own
batch method, which each sweep module's ``_batch_kernel`` hands the
runner.  These checks hold each kernel, called directly, to the
per-point method of the same model -- float-identical, not approx --
and check that the kernel path raises no :class:`DeprecationWarning`.
See ``docs/api.md`` ("Batch evaluation").
"""

import warnings

from repro.analysis.sweep import _batch_kernel as sweep_kernel
from repro.scpg.power_model import Mode
from repro.subvt.energy import SubvtModel
from repro.subvt.energy import _batch_kernel as subvt_kernel


class TestPowerModelShims:
    def test_kernel_replacement_identical(self, mult_study):
        model = mult_study.model
        points = [(1e5, Mode.SCPG), (2e6, Mode.SCPG_MAX)]
        kernel = sweep_kernel(model)
        assert kernel is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            new = kernel(points)
        assert [b.total for b in new] \
            == [model.power(f, mode).total for f, mode in points]


class TestSubvtShims:
    def test_kernel_replacement_identical(self, lib):
        model = SubvtModel(lib, 1e-12, 1e-6, 1e-8)
        kernel = subvt_kernel(model)
        assert kernel is not None
        vdds = [0.25, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            new = kernel(vdds)
        assert [p.energy for p in new] \
            == [model.point(v).energy for v in vdds]
