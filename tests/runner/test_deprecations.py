"""The compiled kernels that replaced the per-axis model methods.

``ScpgPowerModel`` and ``SubvtModel`` expose one per-point method each
(``power`` and ``point``); a grid of points goes through the compiled
kernel from :func:`compile_kernel`.  These checks hold each kernel,
called directly, to the per-point method of the same model --
float-identical, not approx -- and check that the kernel path raises no
:class:`DeprecationWarning`.  See ``docs/api.md`` ("Kernel protocol").
"""

import warnings

from repro.runner import compile_kernel
from repro.scpg.power_model import Mode
from repro.subvt.energy import SubvtModel


class TestPowerModelShims:
    def test_kernel_replacement_identical(self, mult_study):
        model = mult_study.model
        points = [(1e5, Mode.SCPG), (2e6, Mode.SCPG_MAX)]
        kernel = compile_kernel(model)
        assert kernel is not None and kernel.name == "scpg-power"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            new = kernel(points)
        assert [b.total for b in new] \
            == [model.power(f, mode).total for f, mode in points]


class TestSubvtShims:
    def test_kernel_replacement_identical(self, lib):
        model = SubvtModel(lib, 1e-12, 1e-6, 1e-8)
        kernel = compile_kernel(model)
        assert kernel is not None and kernel.name == "subvt-energy"
        vdds = [0.25, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            new = kernel(vdds)
        assert [p.energy for p in new] \
            == [model.point(v).energy for v in vdds]
