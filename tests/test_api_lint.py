"""Repo-wide lint: the removed kernel-era, plugin-era and two-engine
names stay gone.

Each model's own batch method, passed to the runner as ``kernel=``,
replaced ``ScpgPowerModel.power_axis`` / ``power_points``,
``SubvtModel.points_axis`` and the ``batch_fn=`` keyword, and then the
kernel registry itself (``repro.runner.kernel``: ``Kernel``,
``CompiledKernel``, ``register_kernel``, ``kernel_for``,
``compile_kernel``, ``register_model_kernel`` and the four registered
``*Kernel`` classes); the technique plugin framework
(``repro.techniques``) replaced ``apply_scpg`` and ``run_scpg_flow``.  The levelized engine (``repro.sim.compiled``) is the
only gate-level simulator: the event engine lives on as the test oracle
in ``tests/sim/``, so ``repro.sim.event`` / ``repro.sim.testbench``,
``CompiledSchedule.bind_module`` and the ``engine=`` switch of
``GateLevelCpu`` / ``cosimulate`` / ``DesignHandle.cosim`` are gone.
Their deprecation shims are deleted, so no module may define, re-export
or call the old names again -- and the package must not expose them.
"""

import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Removed spelling -> regex that catches a use of it.  The leading
#: ``.`` / word boundary keeps ``_``-prefixed internals
#: (``_apply_scpg``) from matching.
DEPRECATED = {
    "ScpgPowerModel.power_axis": re.compile(r"\.power_axis\("),
    "ScpgPowerModel.power_points": re.compile(r"\.power_points\("),
    "SubvtModel.points_axis": re.compile(r"\.points_axis\("),
    "batch_fn= keyword": re.compile(r"\bbatch_fn\s*="),
    # The un-prefixed SCPG entry points: both a call and any import
    # (``from x import apply_scpg`` has no ``(`` to anchor on).
    "apply_scpg entry point": re.compile(
        r"(\bimport\s+[^\n]*\bapply_scpg\b|(?<!_)\bapply_scpg\s*\()"),
    "run_scpg_flow entry point": re.compile(
        r"(\bimport\s+[^\n]*\brun_scpg_flow\b|(?<!_)\brun_scpg_flow\s*\()"),
    "CompiledSchedule.bind_module": re.compile(r"\.bind_module\("),
    "repro.sim.event / repro.sim.testbench": re.compile(
        r"\brepro\.sim\.(?:event|testbench)\b"),
    # The batch-kernel registry: a model's batch method is the kernel.
    "repro.runner.kernel": re.compile(r"\brunner\.kernel\b"),
    "compile_kernel": re.compile(r"\bcompile_kernel\b"),
    "kernel_for": re.compile(r"\bkernel_for\b"),
    "register_kernel": re.compile(r"\bregister_kernel\b"),
    "register_model_kernel": re.compile(r"\bregister_model_kernel\b"),
    "CompiledKernel": re.compile(r"\bCompiledKernel\b"),
    "ScpgPowerKernel / SubvtKernel / TechniquePowerKernel / "
    "GateSimKernel": re.compile(
        r"\b(?:GateSim|TechniquePower|ScpgPower|Subvt)Kernel\b"),
}

#: Removed keywords, matched across the lines of a whole call: removed
#: spelling -> regex over a file's text.
DEPRECATED_CALLS = {
    "engine= of GateLevelCpu / cosimulate / .cosim": re.compile(
        r"(?:\bGateLevelCpu|\bcosimulate|\.cosim)\s*\("
        r"(?:[^()]|\([^()]*\))*?\bengine\s*="),
}

#: The only file allowed to spell the removed names: this lint.
ALLOWED = {
    "tests/test_api_lint.py",
}

SCAN_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")


def iter_sources():
    for top in SCAN_DIRS:
        root = REPO / top
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


class TestNoDeprecatedCallers:
    def test_scan_finds_the_sources(self):
        files = list(iter_sources())
        assert len(files) > 50  # the scan really walked the tree

    @pytest.mark.parametrize("name", sorted(DEPRECATED))
    def test_no_in_repo_use(self, name):
        pattern = DEPRECATED[name]
        offenders = []
        for path in iter_sources():
            rel = path.relative_to(REPO).as_posix()
            if rel in ALLOWED:
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append("{}:{}: {}".format(
                        rel, lineno, line.strip()))
        assert not offenders, (
            "{} was removed; use sweep / energy_sweep, pass a model's "
            "batch method as kernel=, or use the technique registry:"
            "\n{}".format(
                name, "\n".join(offenders)))

    @pytest.mark.parametrize("name", sorted(DEPRECATED_CALLS))
    def test_no_in_repo_call_with_removed_keyword(self, name):
        pattern = DEPRECATED_CALLS[name]
        offenders = []
        for path in iter_sources():
            rel = path.relative_to(REPO).as_posix()
            if rel in ALLOWED:
                continue
            text = path.read_text()
            for match in pattern.finditer(text):
                lineno = text.count("\n", 0, match.start()) + 1
                offenders.append("{}:{}: {}".format(
                    rel, lineno, match.group(0).splitlines()[0].strip()))
        assert not offenders, (
            "{} was removed; the compiled engine is the only one:\n{}"
            .format(name, "\n".join(offenders)))

    def test_allowlist_entries_exist(self):
        for rel in ALLOWED:
            assert (REPO / rel).is_file(), rel

    def test_the_package_no_longer_exposes_them(self):
        import importlib.util

        import repro
        import repro.flows
        import repro.runner
        import repro.scpg
        import repro.techniques
        from repro.runner import core
        from repro.scpg.power_model import ScpgPowerModel
        from repro.subvt.energy import SubvtModel

        for owner, name in ((ScpgPowerModel, "power_axis"),
                            (ScpgPowerModel, "power_points"),
                            (SubvtModel, "points_axis"),
                            (repro, "apply_scpg"),
                            (repro.scpg, "apply_scpg"),
                            (repro.flows, "run_scpg_flow")):
            assert not hasattr(owner, name), name
        for fn in (core.evaluate_grid, core.Runner.run):
            assert "batch_fn" not in inspect.signature(fn).parameters
        assert importlib.util.find_spec("repro.runner.kernel") is None
        for owner, names in ((repro.runner, (
                "Kernel", "CompiledKernel", "register_kernel", "kernel_for",
                "compile_kernel")), (repro.techniques, (
                "TechniquePowerKernel", "register_model_kernel"))):
            for name in names:
                assert not hasattr(owner, name), name

    def test_one_gate_level_simulator(self):
        import importlib.util

        import repro.sim
        from repro.isa.trace import GateLevelCpu, cosimulate
        from repro.session import DesignHandle
        from repro.sim.compiled import CompiledRun, CompiledSchedule

        for name in ("repro.sim.event", "repro.sim.testbench"):
            assert importlib.util.find_spec(name) is None, name
        for name in ("Simulator", "ClockedTestbench", "drive_bus",
                     "read_bus"):
            assert not hasattr(repro.sim, name), name
        for fn in (GateLevelCpu, cosimulate, DesignHandle.cosim):
            assert "engine" not in inspect.signature(fn).parameters
        for attr in ("bind_module", "_run_event", "module"):
            assert not hasattr(CompiledSchedule, attr), attr
        assert "engine" not in CompiledRun.__dataclass_fields__


#: The pre-database circuit constructors.  Product code goes through the
#: design database (``repro.circuits.registry`` / ``generators``) so
#: elaborations stay keyed, validated and memoised; only the circuits
#: package itself (the implementations and the family adapters) may call
#: the builders directly.  Tests are exempt -- unit-testing a builder is
#: legitimate.
LEGACY_BUILDERS = ("build_mult16", "build_m0lite", "build_counter",
                   "build_lfsr")
LEGACY_PATTERN = re.compile(
    r"(\bimport\s+[^\n]*\b(?:{0})\b|\b(?:{0})\s*\()".format(
        "|".join(LEGACY_BUILDERS)))
LEGACY_SCAN_DIRS = ("src", "benchmarks", "scripts")
LEGACY_ALLOWED_PREFIX = "src/repro/circuits/"


class TestBuildersOnlyInsideDatabase:
    def test_no_direct_builder_use(self):
        offenders = []
        for top in LEGACY_SCAN_DIRS:
            root = REPO / top
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*.py")):
                rel = path.relative_to(REPO).as_posix()
                if rel.startswith(LEGACY_ALLOWED_PREFIX):
                    continue
                for lineno, line in enumerate(
                        path.read_text().splitlines(), 1):
                    if LEGACY_PATTERN.search(line):
                        offenders.append("{}:{}: {}".format(
                            rel, lineno, line.strip()))
        assert not offenders, (
            "legacy circuit builders must be reached through the design "
            "database (registry.build / generators.elaborate):\n"
            + "\n".join(offenders))


class TestGeneratorsDocstrings:
    """Every public symbol of the database module documents itself."""

    def _public_symbols(self):
        import inspect

        import repro.circuits.generators as mod

        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield name, obj
            if inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    # Docstrings attach to callables and properties;
                    # plain class-level data attributes carry theirs in
                    # the class docstring.
                    if not (callable(member)
                            or isinstance(member, (property, classmethod,
                                                   staticmethod))):
                        continue
                    yield "{}.{}".format(name, attr), member

    def test_the_scan_sees_the_api(self):
        names = [name for name, _ in self._public_symbols()]
        for expected in ("DesignKey", "GeneratorFamily", "Param",
                         "register_family", "elaborate",
                         "expand_family"):
            assert expected in names

    def test_every_public_symbol_has_a_docstring(self):
        undocumented = []
        for name, obj in self._public_symbols():
            doc = getattr(obj, "__doc__", None)
            if isinstance(obj, property):
                doc = obj.fget.__doc__
            elif isinstance(obj, (classmethod, staticmethod)):
                doc = obj.__func__.__doc__
            if not (doc or "").strip():
                undocumented.append(name)
        assert not undocumented, (
            "public symbols of repro.circuits.generators without "
            "docstrings: {}".format(", ".join(undocumented)))
