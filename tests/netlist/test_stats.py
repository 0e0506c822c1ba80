"""Gate-count / area / leakage roll-ups."""

from collections import Counter

import pytest

from repro.circuits import generators
from repro.netlist.core import Design
from repro.netlist.stats import _KIND_FIELD, module_stats


class TestModuleStats:
    def test_toy(self, toy_design):
        stats = module_stats(toy_design.top)
        assert stats.cells == 3
        assert stats.comb_gates == 2
        assert stats.seq_cells == 1
        assert stats.by_cell == {"NAND2_X1": 1, "DFF_X1": 1, "INV_X1": 1}
        assert stats.area > 0
        assert stats.leakage_nominal > 0

    def test_multiplier_matches_paper_scale(self, mult_module):
        stats = module_stats(mult_module)
        # Paper: 556 combinational gates, 64 operand/product registers.
        assert 400 <= stats.comb_gates <= 700
        assert stats.seq_cells == 64

    def test_m0_matches_paper_scale(self, m0_module):
        stats = module_stats(m0_module)
        # Paper: 6747 combinational gates.
        assert 4500 <= stats.comb_gates <= 8500
        assert stats.seq_cells > 500  # regfile alone is 512

    def test_hierarchy_rolls_up(self, toy_design, lib):
        from repro.netlist.transform import split_combinational

        flat_stats = module_stats(toy_design.top)
        split = split_combinational(toy_design)
        hier_stats = module_stats(split.top)
        assert hier_stats.by_cell == flat_stats.by_cell
        assert hier_stats.area == pytest.approx(flat_stats.area)

    def test_flat_stats_cached_per_generation(self, toy_design, lib):
        module = toy_design.top.__class__("cached")
        a = module.add_input("a")
        module.add_instance("u0", "INV_X1", {"A": a, "Y": module.add_net()},
                            library=lib)
        first = module_stats(module)
        assert module_stats(module) is first
        module.add_instance("u1", "INV_X1", {"A": a, "Y": module.add_net()},
                            library=lib)
        assert module_stats(module).cells == 2

    def test_submodule_edit_moves_parent_area(self, toy_design, lib):
        """Editing a submodule leaves the parent's generation alone; the
        parent's statistics still see the edit."""
        from repro.netlist.transform import split_combinational

        split = split_combinational(toy_design)
        before = module_stats(split.top)
        generation = split.top.generation
        inv = lib.cell("INV_X1")
        split.comb.add_instance("extra", inv,
                                {"A": split.comb.add_net()})
        assert split.top.generation == generation
        after = module_stats(split.top)
        assert after.cells == before.cells + 1
        assert after.area == pytest.approx(before.area + inv.area)

    def test_str(self, toy_design):
        text = str(module_stats(toy_design.top))
        assert "3 cells" in text


def _per_instance(module):
    """``(by_cell, by_kind)`` counted one instance at a time."""
    by_cell, by_kind = Counter(), Counter()
    for inst in module.instances():
        if not inst.is_cell:
            cells, kinds = _per_instance(inst.submodule)
            by_cell.update(cells)
            by_kind.update(kinds)
            continue
        by_cell[inst.cell.name] += 1
        by_kind[inst.cell.kind] += 1
    return by_cell, by_kind


def _same_counts(module):
    stats = module_stats(module)
    by_cell, by_kind = _per_instance(module)
    assert stats.by_cell == by_cell
    assert stats.cells == sum(by_cell.values())
    for kind, name in _KIND_FIELD.items():
        assert getattr(stats, name) == by_kind[kind], name


class TestKindCounts:
    """Kinds are counted once per distinct cell after the walk; the
    totals must match a count made instance by instance."""

    @pytest.mark.parametrize("name", generators.available_families())
    def test_every_family(self, lib, name):
        _same_counts(generators.elaborate(generators.family(name).key(),
                                          lib))

    def test_flat_scpg_m0lite(self, lib, m0_module):
        from repro.scpg.transform import _apply_scpg

        scpg = _apply_scpg(Design(m0_module.copy(), lib))
        assert module_stats(scpg.flat.top).header_cells > 0
        _same_counts(scpg.flat.top)
        _same_counts(scpg.design.top)     # the hierarchical roll-up
