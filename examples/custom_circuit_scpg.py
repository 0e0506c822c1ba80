"""Apply SCPG to your own circuit.

Shows the full user workflow on a custom design -- an 8-bit registered
multiply-accumulate unit built with the circuit builder:

1. construct a netlist with :class:`repro.circuits.CircuitBuilder`;
2. write/read it as structural Verilog (the flow's exchange format);
3. run the Fig. 5 SCPG flow (split, isolate, headers, CTS, reports);
4. evaluate power at a few operating points and dump the UPF.

Run:  python examples/custom_circuit_scpg.py
"""

import random

from repro import Design, Mode
from repro.circuits import CircuitBuilder, ripple_adder
from repro.circuits.builder import new_module
from repro.netlist.verilog import dumps_verilog, parse_verilog
from repro.power import dynamic_power, leakage_power
from repro.scpg import ScpgPowerModel
from repro.sim.compiled import bus_values, schedule_for
from repro.tech import build_scl90
from repro.techniques import technique
from repro.units import fmt_freq, fmt_power


def build_mac8(lib):
    """8x8 multiply-accumulate: acc <= acc + a*b (24-bit accumulator)."""
    module, b = new_module("mac8", lib)
    clk = module.add_input("clk")
    a = b.input_bus("a", 8)
    x = b.input_bus("b", 8)
    acc_out = b.output_bus("acc", 24)

    # Partial-product array (reuse the multiplier structure inline).
    from repro.circuits.alu import lower_half_multiplier

    a24 = a + [b.const(0)] * 16
    x24 = x + [b.const(0)] * 16
    product = lower_half_multiplier(b, a24, x24)

    total, _carry = ripple_adder(b, product, acc_out)
    b.register(total, clk, q=acc_out, name="acc")
    return module


def main():
    lib = build_scl90()

    # 1. Build and sanity-simulate the custom design.
    mac = build_mac8(lib)
    sim = schedule_for(mac).stepper("clk")
    sim.negedge()
    sim.force_flops(0)
    rng = random.Random(7)
    expected = 0
    for _ in range(20):
        a, b_ = rng.getrandbits(8), rng.getrandbits(8)
        sim.cycle({**bus_values("a", 8, a), **bus_values("b", 8, b_)})
        expected = (expected + a * b_) & 0xFFFFFF
    assert sim.output_bus("acc", 24).read() == expected
    print("mac8 functional check: PASS (acc = {})".format(expected))

    # 2. Verilog round-trip (what a real flow would hand off).
    text = dumps_verilog(mac)
    print("\nstructural verilog: {} lines".format(len(text.splitlines())))
    reparsed = parse_verilog(text, lib)

    # 3. The SCPG implementation flow, baseline included (the flow leaves
    #    its input design unedited).
    result = technique("scpg").implement(reparsed, lib)
    print("\nSCPG flow on mac8:")
    print("  area overhead: {:.1f}%".format(result.area_overhead_pct))
    print("  headers      : {} x X{}".format(
        result.scpg.headers.count,
        result.scpg.headers.cell.drive_strength))
    print("  isolation    : {} cells".format(
        len(result.scpg.iso_instances)))

    # 4. Power at a few operating points.
    toggles = sim.toggle_snapshot()
    dyn = dynamic_power(mac, lib, toggles, sim.cycles)
    model = ScpgPowerModel.from_scpg_design(result.scpg,
                                            dyn.energy_per_cycle)
    base = leakage_power(reparsed.top, lib)
    model.leak_comb_base = base.combinational
    model.leak_alwayson_base = base.always_on
    print("\n{:>10} {:>12} {:>12} {:>12}".format(
        "freq", "No-PG", "SCPG", "SCPG-Max"))
    for freq in (10e3, 1e6, 10e6):
        row = model.table_row(freq)
        print("{:>10} {:>12} {:>12} {:>12}".format(
            fmt_freq(freq),
            fmt_power(row[Mode.NO_PG].total) if row[Mode.NO_PG] else "-",
            fmt_power(row[Mode.SCPG].total) if row[Mode.SCPG] else "-",
            fmt_power(row[Mode.SCPG_MAX].total)
            if row[Mode.SCPG_MAX] else "-"))

    # 5. Power intent out.
    print("\nUPF written to mac8.upf")
    with open("mac8.upf", "w") as f:
        f.write(result.scpg.upf)


if __name__ == "__main__":
    main()
