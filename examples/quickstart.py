"""Quickstart: apply sub-clock power gating to the paper's multiplier.

Opens a :class:`repro.Session`, pulls the 16-bit multiplier from the
design registry, applies the SCPG transform, and prints the headline
result -- the Table I power comparison and what SCPG buys at a glance.
The lower-level APIs appear where they add something: a measured
(simulated) switching energy replacing the vectorless estimate.

Run:  python examples/quickstart.py

Tips: ``Session(workers=4)`` fans sweeps over processes, and setting
``REPRO_CACHE_DIR=~/.cache/repro`` makes repeated runs warm-start from
the on-disk result cache.
"""

from repro import Mode, ScpgPowerModel, Session
from repro.power import dynamic_power, leakage_power
from repro.sim.compiled import bus_values, schedule_for
from repro.units import fmt_energy, fmt_freq, fmt_power


def main():
    # 1. A session: the library plus an execution policy (workers/cache).
    session = Session()
    print("library:", session.library)
    print("designs:", ", ".join(session.designs()))

    # 2. The paper's multiplier, by registry name.
    handle = session.design("mult16")
    print("design :", handle.design.top)

    # 3. Apply sub-clock power gating (split, isolate, headers, UPF).
    scpg = handle.scpg()
    print("\nSCPG transform:")
    print("  gated module      :", scpg.comb_module.name)
    print("  isolation cells   :", len(scpg.iso_instances))
    print("  sleep headers     : {} x HEADER_X{}".format(
        scpg.headers.count, scpg.headers.cell.drive_strength))
    print("  area overhead     : {:.1f}% (paper: 3.9%)".format(
        scpg.area_overhead_pct))

    # 4. Measure switching energy with the gate-level simulator (the
    #    handle's default power model uses a vectorless estimate; a
    #    simulated workload is the paper's methodology).
    import random

    from repro.circuits import build_mult16

    lib = session.library
    mult = build_mult16(lib)
    rng = random.Random(0)
    run = schedule_for(mult).run_vectors(
        [{**bus_values("a", 16, rng.getrandbits(16)),
          **bus_values("b", 16, rng.getrandbits(16))} for _ in range(200)])
    dyn = dynamic_power(mult, lib, run.toggle_snapshot(), run.cycles)
    print("\nmeasured switching energy:", fmt_energy(dyn.energy_per_cycle),
          "per cycle")

    # 5. The power model: No-PG vs SCPG vs SCPG-Max.
    model = ScpgPowerModel.from_scpg_design(scpg, dyn.energy_per_cycle)
    base = leakage_power(handle.design.top, lib)
    model.leak_comb_base = base.combinational
    model.leak_alwayson_base = base.always_on

    print("\n{:>10} {:>14} {:>14} {:>14}".format(
        "freq", "No-PG", "SCPG", "SCPG-Max"))
    data = handle.sweep([10e3, 100e3, 1e6, 5e6, 10e6], model=model)
    for i, freq in enumerate(data.freqs):
        def cell(mode):
            b = data.results[mode][i]
            return fmt_power(b.total) if b else "-"

        print("{:>10} {:>14} {:>14} {:>14}".format(
            fmt_freq(freq), cell(Mode.NO_PG), cell(Mode.SCPG),
            cell(Mode.SCPG_MAX)))

    at_10k = model.table_row(10e3)
    saving = at_10k[Mode.SCPG_MAX].saving_vs(at_10k[Mode.NO_PG])
    print("\nAt 10 kHz, SCPG-Max saves {:.1f}% of total power "
          "(paper: 80.2%).".format(saving))

    # 6. The Fig. 4 timing diagram at a concrete operating point.
    from repro.scpg.waveform import render_waveforms
    from repro.sta.constraints import ClockSpec

    print("\nIntra-cycle timing at 1 MHz, duty 0.9 (Fig. 4):")
    print(render_waveforms(ClockSpec(1e6, 0.9), scpg.timing,
                           rail=scpg.rail))

    # 7. The power intent, as a real flow would consume it.
    print("Generated UPF (excerpt):")
    for line in scpg.upf.splitlines()[:12]:
        print("  " + line)

    # 8. What the runner did on the session's behalf.
    print("\n" + session.stats.render(prefix="session"))


if __name__ == "__main__":
    main()