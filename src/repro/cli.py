"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main entry points so the flow is usable without
writing Python:

===============  ============================================================
``info``         library summary (cells, device corners, key parameters)
``liberty``      dump the scl90 library as Liberty-lite text
``netlist``      generate a built-in design as structural Verilog
``scpg``         apply sub-clock power gating; emit Verilog/UPF/report
``sta``          timing report (with the SCPG duty/frequency window)
``power``        power report at an operating point
``table``        regenerate Table I or Table II
``compare``      compare power-gating techniques (scpg/cbtstc/lector)
``designs``      browse the design database; elaborate or sweep a family
``serve``        HTTP job API: sweeps as a service over a shared store
``subvt``        sub-threshold sweep and minimum-energy point
``report``       replay a run journal/trace into a timing + anomaly report
===============  ============================================================

Designs are referenced by a registered name (``mult16``, ``m0lite``,
``counter16``, ``lfsr16``), a design-database spec such as
``"multiplier(n=8)"`` (see ``repro designs list`` and
``repro.circuits.generators``), or the path of a structural-Verilog file
produced by this tool (or any tool emitting the supported subset).

Every command runs through one :class:`repro.Session`, so the global
options compose with all of them: ``--workers N`` fans sweeps over one
warm pool of worker processes, ``--cache PATH`` reuses the
content-addressed result store in the SQLite file PATH
(``--no-cache`` disables it, default honours ``REPRO_CACHE_DIR``; the
same file keeps each design's compiled artifact bundle), ``--stats``
prints the runner's counters and stage timings to stderr,
``--stats-json PATH`` writes the same counters as JSON,
``--journal PATH`` appends a JSONL event log of every grid point the
command evaluated, ``--trace PATH`` appends nested trace spans
(grid/stage/point/attempt) as JSONL, and ``--metrics PATH`` writes a
Prometheus text exposition of the run's metrics on exit -- stdout stays
byte-identical to the serial, uncached, untraced output.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ReproError
from .units import fmt_energy, fmt_freq, fmt_power, parse_si


def _session(args):
    """The command's :class:`~repro.session.Session` (one per invocation)."""
    if getattr(args, "_session_obj", None) is None:
        from .session import Session

        args._session_obj = Session(
            liberty=getattr(args, "liberty", None) or None,
            workers=getattr(args, "workers", None),
            store=_store_spec(args),
            journal=getattr(args, "journal", None) or None,
            trace=getattr(args, "trace", None) or None,
            metrics=bool(getattr(args, "metrics", None)))
    return args._session_obj


def _store_spec(args, store=None):
    """``Session(store=)`` for the global flags: an explicit ``store``
    (``serve --store``) wins, then ``--no-cache``, then ``--cache PATH``,
    else ``"auto"`` (``REPRO_CACHE_DIR``)."""
    if store:
        return store
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache", None) or "auto"


def _load_library(args):
    return _session(args).library


def _resolve_design(name, library):
    """Deprecated shim: use :func:`repro.circuits.registry.resolve`."""
    from .circuits import registry

    return registry.resolve(name, library)


def _out(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
        print("wrote {}".format(args.out))
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------

def cmd_info(args):
    from .tech.library import CellKind

    lib = _load_library(args)
    print("library {} (vdd_nom {} V, {} cells)".format(
        lib.name, lib.vdd_nom, len(lib)))
    for kind in CellKind:
        cells = lib.cells_of_kind(kind)
        if cells:
            print("  {:<12} {}".format(
                kind.value, ", ".join(c.name for c in cells)))
    for flavour, dev in lib.devices.items():
        print("  device {:<5} vth={:.2f} V  n={:.2f}  dibl={:.2f}".format(
            flavour, dev.vth, dev.n, dev.dibl))
    print("  designs      {}".format(
        ", ".join(_session(args).designs())))
    return 0


def cmd_liberty(args):
    from .tech.liberty import dumps_liberty

    _out(args, dumps_liberty(_load_library(args)))
    return 0


def cmd_netlist(args):
    _out(args, _session(args).design(args.design).netlist())
    return 0


def cmd_scpg(args):
    from .netlist.verilog import dumps_verilog

    handle = _session(args).design(args.design)
    scpg = handle.scpg(clock_port=args.clock,
                       header_size=args.header_size)
    print("SCPG applied to {}:".format(handle.design.top.name))
    print("  isolation cells : {}".format(len(scpg.iso_instances)))
    print("  headers         : {} x HEADER_X{}".format(
        scpg.headers.count, scpg.headers.cell.drive_strength))
    print("  area overhead   : {:.2f}%".format(scpg.area_overhead_pct))
    print("  T_PGStart       : {:.3g} s".format(scpg.timing.t_pgstart))
    if args.verilog:
        with open(args.verilog, "w") as f:
            f.write(dumps_verilog(scpg.design))
        print("wrote {}".format(args.verilog))
    if args.upf:
        with open(args.upf, "w") as f:
            f.write(scpg.upf)
        print("wrote {}".format(args.upf))
    return 0


def cmd_sta(args):
    from .sta.report import render_timing_report

    handle = _session(args).design(args.design)
    result = handle.sta(vdd=args.vdd)
    _out(args, render_timing_report(result,
                                    design=handle.design.top.name,
                                    clock=args.clock))
    return 0


def cmd_power(args):
    handle = _session(args).design(args.design)
    report = handle.power_report(parse_si(args.freq, "Hz"),
                                 vdd=args.vdd)
    _out(args, report.render())
    return 0


def cmd_table(args):
    from .analysis.tables import (
        TABLE_I_FREQS,
        TABLE_II_FREQS,
        build_table,
        format_table,
    )

    session = _session(args)
    if args.which == 1:
        from .paper import multiplier_study

        study = multiplier_study(fast=args.fast)
        rows = build_table(study.model, TABLE_I_FREQS,
                           runner=session.runner)
        title = "TABLE I (16-bit multiplier)"
    else:
        from .paper import cortex_m0_study

        study = cortex_m0_study(fast=args.fast)
        rows = build_table(study.model, TABLE_II_FREQS,
                           runner=session.runner)
        title = "TABLE II (Cortex-M0 / M0-lite)"
    _out(args, format_table(rows, title) + "\n")
    return 0


def cmd_compare(args):
    import json

    from .techniques import available_techniques, format_comparison

    session = _session(args)
    techniques = [t.strip() for t in args.techniques.split(",")
                  if t.strip()] if args.techniques else None
    freqs = [parse_si(f, "Hz") for f in args.freqs.split(",")] \
        if args.freqs else None
    comparison = session.compare_techniques(
        args.design, freqs=freqs, techniques=techniques, vdd=args.vdd)
    text = format_comparison(comparison) + "\n"
    if args.json:
        with open(args.json, "w") as f:
            json.dump(comparison.as_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        text += "wrote {}\n".format(args.json)
    _out(args, text)
    if args.list_techniques:
        print("registered: {}".format(", ".join(available_techniques())))
    return 0


def _axis_values(spec, text):
    """Parse a ``--param name=v1,v2`` value list using the declared type."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if spec.type is bool:
            values.append(chunk.lower() in ("1", "true", "yes"))
        elif spec.type is float:
            values.append(float(chunk))
        elif spec.type is int:
            values.append(int(chunk))
        else:
            values.append(chunk)
    return values


def cmd_designs(args):
    import json

    from .circuits import generators
    from .netlist.stats import module_stats

    session = _session(args)

    if args.action != "list" and not args.target:
        raise ReproError(
            "designs {} needs a target (family or design)".format(
                args.action))

    if args.action == "list":
        print("generator families:")
        for name in session.families():
            fam = generators.family(name)
            params = ", ".join(
                "{}={!r}".format(p.name, p.default) if p.default is not None
                else p.name for p in fam.params)
            print("  {:<12} {}".format(name, params or "(no parameters)"))
        print("registered designs: {}".format(
            ", ".join(session.designs())))
        return 0

    if args.action == "show":
        fam = generators.family(args.target)
        print("family {} (defined at {})".format(fam.name, fam.site))
        if fam.doc:
            print("  {}".format(fam.doc.splitlines()[0]))
        if fam.paper:
            print("  paper: {}".format(fam.paper))
        if fam.params:
            print("  {:<12} {:<7} {:<18} {}".format(
                "param", "type", "range", "default"))
            for p in fam.params:
                print("  {:<12} {:<7} {:<18} {}".format(
                    p.name, p.type.__name__, p.range_text(),
                    "-" if p.default is None else repr(p.default)))
        for key in fam.catalog_keys():
            stats = module_stats(generators.elaborate(key,
                                                      session.library))
            print("  {:<36} {} cells ({} comb, {} seq), {} nets".format(
                str(key), stats.cells, stats.comb_gates, stats.seq_cells,
                stats.nets))
        return 0

    if args.action == "elaborate":
        handle = session.design(args.target)
        stats = module_stats(handle.design.top)
        print("design    {}".format(handle.name))
        print("module    {}".format(handle.design.top.name))
        print("cells     {} ({} combinational, {} sequential)".format(
            stats.cells, stats.comb_gates, stats.seq_cells))
        print("nets      {}".format(stats.nets))
        print("area      {:.1f} um^2".format(stats.area))
        print("leakage   {}".format(fmt_power(stats.leakage_nominal)))
        if args.out:
            with open(args.out, "w") as f:
                f.write(handle.netlist())
            print("wrote {}".format(args.out))
        return 0

    # sweep: expand the family over --param axes, Table-style per design.
    fam = generators.family(args.target)
    axes = {}
    for spec_text in args.param or []:
        name, sep, values = spec_text.partition("=")
        if not sep:
            raise ReproError(
                "--param expects NAME=V1,V2,... (got {!r})".format(
                    spec_text))
        axes[name.strip()] = _axis_values(fam.spec(name.strip()), values)
    freqs = [parse_si(f, "Hz") for f in args.freqs.split(",")] \
        if args.freqs else [1e4, 1e5, 1e6, 5e6]
    handles = session.expand_family(args.target, **axes)
    results = []
    lines = ["{:<40} {:>10} {:>10} {:>10} {:>8}".format(
        "design", "freq", "no-pg", "scpg", "saving")]
    for handle in handles:
        rows = handle.table(freqs)
        for row in rows:
            lines.append(
                "{:<40} {:>10} {:>10} {:>10} {:>7.1f}%".format(
                    handle.name, fmt_freq(row.freq_hz),
                    fmt_power(row.power_nopg),
                    fmt_power(row.power_scpg) if row.power_scpg is not None
                    else "-",
                    row.saving_scpg_pct
                    if row.saving_scpg_pct is not None else float("nan")))
        results.append({
            "design": handle.name,
            "rows": [
                {"freq_hz": r.freq_hz, "power_nopg": r.power_nopg,
                 "power_scpg": r.power_scpg,
                 "saving_scpg_pct": r.saving_scpg_pct}
                for r in rows
            ],
        })
    _out(args, "\n".join(lines) + "\n")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote {}".format(args.json))
    return 0


def cmd_report(args):
    from .obs.report import render_report

    _out(args, render_report(args.journal_file,
                             straggler_k=args.straggler_k))
    return 0


def cmd_serve(args):
    from .serve import SweepService, serve_forever
    from .session import Session

    session = Session(
        liberty=getattr(args, "liberty", None) or None,
        workers=args.workers, store=_store_spec(args, args.store),
        metrics=True)
    args._session_obj = session
    service = SweepService(session=session, spool=args.spool)
    try:
        serve_forever(service, host=args.host, port=args.port)
    finally:
        service.close()
    return 0


def cmd_subvt(args):
    from .subvt.energy import energy_sweep, minimum_energy_point

    session = _session(args)
    model = session.design(args.design).subvt_model()
    print("{:>8} {:>12} {:>12} {:>12}".format(
        "VDD", "Fmax", "E/op", "power"))
    for point in energy_sweep(model, steps=16, runner=session.runner):
        print("{:>6.2f}V {:>12} {:>12} {:>12}".format(
            point.vdd, fmt_freq(point.fmax_hz), fmt_energy(point.energy),
            fmt_power(point.power)))
    mep = minimum_energy_point(model, runner=session.runner)
    print("\nminimum-energy point: {:.0f} mV, {} per op, Fmax {}".format(
        mep.vdd * 1e3, fmt_energy(mep.energy), fmt_freq(mep.fmax_hz)))
    return 0


# -- argument parsing -----------------------------------------------------------

def build_parser():
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sub-clock power gating (DATE 2011) reproduction "
                    "toolkit",
    )
    parser.add_argument("--liberty", help="use a Liberty-lite library "
                        "file instead of the built-in scl90")
    parser.add_argument("--workers", type=int, help="worker processes "
                        "for sweeps (0 = one per core; default serial)")
    parser.add_argument("--cache", metavar="PATH",
                        help="result-store SQLite file (default: "
                        "results.sqlite in $REPRO_CACHE_DIR when set)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result store")
    parser.add_argument("--stats", action="store_true",
                        help="print runner counters and stage timings "
                        "to stderr")
    parser.add_argument("--journal", metavar="PATH",
                        help="append a JSONL run journal (point "
                        "started/finished/retried, crashes, timings) "
                        "to PATH")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write the runner's counters and stage "
                        "timings to PATH as JSON on exit")
    parser.add_argument("--trace", metavar="PATH",
                        help="append JSONL trace spans (grid/stage/"
                        "point/attempt, with parent ids and monotonic "
                        "timings) to PATH")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write a Prometheus text exposition of the "
                        "run's counters/gauges/histograms to PATH on "
                        "exit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library summary").set_defaults(
        func=cmd_info)

    p = sub.add_parser("liberty", help="dump the library as Liberty-lite")
    p.add_argument("--out")
    p.set_defaults(func=cmd_liberty)

    p = sub.add_parser("netlist", help="emit a design as Verilog")
    p.add_argument("design")
    p.add_argument("--out")
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser("scpg", help="apply sub-clock power gating")
    p.add_argument("design")
    p.add_argument("--clock", default="clk")
    p.add_argument("--header-size", type=int, choices=(1, 2, 4, 8))
    p.add_argument("--verilog", help="write the transformed netlist here")
    p.add_argument("--upf", help="write the power intent here")
    p.set_defaults(func=cmd_scpg)

    p = sub.add_parser("sta", help="timing report")
    p.add_argument("design")
    p.add_argument("--clock", default="clk")
    p.add_argument("--vdd", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sta)

    p = sub.add_parser("power", help="power report")
    p.add_argument("design")
    p.add_argument("--freq", default="1MHz")
    p.add_argument("--vdd", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("table", help="regenerate Table I or II")
    p.add_argument("which", type=int, choices=(1, 2))
    p.add_argument("--fast", action="store_true",
                   help="trimmed workloads")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="compare power-gating techniques "
                       "on one design")
    p.add_argument("design")
    p.add_argument("--techniques", metavar="A,B,...",
                   help="comma-separated registry names (default: all "
                   "registered techniques)")
    p.add_argument("--freqs", metavar="F1,F2,...",
                   help="comma-separated frequency grid, SI suffixes "
                   "allowed (default: 10kHz,100kHz,1MHz,5MHz)")
    p.add_argument("--vdd", type=float,
                   help="operating supply (default: library nominal)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the comparison as JSON to PATH")
    p.add_argument("--list-techniques", action="store_true",
                   help="print the registered technique names")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("designs", help="browse the design database; "
                       "elaborate or sweep a generator family")
    p.add_argument("action", choices=("list", "show", "elaborate",
                                      "sweep"),
                   help="'list' families and registered designs, 'show' "
                   "one family's parameter space and catalog, "
                   "'elaborate' one design (stats, optional Verilog), "
                   "'sweep' a family's parameter grid")
    p.add_argument("target", nargs="?",
                   help="family name (show/sweep) or design name / "
                   "spec such as \"multiplier(n=8)\" (elaborate)")
    p.add_argument("--param", action="append", metavar="NAME=V1,V2,...",
                   help="sweep axis (repeatable); e.g. --param "
                   "n=4,8,16,32")
    p.add_argument("--freqs", metavar="F1,F2,...",
                   help="frequency grid for 'sweep', SI suffixes "
                   "allowed (default: 10kHz,100kHz,1MHz,5MHz)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the sweep results as JSON to PATH")
    p.add_argument("--out")
    p.set_defaults(func=cmd_designs)

    p = sub.add_parser("serve", help="run the sweep job service: an "
                       "HTTP API accepting sweep/compare/family-sweep "
                       "jobs over one warm session")
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (default 8080; 0 picks a free one)")
    p.add_argument("--store", metavar="PATH",
                   help="SQLite result store shared by every job (and "
                   "any other process pointed at the same file); "
                   "default: the --cache store")
    p.add_argument("--spool", metavar="DIR",
                   help="directory for per-job JSONL journals "
                   "(default: a temp directory)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("subvt", help="sub-threshold sweep")
    p.add_argument("design")
    p.set_defaults(func=cmd_subvt)

    p = sub.add_parser("report", help="replay a run journal/trace into "
                       "per-stage timings, hit ratios and anomaly flags")
    p.add_argument("journal_file", help="JSONL journal (--journal) or "
                   "trace (--trace) file to replay")
    p.add_argument("--straggler-k", type=float, default=3.0,
                   help="flag points slower than K x the grid's p95 "
                   "(default 3.0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    finally:
        session = getattr(args, "_session_obj", None)
        if session is not None:
            if args.stats:
                print(session.stats.render(), file=sys.stderr)
            if getattr(args, "stats_json", None):
                import json

                with open(args.stats_json, "w") as f:
                    json.dump(session.stats.to_dict(), f, indent=2,
                              sort_keys=True)
                    f.write("\n")
            if getattr(args, "metrics", None):
                with open(args.metrics, "w") as f:
                    f.write(session.metrics().render())
            session.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
