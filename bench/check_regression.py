#!/usr/bin/env python3
"""Benchmark gates for bench/run_benches.sh (stdlib only).

Subcommands:

  compare BASELINE.json CANDIDATE.json [--threshold 0.10]
      Compares google-benchmark JSON outputs by run_name. Fails (exit 1) if any benchmark's
      candidate real_time exceeds the baseline by more than the threshold. Aggregate entries
      are preferred (median, then mean); raw iteration entries are averaged. Benchmarks
      present in only one file are reported but never fail the gate, so adding or retiring a
      benchmark does not break CI.

  storm-gate STORM.json
      Checks the fault-around acceptance criterion on bench_fault_storm output: the adaptive
      sweep point (FaultStormRedis/0) must cut fault_Mcycles by at least STORM_IMPROVEMENT
      (10%) relative to the window=1 point (FaultStormRedis/1). The counter is simulator
      virtual cycles, so this gate is deterministic and safe to run on any host.

  overload-gate OVERLOAD.json [--baseline BENCH_overload.json] [--threshold 0.10]
              [--allow-crashes]
      Checks the overload-survival acceptance criteria on bench_overload output, per system
      row with admission armed (rows named *_NoAdmission are the ablation and never gated):
        1. crashed == 0 at both rate points (no uncontained ENOMEM deaths; waived by
           --allow-crashes for chaos-armed soaks, where injected faults do kill children),
        2. goodput at 2x (arg 20) >= OVERLOAD_MIN_RATIO (0.8) * goodput at 1x (arg 10):
           admission control sheds load instead of collapsing,
        3. if a baseline file is given, each row's goodput >= baseline - threshold.
      Counters are simulator virtual time, so 1 and 2 are deterministic per seed.

  frag-gate FRAG.json
      Checks the incremental-compaction acceptance criteria (DESIGN.md §4.13) on
      bench_fragmentation output, comparing the FragmentationCompactionIncremental row
      against the stop-the-world FragmentationCompaction row at checkerboard size FRAG_ARG
      (32):
        1. recovered contiguity (largest_free_after - largest_free_before) must reach at
           least FRAG_MIN_RECOVERY (0.9) times the stop-the-world pass's recovery,
        2. the longest mutator-excluding pause (pause_cycles_max, one budgeted quantum)
           must stay at or below FRAG_MAX_PAUSE_RATIO (0.1) times the stop-the-world pause.
      All counters are simulator virtual time / simulator bytes — deterministic on any host.

  footprint-gate HOST.json
      Checks the demand-paging acceptance criterion (DESIGN.md §4.12) on bench_host_throughput
      output: the demand row (HttpdFleetFootprint/1) of the 256-worker httpd fleet must hold
      at most FOOTPRINT_MAX_RATIO (0.5) times the eager row's (HttpdFleetFootprint/0)
      resident_frames. The counter is a simulator frame count sampled at the fleet's plateau —
      deterministic on any host.
"""

import argparse
import json
import sys

STORM_BENCHMARK = "FaultStormRedis"
STORM_COUNTER = "fault_Mcycles"
STORM_BASELINE_ARG = "1"
STORM_CANDIDATE_ARG = "0"
STORM_IMPROVEMENT = 0.10

OVERLOAD_MIN_RATIO = 0.8

FRAG_ARG = "32"
FRAG_MIN_RECOVERY = 0.9
FRAG_MAX_PAUSE_RATIO = 0.1

FOOTPRINT_BENCHMARK = "HttpdFleetFootprint"
FOOTPRINT_COUNTER = "resident_frames"
FOOTPRINT_EAGER_ARG = "0"
FOOTPRINT_DEMAND_ARG = "1"
FOOTPRINT_MAX_RATIO = 0.5


def load_benchmarks(path):
    with open(path) as f:
        return json.load(f).get("benchmarks", [])


def representative_times(entries):
    """Maps run_name -> representative real_time (aggregate median > mean > raw average)."""
    by_run = {}
    for entry in entries:
        run_name = entry.get("run_name", entry.get("name", ""))
        by_run.setdefault(run_name, []).append(entry)
    times = {}
    for run_name, group in by_run.items():
        aggregates = {e.get("aggregate_name"): e for e in group if e.get("run_type") == "aggregate"}
        if "median" in aggregates:
            times[run_name] = float(aggregates["median"]["real_time"])
        elif "mean" in aggregates:
            times[run_name] = float(aggregates["mean"]["real_time"])
        else:
            raw = [float(e["real_time"]) for e in group if e.get("run_type", "iteration") == "iteration"]
            if raw:
                times[run_name] = sum(raw) / len(raw)
    return times


def cmd_compare(args):
    base = representative_times(load_benchmarks(args.baseline))
    cand = representative_times(load_benchmarks(args.candidate))
    failures = []
    for run_name in sorted(base):
        if run_name not in cand:
            print(f"  (skip) {run_name}: not in candidate")
            continue
        ratio = cand[run_name] / base[run_name] if base[run_name] > 0 else 1.0
        marker = "OK"
        if ratio > 1.0 + args.threshold:
            marker = "REGRESSED"
            failures.append(run_name)
        print(f"  [{marker}] {run_name}: {base[run_name]:.3f} -> {cand[run_name]:.3f} "
              f"({(ratio - 1.0) * 100.0:+.1f}%)")
    for run_name in sorted(set(cand) - set(base)):
        print(f"  (new) {run_name}: no baseline")
    if failures:
        print(f"FAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold * 100.0:.0f}% vs {args.baseline}")
        return 1
    print(f"host-throughput gate OK ({len(base)} baseline benchmarks, "
          f"threshold {args.threshold * 100.0:.0f}%)")
    return 0


def find_counter(entries, prefix, counter):
    for entry in entries:
        if entry.get("run_type") == "aggregate":
            continue
        if entry.get("run_name", entry.get("name", "")).startswith(prefix):
            if counter not in entry:
                break
            return float(entry[counter])
    raise SystemExit(f"error: no iteration entry matching '{prefix}' with counter '{counter}'")


def cmd_storm_gate(args):
    entries = load_benchmarks(args.storm)
    base = find_counter(entries, f"{STORM_BENCHMARK}/{STORM_BASELINE_ARG}/", STORM_COUNTER)
    cand = find_counter(entries, f"{STORM_BENCHMARK}/{STORM_CANDIDATE_ARG}/", STORM_COUNTER)
    improvement = (base - cand) / base if base > 0 else 0.0
    print(f"  {STORM_BENCHMARK} {STORM_COUNTER}: window=1 {base:.4f} -> adaptive {cand:.4f} "
          f"({improvement * 100.0:+.1f}% improvement)")
    if improvement < STORM_IMPROVEMENT:
        print(f"FAIL: adaptive fault-around must improve {STORM_COUNTER} by at least "
              f"{STORM_IMPROVEMENT * 100.0:.0f}% over window=1")
        return 1
    print("fault-storm gate OK")
    return 0


def overload_rows(entries):
    """Maps (capture_name, rate_arg) -> iteration entry for OverloadFleet rows."""
    rows = {}
    for entry in entries:
        if entry.get("run_type") == "aggregate":
            continue
        run_name = entry.get("run_name", entry.get("name", ""))
        parts = run_name.split("/")
        if len(parts) < 3 or parts[0] != "OverloadFleet":
            continue
        rows[(parts[1], parts[2])] = entry
    return rows


def cmd_overload_gate(args):
    rows = overload_rows(load_benchmarks(args.overload))
    baseline = overload_rows(load_benchmarks(args.baseline)) if args.baseline else {}
    # _NoAdmission rows are the ablation and never gate.
    systems = sorted({name for (name, _) in rows if not name.endswith("_NoAdmission")})
    if not systems:
        raise SystemExit("error: no gated OverloadFleet rows found")
    failures = []
    for system in systems:
        low = rows.get((system, "10"))
        high = rows.get((system, "20"))
        if low is None or high is None:
            failures.append(f"{system}: missing a rate point (need args 10 and 20)")
            continue
        crashed = float(low.get("crashed", 0)) + float(high.get("crashed", 0))
        if crashed > 0 and not args.allow_crashes:
            failures.append(f"{system}: {crashed:.0f} uncontained child death(s) under overload")
        goodput_1x = float(low["goodput_rps"])
        goodput_2x = float(high["goodput_rps"])
        ratio = goodput_2x / goodput_1x if goodput_1x > 0 else 0.0
        marker = "OK" if ratio >= OVERLOAD_MIN_RATIO else "FAIL"
        if ratio < OVERLOAD_MIN_RATIO:
            failures.append(f"{system}: goodput at 2x is {ratio:.2f}x of saturation "
                            f"(need >= {OVERLOAD_MIN_RATIO:.2f}x)")
        print(f"  [{marker}] {system}: goodput 1x {goodput_1x:.0f} rps, 2x {goodput_2x:.0f} rps "
              f"({ratio:.2f}x), crashed {crashed:.0f}")
        for arg in ("10", "20"):
            base = baseline.get((system, arg))
            if base is None:
                continue
            base_goodput = float(base["goodput_rps"])
            cand_goodput = float(rows[(system, arg)]["goodput_rps"])
            if base_goodput > 0 and cand_goodput < base_goodput * (1.0 - args.threshold):
                failures.append(f"{system}/{arg}: goodput {cand_goodput:.0f} rps regressed more "
                                f"than {args.threshold * 100.0:.0f}% vs baseline "
                                f"{base_goodput:.0f} rps")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"overload gate OK ({len(systems)} system(s))")
    return 0


def find_arg_row(entries, benchmark, arg, counter):
    """Representative counter value for the `<benchmark>/<arg>` row (exact-arg match, so
    arg 1 never swallows arg 16; aggregates preferred: median, then mean)."""
    name = f"{benchmark}/{arg}"
    groups = {}
    for entry in entries:
        run_name = entry.get("run_name", entry.get("name", ""))
        if (run_name == name or run_name.startswith(name + "/")) and counter in entry:
            groups.setdefault(entry.get("aggregate_name", "iteration"), []).append(
                float(entry[counter]))
    for kind in ("median", "mean", "iteration"):
        if kind in groups:
            return sum(groups[kind]) / len(groups[kind])
    raise SystemExit(f"error: no entry matching '{name}' with counter '{counter}'")


def cmd_footprint_gate(args):
    entries = load_benchmarks(args.host)
    eager = find_arg_row(entries, FOOTPRINT_BENCHMARK, FOOTPRINT_EAGER_ARG, FOOTPRINT_COUNTER)
    demand = find_arg_row(entries, FOOTPRINT_BENCHMARK, FOOTPRINT_DEMAND_ARG, FOOTPRINT_COUNTER)
    ratio = demand / eager if eager > 0 else 1.0
    print(f"  {FOOTPRINT_BENCHMARK} {FOOTPRINT_COUNTER}: eager {eager:.0f}, demand {demand:.0f} "
          f"({ratio:.2f}x)")
    if ratio > FOOTPRINT_MAX_RATIO:
        print(f"FAIL: the demand-paging fleet must hold <= {FOOTPRINT_MAX_RATIO:.2f}x the eager "
              f"fleet's {FOOTPRINT_COUNTER}")
        return 1
    print(f"footprint gate OK (demand/eager = {ratio:.2f}, limit {FOOTPRINT_MAX_RATIO:.2f})")
    return 0


def cmd_frag_gate(args):
    entries = load_benchmarks(args.frag)
    stw = "FragmentationCompaction"
    inc = "FragmentationCompactionIncremental"
    rows = {}
    for name in (stw, inc):
        rows[name] = {counter: find_arg_row(entries, name, FRAG_ARG, counter)
                      for counter in ("largest_free_before", "largest_free_after",
                                      "pause_cycles_max")}
    stw_recovered = rows[stw]["largest_free_after"] - rows[stw]["largest_free_before"]
    inc_recovered = rows[inc]["largest_free_after"] - rows[inc]["largest_free_before"]
    failures = []
    if stw_recovered <= 0:
        failures.append("stop-the-world pass recovered no contiguity; the checkerboard "
                        "workload is broken")
    recovery = inc_recovered / stw_recovered if stw_recovered > 0 else 0.0
    stw_pause = rows[stw]["pause_cycles_max"]
    inc_pause = rows[inc]["pause_cycles_max"]
    pause_ratio = inc_pause / stw_pause if stw_pause > 0 else 0.0
    print(f"  {stw}/{FRAG_ARG}: recovered {stw_recovered / 1024.0 / 1024.0:.1f} MiB contiguity "
          f"in one {stw_pause:.0f}-cycle pause")
    print(f"  {inc}/{FRAG_ARG}: recovered {inc_recovered / 1024.0 / 1024.0:.1f} MiB "
          f"({recovery:.2f}x), max quantum pause {inc_pause:.0f} cycles "
          f"({pause_ratio:.3f}x the stop-the-world pause)")
    if stw_recovered > 0 and recovery < FRAG_MIN_RECOVERY:
        failures.append(f"incremental compaction recovered only {recovery:.2f}x the "
                        f"stop-the-world contiguity (need >= {FRAG_MIN_RECOVERY:.2f}x)")
    if pause_ratio > FRAG_MAX_PAUSE_RATIO:
        failures.append(f"incremental max pause is {pause_ratio:.3f}x the stop-the-world "
                        f"pause (need <= {FRAG_MAX_PAUSE_RATIO:.2f}x)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"fragmentation gate OK (recovery {recovery:.2f}x >= {FRAG_MIN_RECOVERY:.2f}x, "
          f"pause {pause_ratio:.3f}x <= {FRAG_MAX_PAUSE_RATIO:.2f}x)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    compare = sub.add_parser("compare")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument("--threshold", type=float, default=0.10)
    compare.set_defaults(fn=cmd_compare)

    storm = sub.add_parser("storm-gate")
    storm.add_argument("storm")
    storm.set_defaults(fn=cmd_storm_gate)

    overload = sub.add_parser("overload-gate")
    overload.add_argument("overload")
    overload.add_argument("--baseline", default=None)
    overload.add_argument("--threshold", type=float, default=0.10)
    overload.add_argument("--allow-crashes", action="store_true")
    overload.set_defaults(fn=cmd_overload_gate)

    frag = sub.add_parser("frag-gate")
    frag.add_argument("frag")
    frag.set_defaults(fn=cmd_frag_gate)

    footprint = sub.add_parser("footprint-gate")
    footprint.add_argument("host")
    footprint.set_defaults(fn=cmd_footprint_gate)

    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
