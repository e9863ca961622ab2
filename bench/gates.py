#!/usr/bin/env python3
"""The benchmark gate table and its runner (stdlib only).

  python3 bench/gates.py [BUILD_DIR] [--rows REGEX] [--record | --ab REV]

Each row of ROWS encodes one claim: the bench binary and --benchmark_filter that measure
it, a metric computed from the benchmark's JSON output, and a bound. Every gated quantity
is simulator virtual time or a simulator count, so the rows hold on any host. The runner
runs each distinct binary and filter once, prints one line per row and exits 1 if any row
failed. A row whose binary, benchmark row or counter is missing fails.

  BUILD_DIR     the CMake build directory (default: <repo>/build)
  --rows REGEX  only the rows whose name matches REGEX (not with --ab)
  --record      once every row has passed, copy the runs of RECORDED over their JSONs
  --ab REV      gate host time, which no row does: build REV's AB_BINARY in a temporary
                git worktree configured with BUILD_DIR's AB_CONFIG, run each row alone in
                AB_PAIRS pairs with this tree's binary, alternating which side runs first,
                and fail a row whose median per-pair cpu_time ratio (this tree over REV)
                exceeds AB_MAX_RATIO, also once 2 * AB_PAIRS more pairs have run after all
                the other rows. A row REV lacks must run.
"""

import argparse
import functools
import json
import operator
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent

# Runs whose JSON output is committed; --record rewrites these files.
RECORDED = {"bench_fault_storm": "BENCH_fault_storm.json",
            "bench_fragmentation": "BENCH_fragmentation.json",
            "bench_overload": "BENCH_overload.json"}

AB_BINARY = "bench_host_throughput"
AB_CONFIG = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "UFORK_SANITIZE")  # from CMakeCache.txt
AB_PAIRS = 10
AB_MAX_RATIO = 1.10
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class Row(NamedTuple):
    name: str
    claim: str  # the claim the row encodes, and the section that states it
    binary: str
    filter: str  # --benchmark_filter; it must select every benchmark row the metric reads
    metric: Callable  # metric(read) -> float; read(bench_row, counter, committed_json=None)
    bound: tuple  # (op, *limits) for op in OPS: (">=", 0.8) or ("in", lo, hi)


class GateError(Exception):
    """A binary, benchmark row or counter a row needs is missing, or the binary failed."""


OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq, ">": operator.gt,
       "in": lambda value, lo, hi: lo <= value <= hi}


def fig4(series):
    return f"RedisForkLatency/uFork_{series}/1000"  # the 100 MB database (1000 x 100 KiB)


ATTACK_BACKENDS = ("Ufork", "Mas", "VmClone")  # in the order campaign virtual time must rise
ATTACK = [f"BM_AttackBattery_{b}/{paging}" for b in ATTACK_BACKENDS for paging in (0, 1)]


def attack_order(read):
    """Smallest ratio of successive campaign virtual times in ATTACK_BACKENDS order."""
    ratios = []
    for paging in (0, 1):
        t = [read(f"BM_AttackBattery_{b}/{paging}", "real_time") for b in ATTACK_BACKENDS]
        ratios += [t[1] / t[0], t[2] / t[1]]
    return min(ratios)


def frag_recovered(read, service):
    """MiB of contiguity the compaction service recovered on the 32-row checkerboard."""
    row = f"FragmentationCompaction{service}/32"
    return (read(row, "largest_free_after") - read(row, "largest_free_before")) / 2**20


def overload_rows(system):
    def fleet(rate):  # rate 10 is the saturating 1x point, 20 is 2x
        return f"OverloadFleet/{system}/{rate}"

    def row(name, claim, metric, bound):
        return Row(f"overload.{system}.{name}", f'{system}: {claim} (EXPERIMENTS.md "Overload")',
                   "bench_overload", "OverloadFleet", metric, bound)

    return [
        row("2x_over_1x", "goodput at 2x saturation is at least 0.8x goodput at 1x",
            lambda read: read(fleet(20), "goodput_rps") / read(fleet(10), "goodput_rps"),
            (">=", 0.8)),
        row("crashed", "no child dies of an uncontained ENOMEM at 1x or 2x",
            lambda read: read(fleet(10), "crashed") + read(fleet(20), "crashed"), ("==", 0)),
        row("dump_published", "Redis publishes a verified BGSAVE dump at 1x and 2x",
            lambda read: min(read(fleet(rate), "dump_published") for rate in (10, 20)),
            ("==", 1)),
        row("goodput_vs_recorded", "goodput at 1x and 2x within 10% of BENCH_overload.json",
            lambda read: min(read(fleet(rate), "goodput_rps")
                             / read(fleet(rate), "goodput_rps", "BENCH_overload.json")
                             for rate in (10, 20)),
            (">=", 0.9)),
    ]


ROWS = [
    Row("fig4.full_over_copa",
        "Fig. 4: CoPA forks a 100 MB Redis at least 80x faster than a full copy (EXPERIMENTS.md)",
        "bench_fig4_fork_latency", "RedisForkLatency/uFork_(CoPA|CoA|FullCopy)/1000",
        lambda read: read(fig4("FullCopy"), "fork_us") / read(fig4("CoPA"), "fork_us"),
        (">=", 80)),
    Row("fig4.coa_over_copa", "Fig. 4: a CoA fork costs 1.05-1.2x a CoPA fork (EXPERIMENTS.md)",
        "bench_fig4_fork_latency", "RedisForkLatency/uFork_(CoPA|CoA|FullCopy)/1000",
        lambda read: read(fig4("CoA"), "fork_us") / read(fig4("CoPA"), "fork_us"),
        ("in", 1.05, 1.20)),
    Row("fig6.gain_over_cheribsd_1w",
        "Fig. 6: 24% +- 4 pp more functions/s than CheriBSD at 1 worker (EXPERIMENTS.md)",
        "bench_fig6_faas", "FaasThroughput/(uFork|CheriBSD)/1",
        lambda read: read("FaasThroughput/uFork/1", "functions_per_s")
        / read("FaasThroughput/CheriBSD/1", "functions_per_s") - 1,
        ("in", 0.20, 0.28)),
    Row("fig8.cheribsd_over_ufork",
        "Fig. 8: a hello fork is 3.5x +- 10% slower on CheriBSD than on uFork (EXPERIMENTS.md)",
        "bench_fig8_hello", "HelloFork/(uFork|CheriBSD)",
        lambda read: read("HelloFork/CheriBSD", "fork_us") / read("HelloFork/uFork", "fork_us"),
        ("in", 3.15, 3.85)),
    Row("attack.contained",
        'every campaign contains the 16 fatal attacks (EXPERIMENTS.md "Attack battery")',
        "bench_attack", "BM_AttackBattery",
        lambda read: min(read(row, "contained") for row in ATTACK), ("==", 16)),
    Row("attack.agree",
        'all campaigns agree on contained and digest_lo32 (EXPERIMENTS.md "Attack battery")',
        "bench_attack", "BM_AttackBattery",
        lambda read: len({(read(row, "contained"), read(row, "digest_lo32")) for row in ATTACK}),
        ("==", 1)),
    Row("attack.order",
        'campaign virtual time orders uFork < MAS < VM clone (EXPERIMENTS.md "Attack battery")',
        "bench_attack", "BM_AttackBattery", attack_order, (">", 1)),
    Row("footprint.demand_over_eager",
        "demand paging holds <= 0.5x the eager httpd fleet's resident frames (DESIGN.md §4.12)",
        "bench_host_throughput", "HttpdFleetFootprint",
        lambda read: read("HttpdFleetFootprint/1", "resident_frames")
        / read("HttpdFleetFootprint/0", "resident_frames"),
        ("<=", 0.5)),
    Row("mem.redis_storage_share",
        "a 10 MB Redis BGSAVE gives host storage to <= 0.25 of its peak frames: frames never "
        "written have none (DESIGN.md §4.6)", "bench_host_throughput", "RedisSaveEndToEnd",
        lambda read: read("RedisSaveEndToEnd", "storage_frames")
        / read("RedisSaveEndToEnd", "peak_frames"),
        ("<=", 0.25)),
    Row("storm.adaptive_gain",
        'adaptive fault-around cuts fault cycles >= 10% vs window=1 (EXPERIMENTS.md "Fault storm")',
        "bench_fault_storm", "FaultStorm",
        lambda read: 1 - read("FaultStormRedis/0", "fault_Mcycles")
        / read("FaultStormRedis/1", "fault_Mcycles"),
        (">=", 0.10)),
    Row("frag.stw_recovers",
        "the stop-the-world compaction pass recovers contiguity on the checkerboard "
        "(DESIGN.md §4.13)", "bench_fragmentation", "FragmentationCompaction",
        lambda read: frag_recovered(read, ""), (">", 0)),
    Row("frag.recovery",
        "incremental compaction recovers >= 0.9x the stop-the-world contiguity (DESIGN.md §4.13)",
        "bench_fragmentation", "FragmentationCompaction",
        lambda read: frag_recovered(read, "Incremental") / frag_recovered(read, ""), (">=", 0.9)),
    Row("frag.pause",
        "incremental compaction pauses <= 0.1x the stop-the-world pause (DESIGN.md §4.13)",
        "bench_fragmentation", "FragmentationCompaction",
        lambda read: read("FragmentationCompactionIncremental/32", "pause_cycles_max")
        / read("FragmentationCompaction/32", "pause_cycles_max"),
        ("<=", 0.1)),
    *[row for system in ("uFork", "CheriBSD", "Nephele") for row in overload_rows(system)],
    # The *_NoAdmission fleet is the ablation: admission must keep a measured win over it.
    Row("overload.uFork.admission_gain_2x",
        'uFork: admission control lifts goodput at 2x saturation >= 1.1x over the same fleet '
        'without it (EXPERIMENTS.md "Overload")', "bench_overload", "OverloadFleet",
        lambda read: read("OverloadFleet/uFork/20", "goodput_rps")
        / read("OverloadFleet/uFork_NoAdmission/20", "goodput_rps"),
        (">=", 1.1)),
]


def holds(value, bound):
    op, *limits = bound
    return value is not None and OPS[op](value, *limits)


def lookup(entries, name, counter):
    """The counter of the benchmark row `name` (its run name up to the arguments)."""
    for entry in entries:
        if entry["name"] == name or entry["name"].startswith(name + "/"):
            if counter not in entry:
                raise GateError(f"{name} has no counter {counter}")
            return float(entry[counter])
    raise GateError(f"no benchmark row {name}")


@functools.cache
def committed(path):
    return json.loads((REPO / path).read_text())["benchmarks"]


def reader(entries, committed_entries=committed):
    """The read(bench_row, counter, committed_json=None) that metrics are computed with."""
    return lambda name, counter, path=None: lookup(
        committed_entries(path) if path else entries, name, counter)


def evaluate(row, read):
    """(value, note); value is None when the metric could not be computed."""
    try:
        return row.metric(read), ""
    except (GateError, ArithmeticError, OSError) as error:
        return None, str(error)


def report(name, bound, value, note=""):
    op, *limits = bound
    want = f"in [{limits[0]:g}, {limits[1]:g}]" if op == "in" else f"{op} {limits[0]:g}"
    shown = "-" if value is None else f"{value:.4g}"
    ok = holds(value, bound)
    print(f"{'PASS' if ok else 'FAIL'}  {name:<38} {shown:>10}  {want:<16} {note}".rstrip(),
          flush=True)
    return ok


def run_bench(binary, args, out):
    """Runs a bench binary, returning the benchmark entries of its JSON output."""
    if not binary.is_file():
        raise GateError(f"{binary} is not built")
    # bench_overload re-runs every fleet and requires bit-identical results.
    env = dict(os.environ, UFORK_OVERLOAD_REPLAY_CHECK="1")
    proc = subprocess.run([binary, *args, f"--benchmark_out={out}",
                           "--benchmark_out_format=json"], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        raise GateError(f"{binary.name} exited {proc.returncode}: {tail}")
    return json.loads(Path(out).read_text())["benchmarks"]


def run_gates(build, rows, record):
    """Evaluates rows, returning the names of the failed ones."""
    failed, outs, runs = [], {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for binary, bench_filter in dict.fromkeys((row.binary, row.filter) for row in rows):
            out = outs[binary, bench_filter] = Path(tmp) / f"{len(outs)}.json"
            try:
                runs[binary, bench_filter] = run_bench(
                    build / "bench" / binary, [f"--benchmark_filter={bench_filter}"], out)
            except GateError as error:
                runs[binary, bench_filter] = error
        for row in rows:
            run = runs[row.binary, row.filter]
            value, note = ((None, str(run)) if isinstance(run, GateError)
                           else evaluate(row, reader(run)))
            if not report(row.name, row.bound, value, note):
                failed.append(row.name)
        if record and failed:
            print("not recording: a row failed")
        elif record:
            for (binary, _), out in outs.items():
                if binary in RECORDED:
                    shutil.copy(out, REPO / RECORDED[binary])
                    print(f"wrote {RECORDED[binary]}")
    return failed


def build_rev(rev, build, tmp):
    """Builds REV's AB_BINARY in a temporary git worktree, configured with BUILD_DIR's
    AB_CONFIG, and returns a copy of it."""
    cache = (build / "CMakeCache.txt").read_text()
    config = [f"-D{name}={m[1]}" for name in AB_CONFIG
              if (m := re.search(rf"^{name}:\w+=(.*)$", cache, re.M))]
    tree = tmp / "tree"
    subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", tree, rev], check=True)
    try:
        quiet = {"check": True, "stdout": subprocess.DEVNULL}
        subprocess.run(["cmake", "-S", tree, "-B", tree / "build", *config], **quiet)
        subprocess.run(["cmake", "--build", tree / "build", "-j", str(os.cpu_count()),
                        "--target", AB_BINARY], **quiet)
        return Path(shutil.copy(tree / "build" / "bench" / AB_BINARY, tmp / "base"))
    finally:
        subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", tree], check=True)


def listed(binary):
    return subprocess.run([binary, "--benchmark_list_tests=true"], capture_output=True,
                          text=True, check=True).stdout.split()


def cpu_ns(binary, name, out):
    """Host CPU ns per iteration of one benchmark row, run alone."""
    [entry] = run_bench(binary, [f"--benchmark_filter=^{re.escape(name)}$",
                                 "--benchmark_min_time=0.1"], out)
    return entry["cpu_time"] * TIME_UNIT_NS[entry["time_unit"]]


def run_ab(build, rev):
    """A/B of this tree's AB_BINARY against REV's, returning the names of the failed rows."""
    cand = build / "bench" / AB_BINARY
    results = {}  # row -> cand's cpu_time over base's in each pair, or the GateError it hit
    with tempfile.TemporaryDirectory() as tmp:
        out, base = Path(tmp) / "ab.json", build_rev(rev, build, Path(tmp))
        base_names = set(listed(base))

        def measure(name, pairs):
            try:
                if name not in base_names:  # nothing to pair it with, but it must run
                    cpu_ns(cand, name, out)
                    print(f"NEW   ab.{name}: not in {rev}; it ran")
                    return
                for i in range(pairs):
                    order = (base, cand) if i % 2 == 0 else (cand, base)
                    ns = {side: cpu_ns(side, name, out) for side in order}
                    results.setdefault(name, []).append(ns[cand] / ns[base])
            except GateError as error:
                results[name] = error

        for name in listed(cand):
            measure(name, AB_PAIRS)
        # A noisy window on a shared host can push a set of identical binaries past the bound;
        # twice as many pairs again, after all the other rows, make such a set a third of all.
        for name in [name for name, ratios in results.items()
                     if isinstance(ratios, list) and statistics.median(ratios) > AB_MAX_RATIO]:
            measure(name, 2 * AB_PAIRS)
    failed = []
    for name, ratios in results.items():
        value, note = ((None, str(ratios)) if isinstance(ratios, GateError)
                       else (statistics.median(ratios), f"median of {len(ratios)} pairs"))
        if not report(f"ab.{name}", ("<=", AB_MAX_RATIO), value, note):
            failed.append(f"ab.{name}")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build", nargs="?", type=Path, default=REPO / "build")
    parser.add_argument("--rows", default="", metavar="REGEX")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--ab", metavar="REV")
    args = parser.parse_args()
    if args.ab and args.rows:
        parser.error(f"--ab runs every row of {AB_BINARY}; --rows selects gate rows")
    build = args.build.resolve()
    try:
        if args.ab:
            failed = run_ab(build, args.ab)
        else:
            rows = [row for row in ROWS if re.search(args.rows, row.name)]
            if not rows:
                raise GateError(f"no row matches {args.rows!r}")
            failed = run_gates(build, rows, args.record)
    except (GateError, OSError, subprocess.CalledProcessError) as error:
        print(f"FAIL: {error}")
        return 1
    print(f"FAIL: {', '.join(failed)}" if failed else "all rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
