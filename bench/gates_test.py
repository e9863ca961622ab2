#!/usr/bin/env python3
"""Self-test of the gate table in gates.py; no benchmark binary runs.

Every row must pass on in-bound synthetic results, fail on a planted out-of-bound value,
and fail when a benchmark row or counter it reads is absent.
"""

import copy
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gates  # noqa: E402

ATTACK = {"contained": 16, "digest_lo32": 2124370000}
OVERLOAD = {f"OverloadFleet/{system}/{rate}": {"goodput_rps": goodput, "crashed": 0,
                                                "dump_published": 1}
            for system, goodputs in (("uFork", (17280, 27665)), ("CheriBSD", (17280, 34075)),
                                     ("Nephele", (7975, 15580)))
            for rate, goodput in zip((10, 20), goodputs)}
OVERLOAD["OverloadFleet/uFork_NoAdmission/20"] = {"goodput_rps": 22640}
TIB = 2**40

# In-bound results, by binary or committed JSON: benchmark row -> counters.
SYNTHETIC = {
    "bench_fig4_fork_latency": {f"RedisForkLatency/uFork_{series}/1000": {"fork_us": us}
                                for series, us in (("CoPA", 250.2), ("CoA", 278.3),
                                                   ("FullCopy", 20661.6))},
    "bench_fig6_faas": {"FaasThroughput/uFork/1": {"functions_per_s": 1159.0},
                        "FaasThroughput/CheriBSD/1": {"functions_per_s": 936.3}},
    "bench_fig8_hello": {"HelloFork/uFork": {"fork_us": 55.0},
                         "HelloFork/CheriBSD": {"fork_us": 193.9}},
    "bench_attack": {f"BM_AttackBattery_{backend}/{paging}": dict(ATTACK, real_time=ns)
                     for backend, ns in (("Ufork", 1.22e6), ("Mas", 3.78e6), ("VmClone", 1.92e8))
                     for paging in (0, 1)},
    "bench_host_throughput": {"HttpdFleetFootprint/0": {"resident_frames": 306344},
                              "HttpdFleetFootprint/1": {"resident_frames": 25703},
                              "RedisSaveEndToEnd": {"storage_frames": 2723,
                                                    "peak_frames": 35303}},
    "bench_fault_storm": {"FaultStormRedis/0": {"fault_Mcycles": 0.803},
                          "FaultStormRedis/16": {"fault_Mcycles": 0.1},  # not FaultStormRedis/1
                          "FaultStormRedis/1": {"fault_Mcycles": 1.051}},
    "bench_fragmentation": {
        f"FragmentationCompaction{service}/32": {"largest_free_before": 128 * TIB,
                                                 "largest_free_after": 128 * TIB + 2**26,
                                                 "pause_cycles_max": pause}
        for service, pause in (("", 4051584), ("Incremental", 9280))},
    "bench_overload": OVERLOAD,
    "BENCH_overload.json": copy.deepcopy(OVERLOAD),
}


def entries(results):
    """google-benchmark JSON entries for {benchmark row: counters}."""
    return [dict(counters, name=f"{name}/iterations:1/manual_time")
            for name, counters in results.items()]


def outcome(row, data):
    """(passed, reads) of row on data; reads lists the (source, row, counter) it read."""
    read = gates.reader(entries(data[row.binary]), lambda path: entries(data[path]))
    reads = []

    def recording(name, counter, path=None):
        reads.append((path or row.binary, name, counter))
        return read(name, counter, path)

    value, _ = gates.evaluate(row, recording)
    return gates.holds(value, row.bound), reads


def edited(source, name, counter=None, value=None):
    """SYNTHETIC with one counter set to value, one counter removed, or one row removed."""
    data = copy.deepcopy(SYNTHETIC)
    if value is not None:
        data[source][name][counter] = value
    elif counter is not None:
        del data[source][name][counter]
    else:
        del data[source][name]
    return data


class GateTableTest(unittest.TestCase):
    def test_row_names_are_unique(self):
        names = [row.name for row in gates.ROWS]
        self.assertEqual(len(names), len(set(names)))

    def test_each_recorded_binary_runs_one_filter(self):  # --record copies one run per JSON
        for binary in gates.RECORDED:
            self.assertEqual(len({row.filter for row in gates.ROWS if row.binary == binary}), 1)

    def test_every_row_passes_in_bound_and_fails_out_of_bound_or_missing(self):
        for row in gates.ROWS:
            with self.subTest(row=row.name):
                passed, reads = outcome(row, SYNTHETIC)
                self.assertTrue(passed, "fails on in-bound results")
                planted_fails = False
                for source, name, counter in dict.fromkeys(reads):
                    if source == row.binary:
                        self.assertRegex(name, row.filter, "the row's run does not select it")
                    self.assertFalse(outcome(row, edited(source, name, counter))[0],
                                     f"passes without {name} {counter}")
                    self.assertFalse(outcome(row, edited(source, name))[0],
                                     f"passes without {name}")
                    x = SYNTHETIC[source][name][counter]
                    planted_fails |= any(not outcome(row, edited(source, name, counter, plant))[0]
                                         for plant in (x * 1e-3, x * 1e3, x + 1))
                self.assertTrue(planted_fails, "no planted out-of-bound value fails it")

    def test_frag_rows_fail_when_both_services_lose_contiguity(self):
        data = copy.deepcopy(SYNTHETIC)
        for counters in data["bench_fragmentation"].values():
            counters["largest_free_after"] = counters["largest_free_before"] - 2**26
        self.assertFalse(all(outcome(row, data)[0] for row in gates.ROWS if "frag." in row.name))


if __name__ == "__main__":
    unittest.main()
