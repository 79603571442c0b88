#!/usr/bin/env python3
"""End-to-end benchmark of the Infinity Stream simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (harness.cc, linked against ../src) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload for S seconds of timed rounds, checks every output, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics (README.md lists
them). --update-golden rewrites this workload's entry of golden.json from
the run instead of checking against it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fabric_staging", "fabric_compute", "steady_state_timing")
GOLDEN = os.path.join(HERE, "golden.json")
#: Set-up is timed in this many harness processes (the measured run and
#: set-up-only ones); setup_s is their median.
SETUP_RUNS = 5
BUILD_TIMEOUT_S = 840
#: Wall-clock budget of everything after the build.
RUN_BUDGET_S = 170
KINDS = ("compute", "intra_shift", "inter_shift", "bc", "bc_imm", "sync")

#: End-to-end metrics with a bound: name -> (unit, clock). The JSON line of
#: --trace 0 carries exactly these; round_ms_tail, regions_degraded and
#: failed_frac are printed beside them (README.md says why).
END_TO_END = {
    "setup_s": ("s", "host"),
    "round_ms_p50": ("ms", "host"),
    "peak_rss_mb": ("MB", "host"),
    "infs_speedup_geomean": ("x", "simulated"),
}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure and build the harness; returns its path or None."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            stale = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read()
        if stale:  # configured from another copy of the sources
            shutil.rmtree(bdir)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "infs-perfbench"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print("build step failed: %s" % e, file=sys.stderr)
                return None
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                print("build failed (%s)" % " ".join(cmd), file=sys.stderr)
                return None
    return os.path.join(bdir, "infs-perfbench")


def run_harness(exe, bdir, args, seconds, deadline):
    """One harness process; returns its raw JSON or None. With seconds 0
    it only sets up and the JSON holds setup_s alone."""
    raw_path = os.path.join(
        bdir, "raw-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    log_path = os.path.join(bdir, "harness-%s.log" % args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", raw_path]
    with open(log_path, "w") as log:
        # subprocess.run kills and reaps the child on timeout.
        rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                            timeout=max(1.0, deadline - time.monotonic())
                            ).returncode
    if rc != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        print("harness exited with %d" % rc, file=sys.stderr)
        return None
    with open(raw_path) as f:
        return json.load(f)


def golden_checksum(raw, sc):
    """The seed-0 job checksum the golden record pins: the composed
    fabric pass, or the fabric backend's when the pass is cycles-only."""
    c = sc["checks"]
    return c["checksum"] if raw["job_pass"] == "fabric" else c["fabric_checksum"]


def golden_entry(raw, sc):
    return {"checksum": golden_checksum(raw, sc),
            "sim_cycles": sc["sim_cycles"],
            "replay_cycles": sc["replay_cycles"]}


def scenario_failures(raw, sc, golden):
    """Checks a scenario fails for the whole run (each fails every round
    of the scenario): the names, in a fixed order."""
    fails = []
    c = sc["checks"]
    if sc["in_mem_ops"] > sc["total_ops"]:
        fails.append("in_mem_ops_le_total_ops")
    if not c["reference_ok"]:
        fails.append("reference")
    if c["has_job"] != sc["has_job"]:
        fails.append("job_planned")
    elif c["has_job"]:
        fabric = c["replay_cycles"] == c["fabric_cycles"]
        if raw["job_pass"] == "fabric":
            fabric = fabric and c["checksum"] == c["fabric_checksum"]
        # The cycles-only pass has no bits of its own: compare the two
        # backends that produce them.
        if golden_checksum(raw, sc) != c["functional_checksum"]:
            fails.append("backend_functional")
        if not fabric:
            fails.append("backend_fabric")
        if c["replay_cycles"] != c["timing_cycles"]:
            fails.append("backend_timing")
    if golden != golden_entry(raw, sc):
        fails.append("golden")
    return fails


def sim_digest(raw):
    """Hash of every simulated statistic and the seed-0 bits of the
    workload; independent of --seed and of host timing."""
    keep = ("base_cycles", "sim_cycles", "in_mem_ops", "total_ops",
            "regions_degraded", "lowerings", "memo_hits", "jit_ticks", "cmd",
            "has_job", "commands", "replay_cycles", "fabric_kinds")
    record = [[sc["name"], {k: sc[k] for k in keep}, golden_checksum(raw, sc)]
              for sc in raw["scenarios"]]
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_outputs(raw, golden_doc):
    """Scenario-round accounting: (attempted, failed, correct, notes)."""
    wl = raw["workload"]
    golden = golden_doc.get("workloads", {}).get(wl, {})
    known = golden_doc.get("known_failures", {}).get(wl, {})
    rounds = len(raw["rounds_ms"]) + len(raw["traced_rounds_ms"])
    attempted = rounds * len(raw["scenarios"])
    failed = 0
    correct = rounds > 0
    notes = []
    for sc in raw["scenarios"]:
        fails = scenario_failures(raw, sc, golden.get(sc["name"]))
        failed += rounds if fails else sc["mismatched_rounds"]
        if sc["mismatched_rounds"]:
            notes.append("%s: %d timed rounds differ from the warm-up"
                         % (sc["name"], sc["mismatched_rounds"]))
            correct = False
        for name in fails:
            expected = known.get(sc["name"], {}).get("check") == name
            c = sc["checks"]
            detail = "" if name != "reference" else (
                c["reference_note"]
                or "worst error %.3g x tolerance" % c["reference_max_err"])
            notes.append("%s: fails %s%s%s" % (
                sc["name"], name, " (known defect)" if expected else "",
                " (%s)" % detail if detail else ""))
            correct = correct and expected
    return attempted, failed, correct, notes


def end_to_end(raw, setups):
    """The bounded end-to-end metric values; `setups` are the set-up times
    of every harness process of the run."""
    speedups = [sc["base_cycles"] / sc["sim_cycles"] for sc in raw["scenarios"]]
    return {
        "setup_s": stats.median(setups),
        "round_ms_p50": stats.median(raw["rounds_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "infs_speedup_geomean": stats.geomean(speedups),
    }


def traced_rounds(raw):
    """[(round_ms, spans of that round)] for every traced round."""
    by_round = {}
    for s in raw["spans"]:
        by_round.setdefault(s["round"], []).append(s)
    ids = sorted(by_round)
    return list(zip(raw["traced_rounds_ms"], (by_round[i] for i in ids)))


def per_layer(raw, failed_frac):
    """Per-layer metrics: (values, units, problems)."""
    scen = raw["scenarios"]
    traced = traced_rounds(raw)
    problems = []
    layer_rounds = []
    for round_ms, spans in traced:
        problems.extend(stats.span_sum_errors(spans, round_ms))
        layer_rounds.append(stats.layer_times(spans))

    def layer_ms(name):
        return stats.median([lt.get(name, 0.0) for lt in layer_rounds])

    def cpu_per_wall(name):
        spans = [s for s in raw["spans"] if s["name"] == name]
        wall = sum(s["end"] - s["start"] for s in spans)
        return sum(s["cpu_ms"] for s in spans) / wall if wall > 0 else 0.0

    def total(key):
        return sum(sc[key] for sc in scen)

    def ratio(num, den):
        return num / den if den else 0.0

    fabric = [sc for sc in scen if sum(sc["fabric_kinds"].values())]
    v = {}
    u = {}

    def put(name, value, unit):
        v[name] = value
        u[name] = unit

    for name in ("workloads.make", "uarch.system", "core.executor.base",
                 "core.executor.infs", "core.plan", "uarch.fabric.stage",
                 "uarch.fabric.execute", "uarch.fabric.readback",
                 "uarch.replay", "bench.teardown"):
        put(name + "_ms", layer_ms(name), "ms")
    for name in ("stage", "readback", "execute"):
        put("uarch.fabric.%s_cpu_per_wall" % name,
            cpu_per_wall("uarch.fabric." + name), "cores")
    put("bench.unattributed_ms", layer_ms(None), "ms")
    put("bench.trace_overhead_ms",
        stats.median(raw["traced_rounds_ms"]) - stats.median(raw["rounds_ms"]),
        "ms")
    put("core.executor.in_mem_op_frac",
        ratio(total("in_mem_ops"), total("total_ops")), "ratio")
    put("core.executor.sim_cycles", total("sim_cycles"), "cycles")
    put("core.executor.regions_degraded", total("regions_degraded"), "count")
    put("jit.lowerings", total("lowerings"), "count")
    put("jit.memo_hits", total("memo_hits"), "count")
    put("jit.memo_hit_ratio",
        ratio(total("memo_hits"), total("memo_hits") + total("lowerings")),
        "ratio")
    put("jit.ticks", total("jit_ticks"), "cycles")
    for key in ("fused_moves", "deduped_commands", "elided_syncs", "bailouts"):
        put("jit.cmd." + key, sum(sc["cmd"][key] for sc in scen), "count")
    for kind in KINDS:
        put("uarch.fabric.%s.count" % kind,
            sum(sc["fabric_kinds"][kind] for sc in scen), "count")
        put("uarch.fabric.%s.ms" % kind,
            stats.median([r[kind] for r in raw["traced_kind_ms"]]), "ms")
    hits = total("mask_cache_hits")
    put("uarch.fabric.mask_cache_hit_ratio",
        ratio(hits, hits + total("mask_cache_misses")), "ratio")
    put("uarch.fabric.scratch_allocs", total("scratch_allocs"), "count")
    put("uarch.fabric.bank_occupancy_imbalance",
        ratio(sum(sc["bank_occupancy_imbalance"] for sc in fabric),
              len(fabric)), "ratio")
    put("round_ms_tail", stats.tail_percentile(raw["rounds_ms"])[1], "ms")
    put("regions_degraded", total("regions_degraded"), "count")
    put("failed_frac", failed_frac, "ratio")
    return v, u, problems


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def update_golden(raw):
    doc = load_golden()
    doc.setdefault("workloads", {})[raw["workload"]] = {
        sc["name"]: golden_entry(raw, sc) for sc in raw["scenarios"]}
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def report(raw, setups, args, t0):
    attempted, failed, correct, notes = check_outputs(raw, load_golden())
    scen = raw["scenarios"]
    print("workload %s  seed %d  threads %d  job pass %s%s" % (
        raw["workload"], raw["seed"], raw["host_threads"], raw["job_pass"],
        "  (assumeTransposed)" if raw["assume_transposed"] else ""))
    print("%-14s %12s %12s %8s %5s %10s %18s" % (
        "scenario", "base_cycles", "sim_cycles", "speedup", "degr",
        "replay", "checksum(seed 0)"))
    for sc in scen:
        print("%-14s %12d %12d %7.3fx %5d %10d %18s" % (
            sc["name"], sc["base_cycles"], sc["sim_cycles"],
            sc["base_cycles"] / sc["sim_cycles"], sc["regions_degraded"],
            sc["replay_cycles"], golden_checksum(raw, sc)))
    for note in notes:
        print("check: " + note)
    if args.trace == 0:
        values = end_to_end(raw, setups)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
        for k, (unit, clock) in END_TO_END.items():
            print("%-22s %14.6f %-5s (%s clock)" % (k, values[k], unit, clock))
        print("%-22s %s (s, one per process)" % (
            "setup_s samples", " ".join("%.3f" % x for x in setups)))
        tail_p, tail = stats.tail_percentile(raw["rounds_ms"])
        print("%-22s %14.6f %-5s (host clock; p%d of %d rounds)" % (
            "round_ms_tail", tail, "ms", tail_p, len(raw["rounds_ms"])))
        print("%-22s %14d %-5s (simulated clock)" % (
            "regions_degraded", sum(sc["regions_degraded"] for sc in scen),
            "count"))
        print("%-22s %14.6f %-5s (%d of %d scenario-rounds)" % (
            "failed_frac", failed / attempted, "ratio", failed, attempted))
        print("%-22s %14s" % ("sim_digest", sim_digest(raw)))
    else:
        values, units, problems = per_layer(raw, failed / attempted)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
        for k in values:
            print("%-42s %16.6f %s" % (k, values[k], units[k]))
        print("traced rounds %d, untraced rounds %d" % (
            len(raw["traced_rounds_ms"]), len(raw["rounds_ms"])))
        for p in problems:
            print("span check: " + p)
        correct = correct and not problems
    print("wall time of this run: %.1f s" % (time.monotonic() - t0))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("simulator sources not found under %s" % ROOT, file=sys.stderr)
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    try:
        # setup_s is reported by --trace 0 only; time more set-ups there.
        for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            only = run_harness(exe, bdir, args, 0, deadline)
            if only is None:
                return 1
            setups.append(only["setup_s"])
        raw = run_harness(exe, bdir, args, args.seconds, deadline)
    except subprocess.TimeoutExpired:
        print("harness timed out", file=sys.stderr)
        return 1
    if raw is None:
        return 1
    setups.append(raw["setup_s"])
    if args.update_golden:
        update_golden(raw)
    report(raw, setups, args, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
