/**
 * @file
 * infs-bench: one CLI driving the seed-workload registry through the
 * timing executor and a selectable execution backend, emitting a stable
 * JSON schema for CI regression gating (scripts/bench_diff.py).
 *
 * Per workload it reports:
 *  - wall_ms        host wall-clock for the timed section (exec + backend)
 *  - exec_wall_ms   Executor timing-model run
 *  - fabric_wall_ms backend job passes (bit-accurate when --backend fabric)
 *  - sim_cycles     simulated cycles (deterministic; the CI gate)
 *  - backend_sim_cycles  cycle replay of the job (fabric/timing backends)
 *  - jit_ticks      modeled JIT lowering time
 *  - noc_hop_bytes  total NoC traffic (bytes x hops over all classes)
 *  - checksum       FNV-1a over the job output bit patterns
 *  - speedup_vs_1t  wall-clock speedup vs a --threads 1 rerun
 *
 * Simulated quantities are identical for any --threads value; only the
 * wall-clock fields change (DESIGN.md §10). The functional backend's
 * checksums are byte-identical to the fabric's (DESIGN.md §12), so
 * per-PR CI runs it for speed while nightly re-runs the fabric.
 *
 * Exit status: 0 success, 2 usage error (unknown scenario or backend
 * names fail upfront, before anything runs).
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/executor.hh"
#include "egraph/egraph.hh"
#include "uarch/system.hh"
#include "workloads/registry.hh"

namespace {

using namespace infs;

/**
 * Optimization-stack switches for one measurement (the `--ablate`
 * harness, DESIGN.md §13). The defaults mirror production: command
 * optimizer on, e-graph off (floating-point reassociation changes bits,
 * so it stays opt-in), memoization on.
 */
struct Knobs {
    bool cmdOpt = true;      ///< SystemConfig::cmdOpt.
    bool syncElision = true; ///< SystemConfig::cmdOptSyncElision.
    bool memo = true;        ///< Phase::sameTdfgEachIter left as authored.
    bool egraph = false;     ///< TdfgOptimizer on every built graph.
};

/** One ablation measurement: the deterministic signals only. */
struct AblationRow {
    std::string variant;
    std::uint64_t simCycles = 0;
    std::uint64_t jobSimCycles = 0;
    std::uint64_t jitTicks = 0;
    std::uint64_t checksum = 0;
    unsigned commands = 0; ///< Optimized job command count (0 = no job).
    CmdStats cmd;
};

/** Per-workload measurement row (medians over the timed repeats). */
struct Row {
    std::string name;
    double wallMs = 0.0;
    double wallMsMin = 0.0;
    double wallMsMax = 0.0;
    double execWallMs = 0.0;
    double fabricWallMs = 0.0;
    double fabricWallMsMin = 0.0;
    double fabricWallMsMax = 0.0;
    std::uint64_t simCycles = 0;
    std::uint64_t backendSimCycles = 0; ///< Job cycle replay (0 = none).
    std::uint64_t jobSimCycles = 0;     ///< Job timing replay (0 = none).
    std::uint64_t jitTicks = 0;
    double nocHopBytes = 0.0;
    std::uint64_t checksum = 0;
    double speedup = 1.0;
    unsigned commands = 0; ///< Job command count after optimization.
    CmdStats cmd; ///< Command-optimizer counters (exec run + job pass).
    FabricStats fabric; ///< Per-command-kind breakdown (fabric backend).
    SimdIsa simdIsa = SimdIsa::Portable; ///< Resolved SIMD kernel table.
    int scheduleId = -1;       ///< Fat-binary pick (-1 = single schedule).
    unsigned scheduleCandidates = 0; ///< Candidates the dispatcher saw.
    std::vector<AblationRow> ablation; ///< Filled in --ablate mode.
};

/**
 * Apply the graph-level knobs to a freshly built workload. The config
 * knobs (cmdOpt, syncElision) apply in benchOne instead.
 */
void
applyKnobs(Workload &w, const Knobs &k)
{
    for (Phase &p : w.phases) {
        if (!k.memo)
            p.sameTdfgEachIter = false; // Defeat memoization: re-lower.
        if (k.egraph && p.buildTdfg) {
            auto build = p.buildTdfg;
            p.buildTdfg = [build](std::uint64_t it) {
                TdfgGraph g = build(it);
                TdfgOptimizer opt;
                if (auto res = opt.tryOptimize(g))
                    return std::move(res->graph);
                return g; // Saturation budget blown: keep the raw graph.
            };
        }
    }
}

/** Lower median of a non-empty sample (deterministic for even sizes). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Cap on lattice volume for the per-scenario job pass: bit-serial
 * simulation is O(volume x bits) per command, so paper-scale workloads
 * would take minutes on the fabric backend. Scenarios above the cap skip
 * the job pass (checksum falls back to the functional store hash). */
constexpr std::int64_t kJobVolumeCap = 1 << 18;

/**
 * One full measurement of a workload at a given thread count: one untimed
 * warmup iteration, then @p repeat timed iterations whose lower medians
 * (and min/max) populate the row. Simulated quantities and the checksum
 * are identical every iteration by construction — verified here.
 */
Row
benchOne(const BenchScenario &sc, bool quick, unsigned threads,
         unsigned repeat, ExecBackendKind backend, SimdIsa simd,
         const Knobs &knobs = {})
{
    // Full runtime behavior: preparation, JIT, Eq. 2 adaptivity all
    // included (assumeTransposed stays at the factory default).
    Workload w = quick ? sc.quick() : sc.full();
    applyKnobs(w, knobs);
    SystemConfig cfg = testSystemConfig();
    cfg.hostThreads = threads;
    cfg.simd = simd;
    cfg.cmdOpt = knobs.cmdOpt;
    cfg.cmdOptSyncElision = knobs.syncElision;

    Row row;
    row.name = sc.name;

    std::vector<double> execMs, backendMs, wallMs;
    for (unsigned r = 0; r <= repeat; ++r) {
        // Fresh system per iteration: persistent state (the JIT memo)
        // must not make later repeats cheaper than the first.
        InfinitySystem sys(cfg);
        auto t0 = std::chrono::steady_clock::now();
        ExecStats st = Executor(sys, Paradigm::InfS).run(w);
        const double exec_ms = msSince(t0);

        // Per-scenario job pass on the selected backend: the first
        // primary-layout phase lowered and executed on deterministic
        // inputs (bit-accurate when the backend produces bits).
        BackendResult br;
        double backend_ms = 0.0;
        auto job = planPrimaryJob(w, cfg, &sys.pool(), kJobVolumeCap);
        if (job) {
            auto bt0 = std::chrono::steady_clock::now();
            auto be = makeBackend(backend, cfg);
            be->setThreadPool(&sys.pool());
            br = be->runJob(*job);
            backend_ms = msSince(bt0);
        }

        if (r == 0) {
            // Warmup: record the deterministic quantities, discard time.
            row.simdIsa = st.simdIsa;
            row.scheduleId = st.scheduleId;
            row.scheduleCandidates = st.scheduleCandidates;
            row.simCycles = static_cast<std::uint64_t>(st.cycles);
            row.backendSimCycles =
                static_cast<std::uint64_t>(br.simCycles);
            row.jitTicks = static_cast<std::uint64_t>(st.jitCycles);
            for (double v : st.nocHopBytes)
                row.nocHopBytes += v;
            row.checksum = br.checksum;
            // Command-optimizer observability: the executor run's
            // counters plus the job program's own, and a command-level
            // cycle replay of the job (backend-independent, so the
            // cmdopt effect on the stream is visible even when the
            // executor routes the scenario off the fabric).
            row.cmd = sys.jit().stats().cmd;
            if (job) {
                row.cmd.accumulate(job->prog->opt);
                row.commands =
                    static_cast<unsigned>(job->prog->commands.size());
                row.jobSimCycles = static_cast<std::uint64_t>(
                    replayTiming(cfg, *job).simCycles);
            }
            continue;
        }
        if (br.checksum != row.checksum ||
            static_cast<std::uint64_t>(st.cycles) != row.simCycles ||
            static_cast<std::uint64_t>(br.simCycles) !=
                row.backendSimCycles) {
            std::fprintf(stderr,
                         "%s: non-deterministic repeat (checksum or "
                         "sim_cycles changed)\n",
                         sc.name);
            std::exit(1);
        }
        execMs.push_back(exec_ms);
        backendMs.push_back(backend_ms);
        wallMs.push_back(exec_ms + backend_ms);
        row.fabric = br.fabric;
    }

    row.execWallMs = median(execMs);
    row.fabricWallMs = median(backendMs);
    row.fabricWallMsMin =
        *std::min_element(backendMs.begin(), backendMs.end());
    row.fabricWallMsMax =
        *std::max_element(backendMs.begin(), backendMs.end());
    row.wallMs = median(wallMs);
    row.wallMsMin = *std::min_element(wallMs.begin(), wallMs.end());
    row.wallMsMax = *std::max_element(wallMs.begin(), wallMs.end());

    if (row.checksum == 0) {
        // No job pass covered this scenario (near-memory-only result,
        // untileable layout, over the volume cap, or a timing-only
        // backend): hash the executor's functional output arrays instead
        // so every scenario carries a deterministic signal. Untimed —
        // functional mode is not the measured path.
        InfinitySystem sys(cfg);
        ArrayStore store;
        Executor(sys, Paradigm::InfS).run(w, &store);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t id = 0; id < store.size(); ++id)
            for (float v : store.data(static_cast<ArrayId>(id)))
                h = fnv1aWord(h, std::bit_cast<std::uint32_t>(v));
        row.checksum = h;
    }
    return row;
}

void
writeCmdStats(std::FILE *f, const char *indent, const CmdStats &c,
              bool trailing_comma)
{
    std::fprintf(f,
                 "%s\"cmd_stats\": {\"fused_moves\": %u, "
                 "\"deduped_broadcasts\": %u, \"deduped_commands\": %u, "
                 "\"hoisted_masks\": %u, \"elided_syncs\": %u, "
                 "\"bailouts\": %u}%s\n",
                 indent, c.fusedMoves, c.dedupedBroadcasts,
                 c.dedupedCommands, c.hoistedMasks, c.elidedSyncs,
                 c.bailouts, trailing_comma ? "," : "");
}

void
writeJson(std::FILE *f, const std::vector<Row> &rows, bool quick,
          unsigned threads, unsigned repeat, ExecBackendKind backend,
          const Knobs &knobs)
{
    // Host-level dispatch fact: identical across rows (one process, one
    // resolved kernel table), so it lives at the top level.
    const SimdIsa isa =
        rows.empty() ? SimdIsa::Portable : rows.front().simdIsa;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"infs-bench-v5\",\n");
    std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
    std::fprintf(f, "  \"simd_isa\": \"%s\",\n", simdIsaName(isa));
    std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"repeat\": %u,\n", repeat);
    std::fprintf(f, "  \"cmdopt\": %s,\n",
                 knobs.cmdOpt ? "true" : "false");
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
        std::fprintf(f, "      \"wall_ms\": %.3f,\n", r.wallMs);
        std::fprintf(f, "      \"wall_ms_min\": %.3f,\n", r.wallMsMin);
        std::fprintf(f, "      \"wall_ms_max\": %.3f,\n", r.wallMsMax);
        std::fprintf(f, "      \"exec_wall_ms\": %.3f,\n", r.execWallMs);
        std::fprintf(f, "      \"fabric_wall_ms\": %.3f,\n",
                     r.fabricWallMs);
        std::fprintf(f, "      \"fabric_wall_ms_min\": %.3f,\n",
                     r.fabricWallMsMin);
        std::fprintf(f, "      \"fabric_wall_ms_max\": %.3f,\n",
                     r.fabricWallMsMax);
        std::fprintf(f, "      \"sim_cycles\": %llu,\n",
                     static_cast<unsigned long long>(r.simCycles));
        std::fprintf(f, "      \"backend_sim_cycles\": %llu,\n",
                     static_cast<unsigned long long>(r.backendSimCycles));
        std::fprintf(f, "      \"job_sim_cycles\": %llu,\n",
                     static_cast<unsigned long long>(r.jobSimCycles));
        std::fprintf(f, "      \"commands\": %u,\n", r.commands);
        std::fprintf(f, "      \"schedule_id\": %d,\n", r.scheduleId);
        std::fprintf(f, "      \"schedule_candidates\": %u,\n",
                     r.scheduleCandidates);
        writeCmdStats(f, "      ", r.cmd, true);
        std::fprintf(f, "      \"jit_ticks\": %llu,\n",
                     static_cast<unsigned long long>(r.jitTicks));
        std::fprintf(f, "      \"noc_hop_bytes\": %.1f,\n", r.nocHopBytes);
        std::fprintf(f, "      \"checksum\": \"0x%016llx\",\n",
                     static_cast<unsigned long long>(r.checksum));
        std::fprintf(f, "      \"fabric_breakdown\": {\n");
        for (std::size_t k = 0; k < r.fabric.byKind.size(); ++k) {
            std::fprintf(
                f, "        \"%s\": {\"count\": %llu, \"wall_ms\": %.3f},\n",
                cmdKindName(static_cast<CmdKind>(k)),
                static_cast<unsigned long long>(r.fabric.byKind[k].count),
                r.fabric.byKind[k].wallMs);
        }
        std::fprintf(f, "        \"mask_cache_hits\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.fabric.maskCacheHits));
        std::fprintf(f, "        \"mask_cache_misses\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.fabric.maskCacheMisses));
        std::fprintf(f, "        \"scratch_allocs\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.fabric.scratchAllocs));
        std::fprintf(f, "        \"bank_occupancy_imbalance\": %.4f\n",
                     r.fabric.occupancyImbalance());
        std::fprintf(f, "      },\n");
        if (!r.ablation.empty()) {
            std::fprintf(f, "      \"ablation\": [\n");
            for (std::size_t a = 0; a < r.ablation.size(); ++a) {
                const AblationRow &ab = r.ablation[a];
                std::fprintf(f, "        {\n");
                std::fprintf(f, "          \"variant\": \"%s\",\n",
                             ab.variant.c_str());
                std::fprintf(
                    f, "          \"sim_cycles\": %llu,\n",
                    static_cast<unsigned long long>(ab.simCycles));
                std::fprintf(
                    f, "          \"job_sim_cycles\": %llu,\n",
                    static_cast<unsigned long long>(ab.jobSimCycles));
                std::fprintf(
                    f, "          \"jit_ticks\": %llu,\n",
                    static_cast<unsigned long long>(ab.jitTicks));
                std::fprintf(f, "          \"commands\": %u,\n",
                             ab.commands);
                std::fprintf(
                    f, "          \"checksum\": \"0x%016llx\",\n",
                    static_cast<unsigned long long>(ab.checksum));
                writeCmdStats(f, "          ", ab.cmd, false);
                std::fprintf(f, "        }%s\n",
                             a + 1 < r.ablation.size() ? "," : "");
            }
            std::fprintf(f, "      ],\n");
        }
        std::fprintf(f, "      \"speedup_vs_1t\": %.3f\n", r.speedup);
        std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick|--full] [--backend fabric|functional|timing]\n"
        "       [--simd auto|portable|avx2] [--threads N]\n"
        "       [--repeat N] [--json out.json]\n"
        "       [--no-cmdopt] [--ablate] [--list-scenarios] "
        "[workload...]\n"
        "Benchmark the seed workloads; default --quick over the whole "
        "registry.\n"
        "--no-cmdopt disables the lowered-command optimizer "
        "(SystemConfig::cmdOpt).\n"
        "--ablate adds per-scenario rows for the optimization stack "
        "(cmdopt,\n"
        "  sync elision, JIT memoization off; e-graph on) to the JSON "
        "output.\n"
        "--backend selects the execution backend for the per-scenario job "
        "pass\n"
        "  (default fabric; functional is bit-identical and faster, "
        "timing is\n"
        "  cycles-only). Unknown scenario or backend names exit 2 before "
        "running.\n"
        "--simd pins the bitserial SIMD kernel table (default auto = "
        "detect;\n"
        "  every value is bit-identical).\n"
        "  Unknown values exit 2 before running.\n"
        "--threads 0 uses all hardware threads; simulated results are "
        "identical for any value.\n"
        "--repeat N (default 3) runs N timed iterations after one "
        "untimed warmup and reports medians plus min/max.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = true;
    unsigned threads = 0;
    unsigned repeat = 3;
    bool ablate = false;
    Knobs knobs;
    ExecBackendKind backend = ExecBackendKind::Fabric;
    SimdIsa simd = SimdIsa::Auto;
    std::string json_path;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--full") {
            quick = false;
        } else if (arg == "--no-cmdopt") {
            knobs.cmdOpt = false;
        } else if (arg == "--ablate") {
            ablate = true;
        } else if (arg == "--backend" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (!parseBackendName(name, backend)) {
                std::fprintf(stderr, "unknown backend '%s'\n",
                             name.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--simd" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (!parseSimdIsaName(name, simd)) {
                std::fprintf(stderr, "unknown simd isa '%s'\n",
                             name.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = static_cast<unsigned>(std::atoi(argv[++i]));
            if (repeat == 0)
                repeat = 1;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--list-scenarios" || arg == "--list") {
            for (const BenchScenario &sc : benchRegistry())
                std::printf("%s\n", sc.name);
            return 0;
        } else if (arg.rfind("-", 0) == 0) {
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }

    // Fail loudly BEFORE running anything: a typo'd scenario must not
    // silently bench nothing (CI would gate on an empty row set).
    for (const std::string &name : names) {
        if (findScenario(name) == nullptr) {
            std::fprintf(stderr,
                         "unknown scenario '%s'; --list-scenarios shows "
                         "the registry\n",
                         name.c_str());
            return usage(argv[0]);
        }
    }

    std::printf("backend: %s\n", backendName(backend));
    std::vector<Row> rows;
    for (const BenchScenario &sc : benchRegistry()) {
        if (!names.empty() &&
            std::find(names.begin(), names.end(), sc.name) == names.end())
            continue;
        Row row = benchOne(sc, quick, threads, repeat, backend, simd,
                           knobs);
        if (threads != 1) {
            // Wall-clock baseline for the speedup column; simulated
            // results are identical by construction.
            Row base =
                benchOne(sc, quick, 1, repeat, backend, simd, knobs);
            if (row.wallMs > 0.0)
                row.speedup = base.wallMs / row.wallMs;
        }
        if (ablate) {
            // The deterministic signals of each optimization-stack
            // variant, one untimed repeat each. "base" restates the main
            // row so a consumer can diff within the array alone.
            struct Variant {
                const char *name;
                Knobs k;
            };
            Knobs base = knobs;
            Knobs no_cmdopt = knobs, no_elision = knobs, no_memo = knobs,
                  egraph_on = knobs;
            no_cmdopt.cmdOpt = false;
            no_elision.syncElision = false;
            no_memo.memo = false;
            egraph_on.egraph = true;
            const Variant variants[] = {{"base", base},
                                        {"cmdopt_off", no_cmdopt},
                                        {"sync_elision_off", no_elision},
                                        {"memo_off", no_memo},
                                        {"egraph_on", egraph_on}};
            for (const Variant &v : variants) {
                Row r =
                    benchOne(sc, quick, threads, 1, backend, simd, v.k);
                AblationRow ab;
                ab.variant = v.name;
                ab.simCycles = r.simCycles;
                ab.jobSimCycles = r.jobSimCycles;
                ab.jitTicks = r.jitTicks;
                ab.checksum = r.checksum;
                ab.commands = r.commands;
                ab.cmd = r.cmd;
                row.ablation.push_back(std::move(ab));
            }
        }
        std::printf("%-18s wall %8.2f ms  (exec %7.2f + backend %7.2f)  "
                    "cycles %12llu  jit %8llu  speedup %5.2fx\n",
                    row.name.c_str(), row.wallMs, row.execWallMs,
                    row.fabricWallMs,
                    static_cast<unsigned long long>(row.simCycles),
                    static_cast<unsigned long long>(row.jitTicks),
                    row.speedup);
        rows.push_back(std::move(row));
    }

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         json_path.c_str());
            return 2;
        }
        writeJson(f, rows, quick, threads, repeat, backend, knobs);
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
