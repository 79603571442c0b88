/**
 * @file
 * infs-perfbench: the end-to-end benchmark harness. It drives the public
 * simulator API from outside — registry factories, Executor::run,
 * planPrimaryJob, BitAccurateFabric and replayTiming — and times each
 * call, so host time can be attributed to layers without instrumenting
 * the library.
 *
 * A round runs every scenario of the workload once, in order. Each
 * scenario gets a fresh InfinitySystem (the JIT memo must not carry over)
 * and goes through: factory, Executor(Base), Executor(InfS),
 * planPrimaryJob, then the job pass — stage, execute, readback and
 * replay on the bit-accurate fabric, or the replay alone in the
 * cycles-only mode.
 *
 * The harness writes its raw observations — per-pass times, spans,
 * simulated statistics and check verdicts — as one JSON file. The
 * statistics, the golden-record comparison and the metric report live
 * in run.py next to this file.
 *
 * usage: infs-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                       --out FILE
 * With --seconds 0 the harness stops after set-up and writes only the
 * set-up time. Exit status: 0 after a complete run, 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hh"
#include "core/executor.hh"
#include "uarch/bit_exec.hh"
#include "uarch/system.hh"
#include "workloads/registry.hh"

namespace {

using namespace infs;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

/** Job volume cap, the same as infs-bench's. */
constexpr std::int64_t kJobVolumeCap = 1 << 18;

/** Relative tolerance of the interpreter-vs-reference check (the one
 * tests/workloads/test_functional.cc applies). */
constexpr double kReferenceTol = 1e-3;

/** How the job pass runs for a workload. */
enum class JobPass { Fabric, Replay };

struct WorkloadDef {
    const char *name;
    std::vector<const char *> scenarios;
    JobPass pass;
    bool assumeTransposed; ///< Fig 2 steady-state mode.
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"fabric_staging",
         {"pointnet_ssg", "pointnet_msg", "vec_add", "gauss_elim"},
         JobPass::Fabric,
         false},
        {"fabric_compute",
         {"stencil2d", "stencil3d", "dwt2d"},
         JobPass::Fabric,
         false},
        {"steady_state_timing",
         {"array_sum", "gauss_elim", "stencil3d", "conv2d", "conv3d",
          "pointnet_msg"},
         JobPass::Replay,
         true},
    };
    return defs;
}

double
msSinceStart(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(t - kProcessStart)
        .count();
}

double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
}

/** One recorded span; times are milliseconds since process start. */
struct Span {
    int id = 0;
    int parent = -1;
    const char *name = "";
    int scenario = -1;
    int round = -1;
    double start = 0.0;
    double end = 0.0;
    double cpuMs = 0.0; ///< Process CPU time spent during the span.
};

/**
 * In-memory span recorder. When off, spans cost nothing beyond the
 * branch; when on, each span takes two clock reads on each of the wall
 * and CPU clocks, and the buffer is written once at the end of the run.
 */
class Tracer
{
  public:
    bool on = false;
    std::vector<Span> spans;

    int
    begin(const char *name, int parent, int scenario, int round)
    {
        if (!on)
            return -1;
        Span s;
        s.id = static_cast<int>(spans.size());
        s.parent = parent;
        s.name = name;
        s.scenario = scenario;
        s.round = round;
        s.cpuMs = processCpuMs();
        s.start = msSinceStart(Clock::now());
        spans.push_back(s);
        return s.id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        Span &s = spans[static_cast<std::size_t>(id)];
        s.end = msSinceStart(Clock::now());
        s.cpuMs = processCpuMs() - s.cpuMs;
    }
};

/** RAII span for one step of a scenario. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, int parent, int scenario, int round)
        : t_(t), id_(t.begin(name, parent, scenario, round))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Everything one scenario pass produces that must be deterministic. */
struct ScenarioResult {
    std::uint64_t baseCycles = 0;
    std::uint64_t infsCycles = 0;
    std::uint64_t inMemOps = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t regionsDegraded = 0;
    std::uint64_t lowerings = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t jitTicks = 0;
    CmdStats cmd; ///< Executor lowerings plus the job program.
    bool hasJob = false;
    unsigned commands = 0;
    std::uint64_t checksum = 0; ///< Job outputs (fabric pass only).
    std::uint64_t replayCycles = 0;
    FabricStats fabric; ///< Host counters of the fabric pass.

    /** Simulated statistics and bits; host counters excluded. */
    bool
    sameSimulation(const ScenarioResult &o) const
    {
        const auto kinds = [](const FabricStats &f) {
            std::array<std::uint64_t, 6> c{};
            for (std::size_t k = 0; k < c.size(); ++k)
                c[k] = f.byKind[k].count;
            return c;
        };
        return baseCycles == o.baseCycles && infsCycles == o.infsCycles &&
               inMemOps == o.inMemOps && totalOps == o.totalOps &&
               regionsDegraded == o.regionsDegraded &&
               lowerings == o.lowerings && memoHits == o.memoHits &&
               jitTicks == o.jitTicks &&
               cmd.fusedMoves == o.cmd.fusedMoves &&
               cmd.dedupedBroadcasts == o.cmd.dedupedBroadcasts &&
               cmd.dedupedCommands == o.cmd.dedupedCommands &&
               cmd.hoistedMasks == o.cmd.hoistedMasks &&
               cmd.elidedSyncs == o.cmd.elidedSyncs &&
               cmd.bailouts == o.cmd.bailouts && hasJob == o.hasJob &&
               commands == o.commands && checksum == o.checksum &&
               replayCycles == o.replayCycles &&
               kinds(fabric) == kinds(o.fabric);
    }
};

/** Input-stream seed base: seed 0 reproduces seedJobInputs exactly; any
 * other seed gives held-out inputs. */
std::uint64_t
inputSeedBase(std::uint64_t seed)
{
    return kJobInputSeedBase + seed * 0x9e3779b97f4a7c15ull;
}

/** seedJobInputs with a selectable seed base. */
void
loadJobInputs(BitAccurateFabric &fab, const BackendJob &job,
              std::uint64_t seed)
{
    const auto vol = static_cast<std::size_t>(job.volume);
    std::vector<float> data(vol);
    for (const auto &[id, wl] : job.prog->arraySlots) {
        Rng rng(static_cast<std::uint64_t>(id) + inputSeedBase(seed));
        for (auto &v : data)
            v = rng.nextFloat(-4, 4);
        fab.loadArray(data, wl);
    }
}

struct Harness {
    const WorkloadDef &def;
    SystemConfig cfg;
    std::uint64_t seed = 0;
    Tracer tracer;

    Workload
    make(const char *scenario) const
    {
        Workload w = findScenario(scenario)->full();
        w.assumeTransposed = def.assumeTransposed;
        return w;
    }

    /**
     * The job pass on @p job: the bit-accurate fabric stages, executes
     * and reads back (fabric mode), then the cycle replay. Returns the
     * fabric so the caller frees it inside its teardown span.
     */
    std::unique_ptr<BitAccurateFabric>
    jobPass(const BackendJob &job, ThreadPool *pool, std::uint64_t inputs,
            ScenarioResult &r, int parent, int s, int round)
    {
        std::unique_ptr<BitAccurateFabric> fab;
        if (def.pass == JobPass::Fabric) {
            {
                Scope sp(tracer, "uarch.fabric.stage", parent, s, round);
                fab = std::make_unique<BitAccurateFabric>(
                    job.layout, cfg.l3.wordlines, cfg.l3.bitlines);
                fab->setThreadPool(pool);
                loadJobInputs(*fab, job, inputs);
            }
            {
                Scope sp(tracer, "uarch.fabric.execute", parent, s, round);
                fab->execute(*job.prog);
            }
            {
                Scope sp(tracer, "uarch.fabric.readback", parent, s, round);
                r.checksum = checksumJobOutputs(*fab, job);
            }
            r.fabric = fab->stats();
        }
        Scope sp(tracer, "uarch.replay", parent, s, round);
        r.replayCycles = static_cast<std::uint64_t>(
            replayTiming(cfg, job, pool).simCycles);
        return fab;
    }

    ScenarioResult
    scenario(int s, int round, int parent)
    {
        ScenarioResult r;
        const char *name = def.scenarios[static_cast<std::size_t>(s)];
        std::optional<Workload> w;
        {
            Scope sp(tracer, "workloads.make", parent, s, round);
            w.emplace(make(name));
        }
        std::unique_ptr<InfinitySystem> sys;
        {
            Scope sp(tracer, "uarch.system", parent, s, round);
            sys = std::make_unique<InfinitySystem>(cfg);
        }
        {
            Scope sp(tracer, "core.executor.base", parent, s, round);
            ExecStats st = Executor(*sys, Paradigm::Base).run(*w);
            r.baseCycles = static_cast<std::uint64_t>(st.cycles);
        }
        {
            Scope sp(tracer, "core.executor.infs", parent, s, round);
            ExecStats st = Executor(*sys, Paradigm::InfS).run(*w);
            r.infsCycles = static_cast<std::uint64_t>(st.cycles);
            r.inMemOps = st.inMemOps;
            r.totalOps = st.totalOps;
            r.regionsDegraded = st.regionsDegraded;
        }
        const JitStats &js = sys->jit().stats();
        r.lowerings = js.lowerings;
        r.memoHits = js.memoHits;
        r.jitTicks = static_cast<std::uint64_t>(js.totalJitTicks);
        r.cmd = js.cmd;
        std::optional<BackendJob> job;
        std::unique_ptr<BitAccurateFabric> fab;
        {
            Scope sp(tracer, "core.plan", parent, s, round);
            job = planPrimaryJob(*w, cfg, &sys->pool(), kJobVolumeCap);
        }
        if (job) {
            r.hasJob = true;
            r.commands = static_cast<unsigned>(job->prog->commands.size());
            r.cmd.accumulate(job->prog->opt);
            fab = jobPass(*job, &sys->pool(), seed, r, parent, s, round);
        }
        Scope sp(tracer, "bench.teardown", parent, s, round);
        fab.reset();
        job.reset();
        sys.reset();
        w.reset();
        return r;
    }

    /** One round: every scenario once, in order. */
    std::vector<ScenarioResult>
    round(int id, double *ms)
    {
        const auto t0 = Clock::now();
        const int root = tracer.begin("round", -1, -1, id);
        std::vector<ScenarioResult> out;
        for (std::size_t s = 0; s < def.scenarios.size(); ++s)
            out.push_back(scenario(static_cast<int>(s), id, root));
        tracer.end(root);
        *ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
        return out;
    }
};

/** Verdicts of the once-per-run checks of one scenario. */
struct Checks {
    bool referenceOk = false;
    double referenceMaxErr = 0.0; ///< Worst error in tolerance units.
    std::string referenceNote;
    bool hasJob = false;
    std::uint64_t checksum = 0;     ///< Composed pass, seed 0 inputs.
    std::uint64_t replayCycles = 0; ///< Composed pass replay.
    std::uint64_t fabricChecksum = 0, functionalChecksum = 0;
    std::uint64_t fabricCycles = 0, timingCycles = 0;
};

/** Interpreter output vs the workload's scalar reference, element-wise
 * within kReferenceTol * max(1, |ref|). */
void
checkReference(const Harness &h, const char *name, Checks &c)
{
    Workload w = h.make(name);
    if (!w.reference) {
        // Nothing to compare against (the PointNet++ stages): the check
        // does not apply, and the interpreter run is skipped.
        c.referenceOk = true;
        c.referenceNote = "no reference";
        return;
    }
    InfinitySystem sys(h.cfg);
    ArrayStore got;
    Executor(sys, Paradigm::InfS).run(w, &got);
    ArrayStore want;
    w.setup(want);
    w.reference(want);
    if (got.size() != want.size()) {
        c.referenceNote = "array count differs";
        return;
    }
    double worst = 0.0;
    for (ArrayId a = 0; a < static_cast<ArrayId>(got.size()); ++a) {
        const auto &ga = got.array(a);
        const auto &wa = want.array(a);
        // Hardware staging buffers have no reference counterpart.
        if (ga.name == "WSlice" || ga.name == "OSlice")
            continue;
        if (ga.data.size() != wa.data.size()) {
            c.referenceNote = "size of " + ga.name + " differs";
            return;
        }
        for (std::size_t i = 0; i < ga.data.size(); ++i) {
            const double scale =
                std::max(1.0, std::abs(static_cast<double>(wa.data[i])));
            const double err =
                std::abs(static_cast<double>(ga.data[i]) - wa.data[i]) /
                (kReferenceTol * scale);
            // NaN compares false: count it as out of tolerance.
            if (!(err <= worst))
                worst = std::isnan(err) ? INFINITY : err;
        }
    }
    c.referenceMaxErr = worst;
    c.referenceOk = worst <= 1.0;
}

/** The composed job pass at seed 0 against the three backends' runJob. */
void
checkBackends(Harness &h, const char *name, Checks &c)
{
    Workload w = h.make(name);
    InfinitySystem sys(h.cfg);
    auto job = planPrimaryJob(w, h.cfg, &sys.pool(), kJobVolumeCap);
    if (!job)
        return;
    c.hasJob = true;
    ScenarioResult r;
    h.jobPass(*job, &sys.pool(), 0, r, -1, -1, -1);
    c.checksum = r.checksum;
    c.replayCycles = r.replayCycles;
    const auto run = [&](ExecBackendKind k) {
        auto be = makeBackend(k, h.cfg);
        be->setThreadPool(&sys.pool());
        return be->runJob(*job);
    };
    const BackendResult fab = run(ExecBackendKind::Fabric);
    const BackendResult fun = run(ExecBackendKind::Functional);
    const BackendResult tim = run(ExecBackendKind::Timing);
    c.fabricChecksum = fab.checksum;
    c.fabricCycles = static_cast<std::uint64_t>(fab.simCycles);
    c.functionalChecksum = fun.checksum;
    c.timingCycles = static_cast<std::uint64_t>(tim.simCycles);
}

void
writeHex(std::FILE *f, const char *key, std::uint64_t v, const char *sep)
{
    std::fprintf(f, "\"%s\": \"0x%016llx\"%s", key,
                 static_cast<unsigned long long>(v), sep);
}

void
writeU(std::FILE *f, const char *key, std::uint64_t v, const char *sep)
{
    std::fprintf(f, "\"%s\": %llu%s", key,
                 static_cast<unsigned long long>(v), sep);
}

void
writeScenario(std::FILE *f, const char *name, const ScenarioResult &r,
              unsigned mismatched, const Checks &c)
{
    std::fprintf(f, "    {\"name\": \"%s\", ", name);
    writeU(f, "base_cycles", r.baseCycles, ", ");
    writeU(f, "sim_cycles", r.infsCycles, ", ");
    writeU(f, "in_mem_ops", r.inMemOps, ", ");
    writeU(f, "total_ops", r.totalOps, ", ");
    writeU(f, "regions_degraded", r.regionsDegraded, ", ");
    writeU(f, "lowerings", r.lowerings, ", ");
    writeU(f, "memo_hits", r.memoHits, ", ");
    writeU(f, "jit_ticks", r.jitTicks, ", ");
    std::fprintf(f,
                 "\"cmd\": {\"fused_moves\": %u, \"deduped_broadcasts\": "
                 "%u, \"deduped_commands\": %u, \"hoisted_masks\": %u, "
                 "\"elided_syncs\": %u, \"bailouts\": %u}, ",
                 r.cmd.fusedMoves, r.cmd.dedupedBroadcasts,
                 r.cmd.dedupedCommands, r.cmd.hoistedMasks,
                 r.cmd.elidedSyncs, r.cmd.bailouts);
    std::fprintf(f, "\"has_job\": %s, ", r.hasJob ? "true" : "false");
    writeU(f, "commands", r.commands, ", ");
    writeHex(f, "checksum", r.checksum, ", ");
    writeU(f, "replay_cycles", r.replayCycles, ", ");
    std::fprintf(f, "\"fabric_kinds\": {");
    for (std::size_t k = 0; k < r.fabric.byKind.size(); ++k)
        std::fprintf(f, "\"%s\": %llu%s",
                     cmdKindName(static_cast<CmdKind>(k)),
                     static_cast<unsigned long long>(
                         r.fabric.byKind[k].count),
                     k + 1 < r.fabric.byKind.size() ? ", " : "}, ");
    writeU(f, "mask_cache_hits", r.fabric.maskCacheHits, ", ");
    writeU(f, "mask_cache_misses", r.fabric.maskCacheMisses, ", ");
    writeU(f, "scratch_allocs", r.fabric.scratchAllocs, ", ");
    std::fprintf(f, "\"bank_occupancy_imbalance\": %.17g, ",
                 r.fabric.occupancyImbalance());
    writeU(f, "mismatched_rounds", mismatched, ", ");
    std::fprintf(f, "\"checks\": {\"reference_ok\": %s, "
                    "\"reference_max_err\": %.17g, "
                    "\"reference_note\": \"%s\", \"has_job\": %s, ",
                 c.referenceOk ? "true" : "false",
                 std::isfinite(c.referenceMaxErr) ? c.referenceMaxErr
                                                  : 1e300,
                 c.referenceNote.c_str(), c.hasJob ? "true" : "false");
    writeHex(f, "checksum", c.checksum, ", ");
    writeU(f, "replay_cycles", c.replayCycles, ", ");
    writeHex(f, "fabric_checksum", c.fabricChecksum, ", ");
    writeHex(f, "functional_checksum", c.functionalChecksum, ", ");
    writeU(f, "fabric_cycles", c.fabricCycles, ", ");
    writeU(f, "timing_cycles", c.timingCycles, "}}");
}

/** Host counters of one round, summed over its scenarios. */
void
writeRoundCounters(std::FILE *f, const std::vector<ScenarioResult> &rs)
{
    std::array<double, 6> ms{};
    for (const ScenarioResult &r : rs)
        for (std::size_t k = 0; k < ms.size(); ++k)
            ms[k] += r.fabric.byKind[k].wallMs;
    std::fprintf(f, "{");
    for (std::size_t k = 0; k < ms.size(); ++k)
        std::fprintf(f, "\"%s\": %.6f%s",
                     cmdKindName(static_cast<CmdKind>(k)), ms[k],
                     k + 1 < ms.size() ? ", " : "}");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: infs-perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out FILE\n"
                 "workloads:");
    for (const WorkloadDef &d : workloadDefs())
        std::fprintf(stderr, " %s", d.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_path;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char *val = argv[i + 1];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else if (arg == "--out")
            out_path = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || out_path.empty() || seconds < 0.0 ||
        (trace != 0 && trace != 1))
        return usage();
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (workload == d.name)
            def = &d;
    if (def == nullptr)
        return usage();

    Harness h{*def, testSystemConfig(), seed, {}};
    h.cfg.hostThreads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

    // Set-up: from process start through one untimed warm-up round.
    double warm_ms = 0.0;
    const std::vector<ScenarioResult> warm = h.round(-1, &warm_ms);
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - kProcessStart).count();
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    if (seconds == 0.0) {
        std::fprintf(f, "{\"setup_s\": %.6f}\n", setup_s);
        std::fclose(f);
        return 0;
    }

    // Timed rounds. The traced run alternates untraced and traced rounds
    // so the tracing overhead is measured under the same conditions.
    std::vector<double> rounds_ms, traced_ms;
    std::vector<std::vector<ScenarioResult>> traced_results;
    // Timed rounds whose simulation differs from the warm-up round's.
    std::vector<unsigned> mismatched(def->scenarios.size(), 0);
    const auto t_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    // At least one round of each kind, however short the window.
    for (int id = 0; Clock::now() < t_end || rounds_ms.empty() ||
                     (trace == 1 && traced_ms.empty());
         ++id) {
        h.tracer.on = trace == 1 && id % 2 == 1;
        double ms = 0.0;
        std::vector<ScenarioResult> rs = h.round(id, &ms);
        for (std::size_t s = 0; s < rs.size(); ++s)
            if (!rs[s].sameSimulation(warm[s]))
                ++mismatched[s];
        if (h.tracer.on) {
            traced_ms.push_back(ms);
            traced_results.push_back(std::move(rs));
        } else {
            rounds_ms.push_back(ms);
        }
    }
    h.tracer.on = false;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = ru.ru_maxrss / 1024.0;

    // Once-per-run output checks (untimed).
    std::vector<Checks> checks(def->scenarios.size());
    for (std::size_t s = 0; s < def->scenarios.size(); ++s) {
        checkReference(h, def->scenarios[s], checks[s]);
        checkBackends(h, def->scenarios[s], checks[s]);
    }

    std::fprintf(f, "{\n  \"workload\": \"%s\",\n", def->name);
    std::fprintf(f, "  \"job_pass\": \"%s\",\n",
                 def->pass == JobPass::Fabric ? "fabric" : "replay");
    std::fprintf(f, "  \"assume_transposed\": %s,\n",
                 def->assumeTransposed ? "true" : "false");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"host_threads\": %u,\n", h.cfg.hostThreads);
    std::fprintf(f, "  \"peak_rss_mb\": %.6f,\n", peak_rss_mb);
    std::fprintf(f, "  \"setup_s\": %.6f,\n", setup_s);
    const auto list = [&](const char *key, const std::vector<double> &v) {
        std::fprintf(f, "  \"%s\": [", key);
        for (std::size_t i = 0; i < v.size(); ++i)
            std::fprintf(f, "%.6f%s", v[i], i + 1 < v.size() ? ", " : "");
        std::fprintf(f, "],\n");
    };
    list("rounds_ms", rounds_ms);
    list("traced_rounds_ms", traced_ms);
    std::fprintf(f, "  \"traced_kind_ms\": [");
    for (std::size_t i = 0; i < traced_results.size(); ++i) {
        writeRoundCounters(f, traced_results[i]);
        std::fprintf(f, "%s", i + 1 < traced_results.size() ? ", " : "");
    }
    std::fprintf(f, "],\n  \"spans\": [\n");
    for (std::size_t i = 0; i < h.tracer.spans.size(); ++i) {
        const Span &sp = h.tracer.spans[i];
        std::fprintf(f,
                     "    {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                     "\"scenario\": %d, \"round\": %d, \"start\": %.6f, "
                     "\"end\": %.6f, \"cpu_ms\": %.6f}%s\n",
                     sp.id, sp.parent, sp.name, sp.scenario, sp.round,
                     sp.start, sp.end, sp.cpuMs,
                     i + 1 < h.tracer.spans.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scenarios\": [\n");
    for (std::size_t s = 0; s < def->scenarios.size(); ++s) {
        writeScenario(f, def->scenarios[s], warm[s], mismatched[s],
                      checks[s]);
        std::fprintf(f, "%s\n", s + 1 < def->scenarios.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return 0;
}
