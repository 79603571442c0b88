/**
 * @file
 * Execution backends: the tools run each scenario's lowered primary job
 * through one ExecBackend, picked with their --backend option.
 *
 * Three implementations are registered (DESIGN.md §12):
 *  - fabric:     the bit-accurate SRAM fabric plus the cycle replay —
 *                ground truth for both bits and time;
 *  - functional: a word-level replay of the same lowered command stream
 *                (one float per lattice cell per slot) — bit-identical
 *                checksums without bit-serial simulation;
 *  - timing:     the cycle replay alone — sim_cycles/NoC/energy without
 *                touching bits.
 *
 * The fidelity contract is certified continuously by
 * tests/core/test_backend_diff.cc: functional checksums byte-identical to
 * fabric, timing sim_cycles exactly equal to fabric's.
 */

#ifndef INFS_CORE_BACKEND_HH
#define INFS_CORE_BACKEND_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/workload.hh"
#include "jit/jit.hh"
#include "jit/tiling.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "tdfg/array_store.hh"
#include "uarch/bit_exec.hh"

namespace infs {

/** One planned in-memory job: a lowered program and its layout. */
struct BackendJob {
    TiledLayout layout;
    std::shared_ptr<const InMemProgram> prog;
    std::int64_t volume = 0; ///< Lattice volume (elements per slot).
};

/** What a backend produced for one job. */
struct BackendResult {
    /** FNV-1a over the output slots' full-lattice bit patterns; only
     * meaningful when bitAccurate is set. */
    std::uint64_t checksum = 0;
    bool bitAccurate = false; ///< Checksum certified identical to fabric.

    Tick simCycles = 0;       ///< Cycle-replay makespan (hasTiming only).
    double nocHopBytes = 0.0; ///< Replay NoC traffic (bytes x hops).
    double energyJoules = 0.0;
    bool hasTiming = false;

    FabricStats fabric; ///< Per-command-kind breakdown (fabric only).
};

/**
 * One execution backend. Stateless across jobs: runJob builds whatever
 * per-job machinery it needs (fabric tiles, replay models) so repeated
 * calls are independent and deterministic.
 */
class ExecBackend
{
  public:
    explicit ExecBackend(const SystemConfig &cfg) : cfg_(cfg) {}
    virtual ~ExecBackend() = default;

    virtual ExecBackendKind kind() const = 0;

    /** Execute @p job on deterministic inputs (seedJobInputs). */
    virtual BackendResult runJob(const BackendJob &job) = 0;

    /** Host thread pool for bank-parallel sections (nullptr = inline);
     * results are bit-identical for any pool. */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

  protected:
    SystemConfig cfg_;
    ThreadPool *pool_ = nullptr;
};

/** Construct the registered backend implementation for @p kind. */
std::unique_ptr<ExecBackend> makeBackend(ExecBackendKind kind,
                                         const SystemConfig &cfg);

/**
 * Workload-level functional co-simulation on an ArrayStore through the
 * tDFG interpreter. This is semantics-only — reduction order may differ
 * from the lowered tree reductions, so its results are reference values,
 * not fabric bit patterns.
 */
void runWorkloadFunctional(const Workload &w, ArrayStore &store);

/**
 * The inputs of a region's §4.1 layout choice: each tensor phase's
 * first-iteration graph, built exactly once (a build may run a full
 * e-graph saturation), and the layout hints merged over all of them.
 */
struct RegionPlan {
    /** Index-aligned with Workload::phases; empty for phases without a
     * tDFG. */
    std::vector<std::optional<TdfgGraph>> graphs;
    LayoutHints hints;
    bool hasTdfg = false; ///< Some phase has a tDFG.
};

/** Build @p w's region plan (the one place hints are merged). */
RegionPlan planRegion(const Workload &w);

/**
 * Plan the canonical per-scenario job (shared by infs-bench, infs-verify,
 * and the differential tests): choose the primary layout from all tensor
 * phases' hints (§4.1) and lower the first primary-layout phase.
 * Scenarios whose lattice exceeds @p volume_cap, or with no lowerable
 * primary-layout phase, plan nothing (nullopt).
 */
std::optional<BackendJob> planPrimaryJob(const Workload &w,
                                         const SystemConfig &cfg,
                                         ThreadPool *pool,
                                         std::int64_t volume_cap);

/** Cycle replay of a lowered program on private system models (fault
 * injection off): the timing half shared by the fabric and timing
 * backends, reusing latency.hh via the tensor controller. The replay is
 * sequential; the pool argument is accepted and ignored. */
struct TimingReplayResult {
    Tick simCycles = 0;
    double nocHopBytes = 0.0;
    double energyJoules = 0.0;
};
TimingReplayResult replayTiming(const SystemConfig &cfg,
                                const BackendJob &job,
                                ThreadPool *pool = nullptr);

/**
 * One fat-binary schedule candidate: a lowered program for one candidate
 * tile layout plus its predicted cycle-replay makespan (DESIGN.md §14).
 */
struct ScheduleCandidate {
    TiledLayout layout;
    std::shared_ptr<const InMemProgram> prog;
    Tick replayCycles = 0;
};

/**
 * Dispatch-time fat-binary selection (DESIGN.md §14): pick the candidate
 * minimizing the Eq. 2-style cost
 *
 *     cost_c = R_c * (1 + beta * I * (G / g_c - 1))
 *
 * where R_c is the candidate's replayed makespan, I the observed bank
 * occupancy imbalance (FabricStats::occupancyImbalance — a deterministic
 * function of the command stream, never wall time), g_c the candidate's
 * tile count and G the largest tile count in the set: under imbalance,
 * schedules that spread work over more tiles are favored. Ties resolve to
 * the lowest index (the tiling policy's preference order), so selection
 * is a pure function of (candidates, observed). Asserts on an empty set.
 */
unsigned chooseSchedule(const std::vector<ScheduleCandidate> &candidates,
                        const FabricStats &observed);

/** FNV-1a over one 32-bit word, byte by byte (the bench checksum). */
inline std::uint64_t
fnv1aWord(std::uint64_t h, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Seed of the deterministic per-array job inputs. */
constexpr std::uint64_t kJobInputSeedBase = 101;

/**
 * Load deterministic inputs into every program array slot of a fabric-like
 * target (anything with loadArray(span<const float>, unsigned)); the same
 * streams for every backend, so checksums are comparable.
 */
template <class Fab>
void
seedJobInputs(Fab &fab, const BackendJob &job)
{
    std::vector<float> data(static_cast<std::size_t>(job.volume));
    for (const auto &[id, wl] : job.prog->arraySlots) {
        Rng rng(static_cast<std::uint64_t>(id) + kJobInputSeedBase);
        for (auto &v : data)
            v = rng.nextFloat(-4, 4);
        fab.loadArray(data, wl);
    }
}

/** FNV-1a over the full lattice of every output slot, in slot order —
 * the quantity the differential tests pin across backends. storeArray may
 * read back tile-parallel; the hash itself stays one sequential pass in
 * slot and lattice order, so the value never depends on the pool size. */
template <class Fab>
std::uint64_t
checksumJobOutputs(const Fab &fab, const BackendJob &job)
{
    const auto vol = static_cast<std::size_t>(job.volume);
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<float> out(vol);
    for (const auto &[id, wl] : job.prog->outputSlots) {
        fab.storeArray(out, wl);
        for (float v : out)
            h = fnv1aWord(h, std::bit_cast<std::uint32_t>(v));
    }
    return h;
}

} // namespace infs

#endif // INFS_CORE_BACKEND_HH
