/**
 * @file
 * Paradigm executors: run a Workload under Base / Near-L3 / In-L3 /
 * Inf-S, co-simulating function (optional, via the tDFG interpreter) and
 * timing (always, via the system models). The cycle breakdown mirrors
 * Fig 14's categories.
 */

#ifndef INFS_CORE_EXECUTOR_HH
#define INFS_CORE_EXECUTOR_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hh"
#include "core/workload.hh"
#include "sim/expected.hh"
#include "uarch/system.hh"

namespace infs {

/** Aggregate execution statistics for one workload run. */
struct ExecStats {
    Tick cycles = 0;

    // Fig 14 cycle breakdown.
    Tick dramCycles = 0;        ///< Fetch + transpose from/to DRAM.
    Tick jitCycles = 0;         ///< tDFG lowering (JIT Lower).
    Tick moveCycles = 0;        ///< Tensor moves (shift/broadcast).
    Tick computeCycles = 0;     ///< Bit-serial in-memory compute.
    Tick finalReduceCycles = 0; ///< Near-memory final reductions.
    Tick mixCycles = 0;         ///< Hybrid in-/near-memory overlap.
    Tick nearMemCycles = 0;     ///< Pure near-memory phases.
    Tick coreCycles = 0;        ///< In-core execution.
    Tick syncCycles = 0;        ///< In-memory barriers.

    // Traffic (bytes x hops per Fig 12/13 class) and utilization.
    std::array<double, numTrafficClasses> nocHopBytes{};
    double nocUtilization = 0.0;
    double intraTileBytes = 0.0;
    double interTileBytes = 0.0;
    double interTileNocBytes = 0.0;

    // Ops accounting (Fig 14 dots: fraction of ops executed in-memory).
    std::uint64_t totalOps = 0;
    std::uint64_t inMemOps = 0;

    double energyJoules = 0.0;
    Bytes dramBytes = 0;

    // Robustness accounting (fault injection + graceful degradation).
    std::uint64_t faultsInjected = 0; ///< Faults the injector produced.
    std::uint64_t faultsDetected = 0; ///< Caught by parity/ECC/CRC.
    std::uint64_t faultRetries = 0;   ///< Bounded re-issues performed.
    Tick retryCycles = 0;             ///< Detection + retry time modeled.
    /** Regions that could not run in memory (lowering failure or fault
     * persisting past the retry budget) and fell back In-L3 -> Near-L3 ->
     * core. Excludes the pre-existing Eq. 2 / untileable fallbacks. */
    std::uint64_t regionsDegraded = 0;

    /** Per-phase makespan in phase order (drives the Fig 19 timeline). */
    std::vector<std::pair<std::string, Tick>> phaseCycles;

    /** Tile size the runtime chose for the primary layout (in-memory
     * paradigms only). */
    std::vector<Coord> chosenTile;

    // Dispatch provenance (bench schema v5, DESIGN.md §14).
    /** SIMD kernel table the bitserial layer ran with. */
    SimdIsa simdIsa = SimdIsa::Portable;
    /** Fat-binary candidate the dispatcher picked for the primary layout
     * (index into the tiling policy's candidate list); -1 when only one
     * schedule was lowered. */
    int scheduleId = -1;
    /** Candidate schedules lowered for the primary layout. */
    unsigned scheduleCandidates = 0;

    /** Fraction of element ops executed in bitlines. */
    double
    inMemOpFraction() const
    {
        return totalOps ? static_cast<double>(inMemOps) / totalOps : 0.0;
    }
};

/** Runs workloads under a chosen paradigm. */
class Executor
{
  public:
    Executor(InfinitySystem &sys, Paradigm paradigm)
        : sys_(sys), paradigm_(paradigm) {}

    /**
     * Execute @p w. When @p store is non-null the tDFG interpreter also
     * computes the functional result into the store (validated against
     * the workload's scalar reference in tests).
     * Stats in the system (traffic/energy) are reset at entry.
     */
    ExecStats run(const Workload &w, ArrayStore *store = nullptr);

    Paradigm paradigm() const { return paradigm_; }

  private:
    /** Base (@p near false) and Near-L3 (@p near true): the cold DRAM
     * fetch, then every phase through runFallback. */
    void runOutsideMemory(const Workload &w, ExecStats &st, bool near,
                          unsigned threads);
    void runInMemory(const Workload &w, ExecStats &st, bool fused,
                     bool jit_enabled);
    /** In-core cost of one phase iteration; traffic and energy are
     * charged for all @p iters at once. */
    Tick corePhaseCycles(const Phase &p, unsigned threads,
                         std::uint64_t iters) const;

    /**
     * The one near-memory / core runner: iterations [@p first,
     * first + n) of @p p run near memory when @p near is set and the
     * phase has a stream form (per-iteration buildStreams when set),
     * else on the core at @p threads.
     */
    void runFallback(const Phase &p, ExecStats &st, bool near,
                     unsigned threads, std::uint64_t first,
                     std::uint64_t n);

    /**
     * Graceful degradation of an in-memory region that failed (lowering
     * diagnostic or a fault past the retry budget): run iterations
     * [@p first_iter, first_iter + iters) of @p p near memory when the
     * phase has a stream form — even for In-L3, completing the
     * In-L3 -> Near-L3 -> core chain — else in the core.
     */
    void degradeRegion(const Phase &p, ExecStats &st,
                       std::uint64_t first_iter, std::uint64_t iters,
                       const Error &err);

    void finalizeStats(ExecStats &st) const;

    InfinitySystem &sys_;
    Paradigm paradigm_;
};

} // namespace infs

#endif // INFS_CORE_EXECUTOR_HH
