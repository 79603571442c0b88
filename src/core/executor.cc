#include "core/executor.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "analysis/verify_tdfg.hh"
#include "bitserial/simd.hh"
#include "tdfg/interp.hh"

namespace infs {

const char *
paradigmName(Paradigm p)
{
    switch (p) {
      case Paradigm::Base1T: return "Base-1T";
      case Paradigm::Base: return "Base";
      case Paradigm::NearL3: return "Near-L3";
      case Paradigm::InL3: return "In-L3";
      case Paradigm::InfS: return "Inf-S";
      case Paradigm::InfSNoJit: return "Inf-S-noJIT";
    }
    return "?";
}

namespace {

/** A phase that has a stream form can run near memory. */
bool
hasStreamForm(const Phase &p)
{
    return !p.streams.empty() || static_cast<bool>(p.buildStreams);
}

} // namespace

ExecStats
Executor::run(const Workload &w, ArrayStore *store)
{
    sys_.resetStats();
    if (store != nullptr)
        runWorkloadFunctional(w, *store);

    ExecStats st;
    // Total element ops (for the in-memory fraction dots of Fig 14).
    for (const Phase &p : w.phases)
        st.totalOps +=
            (p.coreFlopsPerIter + p.residualFlopsPerIter) * p.iterations;

    const unsigned cores = sys_.config().numCores();
    switch (paradigm_) {
      case Paradigm::Base1T:
        runOutsideMemory(w, st, /*near=*/false, 1);
        break;
      case Paradigm::Base:
        runOutsideMemory(w, st, /*near=*/false, cores);
        break;
      case Paradigm::NearL3:
        runOutsideMemory(w, st, /*near=*/true, cores);
        break;
      case Paradigm::InL3:
        runInMemory(w, st, /*fused=*/false, /*jit=*/true);
        break;
      case Paradigm::InfS:
        runInMemory(w, st, /*fused=*/true, /*jit=*/true);
        break;
      case Paradigm::InfSNoJit:
        runInMemory(w, st, /*fused=*/true, /*jit=*/false);
        break;
    }
    finalizeStats(st);
    return st;
}

Tick
Executor::corePhaseCycles(const Phase &p, unsigned threads,
                          std::uint64_t iters) const
{
    const SystemConfig &cfg = sys_.config();
    const std::uint64_t flops =
        p.coreFlopsPerIter + p.residualFlopsPerIter;
    const Bytes bytes = p.coreBytesPerIter + p.residualBytesPerIter;
    const double rep = static_cast<double>(iters);

    double compute_cycles =
        static_cast<double>(flops) /
        (static_cast<double>(threads) * cfg.core.simdLanesFp32);

    // Memory: data streams from L3 home banks to the cores' private
    // caches; per-line request control precedes each response line.
    // Traffic and energy scale with the iteration count.
    double lines = static_cast<double>(bytes) / lineBytes;
    sys_.noc().accountBulk(static_cast<double>(bytes) * rep,
                           sys_.noc().avgHops(), TrafficClass::Data);
    sys_.noc().accountBulk(lines * 16.0 * rep, sys_.noc().avgHops(),
                           TrafficClass::Control);
    sys_.l3().read(0, static_cast<Bytes>(bytes * iters));

    double core_side_bw =
        static_cast<double>(threads) * cfg.noc.linkBytes;
    double l3_bw = static_cast<double>(cfg.l3.numBanks) *
                   cfg.l3.htreeBandwidth;
    double mem_cycles =
        static_cast<double>(bytes) / std::min(core_side_bw, l3_bw);

    // Energy: core op + cache line movements.
    sys_.energy().charge(EnergyEvent::CoreOp,
                         static_cast<double>(flops) * rep);
    sys_.energy().charge(EnergyEvent::L1Access, lines * rep);
    sys_.energy().charge(EnergyEvent::L2Access, lines * rep);
    sys_.energy().charge(EnergyEvent::L3Access, lines * rep);

    Tick overhead = threads > 1 ? p.baseSyncPerIter : 200;
    return static_cast<Tick>(std::max(compute_cycles, mem_cycles)) +
           overhead;
}

void
Executor::runFallback(const Phase &p, ExecStats &st, bool near,
                      unsigned threads, std::uint64_t first,
                      std::uint64_t n)
{
    if (near && hasStreamForm(p)) {
        for (std::uint64_t it = first; it < first + n; ++it) {
            NearExecResult r =
                p.buildStreams
                    ? sys_.nearEngine().run(p.buildStreams(it), 0)
                    : sys_.nearEngine().run(p.streams, 0);
            st.nearMemCycles += r.cycles;
            st.cycles += r.cycles;
        }
        return;
    }
    Tick per_iter = corePhaseCycles(p, threads, n);
    st.coreCycles += per_iter * n;
    st.cycles += per_iter * n;
}

void
Executor::degradeRegion(const Phase &p, ExecStats &st,
                        std::uint64_t first_iter, std::uint64_t iters,
                        const Error &err)
{
    ++st.regionsDegraded;
    infs_warn("phase '%s': in-memory region failed (%s); degrading to %s",
              p.name.c_str(), err.str().c_str(),
              hasStreamForm(p) ? "near-memory streams" : "the core");
    // The stream form covers the whole phase (including final
    // reductions). This is the In-L3 -> Near-L3 step of the degradation
    // chain, so it applies even when the paradigm is not fused.
    runFallback(p, st, /*near=*/true, sys_.config().numCores(), first_iter,
                iters);
}

void
Executor::runOutsideMemory(const Workload &w, ExecStats &st, bool near,
                           unsigned threads)
{
    // Cold data comes from DRAM once per workload.
    Bytes dram_bytes = static_cast<Bytes>(
        static_cast<double>(w.footprintBytes) * (1.0 - w.l3Residency));
    if (dram_bytes > 0) {
        Tick t = sys_.dram().transfer(dram_bytes);
        st.dramCycles += t;
        st.cycles += t;
    }
    for (const Phase &p : w.phases) {
        const Tick phase_start = st.cycles;
        runFallback(p, st, near, threads, 0, p.iterations);
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }
}

void
Executor::runInMemory(const Workload &w, ExecStats &st, bool fused,
                      bool jit_enabled)
{
    const SystemConfig &cfg = sys_.config();
    // Steady-state mode (Fig 2): data transposed and commands already
    // lowered in earlier invocations.
    if (w.assumeTransposed)
        jit_enabled = false;

    // §4.1: pick the transposed layout from the tensor phases' hints;
    // one primary layout serves all arrays of the region. The region
    // plan's first-iteration graphs are reused by the plan and the
    // lowering below.
    RegionPlan region = planRegion(w);
    TilingPolicy policy(cfg.l3);
    TileDecision tile;
    if (!w.forceTile.empty()) {
        tile.valid = w.forceTile.size() == w.primaryShape.size();
        tile.tile = w.forceTile;
    } else if (region.hasTdfg) {
        tile = policy.choose(w.primaryShape, w.elemBytes, region.hints);
    }
    TiledLayout layout;
    if (tile.valid) {
        auto made = TiledLayout::make(w.primaryShape, tile.tile);
        if (!made) {
            // A forced tile violating the layout constraints is a
            // recoverable user error, not a crash: degrade the whole
            // region to the fallback paradigm below.
            infs_warn("workload '%s': %s; disabling in-memory execution",
                      w.name.c_str(), made.error().str().c_str());
            ++st.regionsDegraded;
            tile.valid = false;
        } else {
            layout = std::move(*made);
        }
    }
    if (!region.hasTdfg || !tile.valid) {
        // In-memory computing disabled (§4.1): fall back to near-memory
        // when fused, else to the core.
        runOutsideMemory(w, st, fused, cfg.numCores());
        return;
    }
    st.chosenTile = tile.tile;

    // Fat-binary candidate schedules (DESIGN.md §14): when enabled, every
    // memoized primary-layout phase lowers each candidate and the
    // dispatcher below picks one per phase from replayed makespans and
    // the occupancy observed so far. Candidates share the winner's
    // reduce-dim tile size, so any pick is bit-identical. Deliberately
    // independent of jit_enabled: steady-state runs (data transposed,
    // commands precompiled) are exactly where a fat binary applies — the
    // schedules were lowered ahead of time and only the dispatch-time
    // pick remains. Only the chosen program's jitTicks are ever charged,
    // and only when jit_enabled, so timing semantics are unchanged.
    constexpr unsigned kFatBinaryCandidates = 3;
    std::vector<TiledLayout> candLayouts;
    if (cfg.fatBinary && w.forceTile.empty()) {
        for (TileDecision &d :
             policy.candidates(w.primaryShape, w.elemBytes, region.hints,
                               kFatBinaryCandidates))
            candLayouts.emplace_back(w.primaryShape, d.tile);
        if (candLayouts.size() <= 1)
            candLayouts.clear();
    }

    // Data preparation (§5.2) happens lazily, at the first phase that
    // actually commits to in-memory execution (small regions that Eq. 2
    // keeps near memory never pay the transposition).
    bool prepared = w.assumeTransposed;
    auto prepareOnce = [&]() {
        if (prepared)
            return;
        prepared = true;
        PrepareResult prep =
            sys_.prepareTransposed(w.footprintBytes, w.l3Residency);
        st.dramCycles += prep.cycles;
        st.cycles += prep.cycles;
        st.dramBytes += prep.dramBytes;
    };

    // Waves: element sets larger than the bitline pool execute in passes.
    std::int64_t primary_elems = 1;
    for (Coord s : w.primaryShape)
        primary_elems *= s;
    Tick waves = static_cast<Tick>(
        (primary_elems + cfg.l3.totalBitlines() - 1) /
        cfg.l3.totalBitlines());
    waves = std::max<Tick>(waves, 1);

    // ---- Plan (DESIGN.md §10): resolve each phase's route with the pure
    // checks only — graph invariants, layout choice, Eq. 2 — so the JIT
    // work of independent regions can fan out before the sequential
    // timing walk below. The checks are side-effect free; hoisting them
    // is behavior-identical to the former in-loop order.
    enum class Route {
        Fallback,    ///< No tDFG, no valid phase layout, or Eq. 2 said no.
        DegradeTdfg, ///< Graph verification failed; degrade the region.
        InMemory,    ///< Offloaded to the fabric.
    };
    using ProgOr = Expected<std::shared_ptr<const InMemProgram>>;
    struct PhasePlan {
        const Phase *phase = nullptr;
        Route route = Route::Fallback;
        Error error;               ///< DegradeTdfg diagnostic.
        TdfgGraph *g0 = nullptr;   ///< First-iteration graph (tDFG phases).
        bool usesOwnLayout = false;
        TiledLayout ownLayout; ///< Phase-specific layout when set.
        std::string memoKey;   ///< Non-empty on the memoized path.
        /** Pre-lowered program (memoized path), set bank-parallel. */
        std::optional<ProgOr> prog;
        /** Fat-binary: one program per candidate layout, index-aligned
         * with candLayouts (primary-layout memoized phases only). */
        std::vector<ProgOr> candProgs;
    };
    std::vector<PhasePlan> plans(w.phases.size());
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const Phase &p = w.phases[i];
        PhasePlan &plan = plans[i];
        plan.phase = &p;
        if (!region.graphs[i])
            continue;
        plan.g0 = &*region.graphs[i];

        // Pre-offload verification (DESIGN.md §9): a graph that fails its
        // invariants never reaches the offload decision or the JIT.
        if (cfg.verifyLevel != VerifyLevel::Off) {
            if (auto ok = checkTdfg(*plan.g0); !ok) {
                plan.route = Route::DegradeTdfg;
                plan.error = ok.error();
                continue;
            }
        }

        // Phases whose lattice rank differs from the workload layout get
        // their own layout (or fall back when none is valid).
        if (!p.latticeShape.empty() || plan.g0->dims() != layout.dims()) {
            std::vector<Coord> shape =
                p.latticeShape.empty() ? w.primaryShape : p.latticeShape;
            TileDecision td;
            if (shape.size() == plan.g0->dims())
                td = policy.choose(shape, w.elemBytes,
                                   LayoutHints::fromGraph(*plan.g0));
            if (!td.valid)
                continue;
            plan.ownLayout = TiledLayout(shape, td.tile);
            plan.usesOwnLayout = true;
        }

        // Eq. 2 (§4.3): Inf-S chooses between in- and near-memory; In-L3
        // (no near-memory support) between in-memory and the core. The
        // Fig 2 steady-state mode forces in-memory to plot the paradigm
        // itself.
        OffloadDecision dec =
            decideOffload(plan.g0->summarize(), cfg, !jit_enabled);
        if (!w.assumeTransposed && !dec.inMemory)
            continue;
        plan.route = Route::InMemory;
        if (p.sameTdfgEachIter)
            plan.memoKey = w.name + "/" + p.name;
    }

    // ---- Pre-lower independent regions bank-parallel (DESIGN.md §10).
    // Each memoized phase lowers exactly once here; the timing walk
    // consumes the cold program directly, so the JIT time lands on the
    // same iteration and JitStats match the sequential order.
    {
        std::vector<PhasePlan *> jobs;
        for (PhasePlan &plan : plans)
            if (plan.route == Route::InMemory && !plan.memoKey.empty())
                jobs.push_back(&plan);
        auto lowerOne = [&](PhasePlan *plan) {
            if (!plan->usesOwnLayout && !candLayouts.empty()) {
                plan->candProgs = sys_.jit().lowerCandidates(
                    *plan->g0, candLayouts, sys_.map(), plan->memoKey);
                // Candidate 0 is the policy winner — the legacy choice —
                // so the degradation path below is unchanged when it
                // fails.
                plan->prog = plan->candProgs.front();
            } else {
                const TiledLayout &use_layout =
                    plan->usesOwnLayout ? plan->ownLayout : layout;
                plan->prog = sys_.jit().tryLower(
                    *plan->g0, use_layout, sys_.map(), plan->memoKey);
            }
        };
        ThreadPool &pool = sys_.pool();
        if (pool.inlineOnly() || jobs.size() <= 1) {
            for (PhasePlan *job : jobs)
                lowerOne(job);
        } else {
            std::vector<std::function<void()>> tasks;
            tasks.reserve(jobs.size());
            for (PhasePlan *job : jobs)
                tasks.push_back([&lowerOne, job] { lowerOne(job); });
            pool.runTasks(std::move(tasks));
        }
    }

    // ---- Sequential timing walk: all simulated-time, traffic, energy,
    // and fault accounting happens here, in phase order, exactly as the
    // single-thread engine did.

    // Bank occupancy observed across the regions executed so far; feeds
    // the fat-binary dispatcher of later phases (empty history means the
    // cost reduces to the replayed makespan alone).
    FabricStats observed;

    // The one program runner (DESIGN.md §10): run @p prog_or for
    // iterations [it, it + repeat) of @p p — JIT time when jit_enabled,
    // execution, accounting. A lowering error, or a command fault that
    // persists past the retry budget, degrades the rest of the phase from
    // iteration @p it; returns false then.
    auto runProgram = [&](const Phase &p, const ProgOr &prog_or,
                          const TiledLayout &use_layout, std::uint64_t it,
                          std::uint64_t repeat) {
        if (!prog_or) {
            degradeRegion(p, st, it, p.iterations - it, prog_or.error());
            return false;
        }
        const InMemProgram &prog = **prog_or;
        if (jit_enabled) {
            st.jitCycles += prog.jitTicks;
            st.cycles += prog.jitTicks;
        }
        InMemExecResult r =
            sys_.tensorController().execute(prog, use_layout, 0, repeat);
        if (r.failed) {
            // The aborted attempt (including its retry time) is sunk
            // cost; the region then reruns on the fallback path.
            st.cycles += r.cycles;
            degradeRegion(p, st, it, p.iterations - it,
                          Error{ErrCode::CommandFailed,
                                "in-memory command fault persisted past "
                                "the retry budget"});
            return false;
        }
        st.computeCycles += r.computeCycles * waves;
        st.moveCycles += r.moveCycles * waves;
        st.syncCycles += r.syncCycles * waves;
        st.cycles += r.cycles * waves;
        st.inMemOps += r.inMemOps;
        st.intraTileBytes += r.intraTileBytes;
        st.interTileBytes += r.interTileBytes;
        st.interTileNocBytes += r.interTileNocBytes;
        for (std::size_t b = 0; b < r.bankBusy.size(); ++b)
            observed.bankOps[b % FabricStats::kBankSlots] +=
                static_cast<std::uint64_t>(r.bankBusy[b]);
        return true;
    };

    for (PhasePlan &plan : plans) {
        const Phase &p = *plan.phase;
        const Tick phase_start = st.cycles;
        if (plan.route == Route::Fallback) {
            // Near memory when fused; In-L3 falls back to the core.
            runFallback(p, st, fused, cfg.numCores(), 0, p.iterations);
        } else if (plan.route == Route::DegradeTdfg) {
            degradeRegion(p, st, 0, p.iterations, plan.error);
        } else {
            prepareOnce();
            const TiledLayout &use_layout =
                plan.usesOwnLayout ? plan.ownLayout : layout;
            bool ok = true;
            if (!plan.memoKey.empty()) {
                // The first iteration pays the JIT; the rest reuse the
                // memoized program (§4.2). Lowered bank-parallel above.
                const ProgOr *prog = &*plan.prog;
                const TiledLayout *exec_layout = &use_layout;
                if (*prog && !plan.candProgs.empty()) {
                    // Fat-binary dispatch (DESIGN.md §14): probe each
                    // cleanly lowered candidate's makespan on private
                    // replay models, then pick with the occupancy
                    // observed so far. Only the chosen program's JIT time
                    // is charged — the others were lowered ahead of
                    // dispatch (that is the fat binary).
                    std::vector<ScheduleCandidate> cands;
                    std::vector<unsigned> ids;
                    for (unsigned c = 0; c < plan.candProgs.size(); ++c) {
                        if (!plan.candProgs[c])
                            continue; // Failed to lower: drop it.
                        ScheduleCandidate sc;
                        sc.layout = candLayouts[c];
                        sc.prog = *plan.candProgs[c];
                        BackendJob job{candLayouts[c], sc.prog,
                                       primary_elems};
                        sc.replayCycles = replayTiming(cfg, job).simCycles;
                        cands.push_back(std::move(sc));
                        ids.push_back(c);
                    }
                    if (cands.size() > 1) {
                        const unsigned c =
                            ids[chooseSchedule(cands, observed)];
                        prog = &plan.candProgs[c];
                        exec_layout = &candLayouts[c];
                        if (st.scheduleId < 0) {
                            st.scheduleId = static_cast<int>(c);
                            st.scheduleCandidates =
                                static_cast<unsigned>(cands.size());
                            st.chosenTile = exec_layout->tile();
                        }
                    }
                }
                ok = runProgram(p, *prog, *exec_layout, 0, p.iterations);
            } else {
                // Changing parameters defeat memoization (gauss_elim,
                // §8). Graphs build sequentially; lowering fans out in
                // bounded blocks. When a lowering fails, the block may
                // have lowered a few graphs past the failing iteration
                // speculatively — that shows in JitStats only; ExecStats
                // and the degradation point are unchanged (DESIGN.md
                // §10).
                ThreadPool &pool = sys_.pool();
                const std::uint64_t block =
                    pool.inlineOnly()
                        ? 1
                        : std::max<std::uint64_t>(2 * pool.threads(), 4);
                for (std::uint64_t it0 = 0; it0 < p.iterations && ok;
                     it0 += block) {
                    const std::uint64_t n =
                        std::min<std::uint64_t>(block, p.iterations - it0);
                    std::vector<TdfgGraph> graphs;
                    graphs.reserve(n);
                    for (std::uint64_t k = 0; k < n; ++k) {
                        graphs.push_back(it0 + k == 0
                                             ? std::move(*plan.g0)
                                             : p.buildTdfg(it0 + k));
                    }
                    std::vector<std::optional<ProgOr>> progs(n);
                    auto lowerK = [&](std::uint64_t k) {
                        progs[k] = sys_.jit().tryLower(
                            graphs[k], use_layout, sys_.map());
                    };
                    if (pool.inlineOnly() || n == 1) {
                        for (std::uint64_t k = 0; k < n; ++k)
                            lowerK(k);
                    } else {
                        std::vector<std::function<void()>> tasks;
                        tasks.reserve(n);
                        for (std::uint64_t k = 0; k < n; ++k)
                            tasks.push_back([&lowerK, k] { lowerK(k); });
                        pool.runTasks(std::move(tasks));
                    }
                    for (std::uint64_t k = 0; k < n && ok; ++k)
                        ok = runProgram(p, *progs[k], use_layout, it0 + k,
                                        1);
                }
            }

            // Residual work: final reductions / irregular updates coupled
            // to the in-memory part.
            if (ok && !p.residualStreams.empty()) {
                if (fused) {
                    bool any_reduce = false;
                    for (const NearStream &s : p.residualStreams)
                        any_reduce |= s.isReduce;
                    for (std::uint64_t it = 0; it < p.iterations; ++it) {
                        NearExecResult r =
                            sys_.nearEngine().run(p.residualStreams, 0);
                        if (any_reduce)
                            st.finalReduceCycles += r.cycles;
                        else
                            st.mixCycles += r.cycles;
                        st.cycles += r.cycles;
                    }
                } else {
                    // In-L3 has no near-memory support: the core does it.
                    Phase residual;
                    residual.coreFlopsPerIter = p.residualFlopsPerIter;
                    residual.coreBytesPerIter = p.residualBytesPerIter;
                    Tick per_iter = corePhaseCycles(residual,
                                                    cfg.numCores(),
                                                    p.iterations);
                    st.finalReduceCycles += per_iter * p.iterations;
                    st.cycles += per_iter * p.iterations;
                }
            }
        }
        st.phaseCycles.emplace_back(p.name, st.cycles - phase_start);
    }

    // Delayed release of the transposed data (§5.2).
    if (prepared && !w.assumeTransposed) {
        Tick rel = sys_.releaseTransposed(w.dirtyBytes);
        st.dramCycles += rel;
        st.cycles += rel;
    } else if (prepared) {
        sys_.releaseTransposed(0);
    }
}

void
Executor::finalizeStats(ExecStats &st) const
{
    MeshNoc &noc = sys_.noc();
    for (unsigned c = 0; c < numTrafficClasses; ++c)
        st.nocHopBytes[c] = noc.hopBytes(static_cast<TrafficClass>(c));
    st.nocUtilization = noc.utilization(std::max<Tick>(st.cycles, 1));
    st.dramBytes = sys_.dram().totalBytes();

    // Central energy charges from model totals.
    sys_.energy().charge(EnergyEvent::NocHopFlit,
                         noc.totalHopBytes() /
                             sys_.config().noc.linkBytes);
    sys_.energy().charge(EnergyEvent::DramAccess,
                         static_cast<double>(st.dramBytes) / lineBytes);
    st.energyJoules = sys_.energy().totalJoules();

    // Dispatch provenance (schema v5): which SIMD table the bitserial
    // layer resolved to.
    st.simdIsa = simd::activeIsa();

    // Fault and recovery totals come from the injector — the single
    // source of truth across the NoC, the controller, and the fabric.
    FaultStats fs = sys_.faultInjector().snapshot();
    st.faultsInjected = fs.totalInjected();
    st.faultsDetected = fs.detected;
    st.faultRetries = fs.retries;
    st.retryCycles = static_cast<Tick>(fs.retryCycles);
}

} // namespace infs
