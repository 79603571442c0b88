#include "core/backend.hh"

#include <array>
#include <utility>

#include "energy/energy.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"
#include "tdfg/interp.hh"
#include "uarch/tensor_controller.hh"

namespace infs {

void
runWorkloadFunctional(const Workload &w, ArrayStore &store)
{
    if (w.setup)
        w.setup(store);
    for (const Phase &p : w.phases) {
        for (std::uint64_t it = 0; it < p.iterations; ++it) {
            if (p.functionalFallback) {
                // Overrides the interpreter when set (it may stage data
                // and invoke the interpreter itself).
                p.functionalFallback(store, it);
            } else if (p.buildTdfg) {
                TdfgGraph g = p.buildTdfg(it);
                TdfgInterpreter interp(store);
                interp.run(g);
            }
        }
    }
}

// Factories defined in backend_fabric.cc / backend_functional.cc /
// backend_timing.cc; registered here.
std::unique_ptr<ExecBackend> makeFabricBackend(const SystemConfig &cfg);
std::unique_ptr<ExecBackend> makeFunctionalBackend(const SystemConfig &cfg);
std::unique_ptr<ExecBackend> makeTimingBackend(const SystemConfig &cfg);

namespace {

struct BackendEntry {
    ExecBackendKind kind;
    std::unique_ptr<ExecBackend> (*make)(const SystemConfig &);
};

constexpr std::array<BackendEntry, 3> kBackendRegistry{{
    {ExecBackendKind::Fabric, &makeFabricBackend},
    {ExecBackendKind::Functional, &makeFunctionalBackend},
    {ExecBackendKind::Timing, &makeTimingBackend},
}};

} // namespace

std::unique_ptr<ExecBackend>
makeBackend(ExecBackendKind kind, const SystemConfig &cfg)
{
    for (const BackendEntry &e : kBackendRegistry)
        if (e.kind == kind)
            return e.make(cfg);
    infs_panic("unregistered backend kind %u",
               static_cast<unsigned>(kind));
}

RegionPlan
planRegion(const Workload &w)
{
    RegionPlan plan;
    plan.graphs.resize(w.phases.size());
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        if (!w.phases[i].buildTdfg)
            continue;
        plan.graphs[i] = w.phases[i].buildTdfg(0);
        LayoutHints h = LayoutHints::fromGraph(*plan.graphs[i]);
        plan.hints.shiftDims.insert(h.shiftDims.begin(), h.shiftDims.end());
        plan.hints.broadcastDims.insert(h.broadcastDims.begin(),
                                        h.broadcastDims.end());
        if (h.reduceDim)
            plan.hints.reduceDim = h.reduceDim;
        plan.hasTdfg = true;
    }
    return plan;
}

std::optional<BackendJob>
planPrimaryJob(const Workload &w, const SystemConfig &cfg,
               ThreadPool *pool, std::int64_t volume_cap)
{
    // §4.1 layout choice exactly as the executor resolves it: one primary
    // layout for the region, from the hints of every tensor phase.
    RegionPlan region = planRegion(w);
    if (!region.hasTdfg)
        return std::nullopt;
    TilingPolicy policy(cfg.l3);
    TileDecision tile =
        policy.choose(w.primaryShape, w.elemBytes, region.hints);
    if (!tile.valid)
        return std::nullopt;
    auto made = TiledLayout::make(w.primaryShape, tile.tile);
    if (!made)
        return std::nullopt;
    BackendJob job;
    job.layout = std::move(*made);
    job.volume = 1;
    for (Coord s : job.layout.shape())
        job.volume *= s;
    if (volume_cap > 0 && job.volume > volume_cap)
        return std::nullopt;

    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    jit.setThreadPool(pool);
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        const std::optional<TdfgGraph> &g = region.graphs[i];
        if (!g || !w.phases[i].latticeShape.empty() ||
            g->dims() != job.layout.dims())
            continue; // Primary-layout tensor phases only.
        auto prog_or = jit.tryLower(*g, job.layout, map);
        if (!prog_or)
            continue;
        job.prog = *prog_or;
        return job;
    }
    return std::nullopt;
}

TimingReplayResult
replayTiming(const SystemConfig &cfg, const BackendJob &job, ThreadPool *)
{
    // Private system models, fault injection off: the replay is a pure
    // function of (program, layout, config), so fabric and timing report
    // the same sim_cycles by construction — and the differential tests
    // certify it stays that way.
    MeshNoc noc(cfg.noc);
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    EnergyAccount energy;
    TensorController tc(cfg, noc, map, energy, nullptr);
    InMemExecResult r = tc.execute(*job.prog, job.layout, 0);
    TimingReplayResult out;
    out.simCycles = r.cycles;
    out.nocHopBytes = noc.totalHopBytes();
    out.energyJoules = energy.totalJoules();
    return out;
}

unsigned
chooseSchedule(const std::vector<ScheduleCandidate> &candidates,
               const FabricStats &observed)
{
    infs_assert(!candidates.empty(), "no schedule candidates");
    // Imbalance sensitivity: beta = 0.25 means a fully serialized
    // occupancy history (I = 1) penalizes a half-tile-count schedule by
    // 25% of its replayed makespan.
    constexpr double beta = 0.25;
    const double imb = observed.occupancyImbalance();
    std::int64_t max_tiles = 1;
    for (const ScheduleCandidate &c : candidates)
        max_tiles = std::max(max_tiles, c.layout.numTiles());
    unsigned best = 0;
    double best_cost = 0.0;
    for (unsigned i = 0; i < candidates.size(); ++i) {
        const ScheduleCandidate &c = candidates[i];
        const double spread = static_cast<double>(max_tiles) /
                              static_cast<double>(
                                  std::max<std::int64_t>(
                                      c.layout.numTiles(), 1));
        const double cost = static_cast<double>(c.replayCycles) *
                            (1.0 + beta * imb * (spread - 1.0));
        if (i == 0 || cost < best_cost) {
            best = i;
            best_cost = cost;
        }
    }
    return best;
}

} // namespace infs
