/**
 * @file
 * Fat-binary schedule selection (DESIGN.md §14): the tiling policy's
 * candidate enumeration contract, the occupancy-driven selector's cost
 * model and determinism for a fixed FabricStats snapshot, the
 * bit-identity of every candidate schedule's results, and the dispatch
 * provenance the Executor records in ExecStats.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bitserial/simd.hh"
#include "core/backend.hh"
#include "core/executor.hh"
#include "jit/jit.hh"
#include "uarch/bit_exec.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

TEST(TilingCandidates, WinnerFirstPinnedAndBounded)
{
    SystemConfig cfg = testSystemConfig();
    TilingPolicy policy(cfg.l3);
    for (const char *name : {"mm_outer", "array_sum", "stencil2d"}) {
        SCOPED_TRACE(name);
        const BenchScenario *sc = findScenario(name);
        ASSERT_NE(sc, nullptr);
        Workload w = sc->quick();
        LayoutHints hints = planRegion(w).hints;
        TileDecision best = policy.choose(w.primaryShape, w.elemBytes,
                                          hints);
        if (!best.valid)
            continue;
        for (unsigned max_n : {1u, 2u, 3u, 8u}) {
            std::vector<TileDecision> cands = policy.candidates(
                w.primaryShape, w.elemBytes, hints, max_n);
            ASSERT_FALSE(cands.empty());
            EXPECT_LE(cands.size(), max_n);
            // Candidate 0 is exactly the single-schedule choice, so a
            // fat binary degrades to the legacy plan when selection is
            // disabled or every other candidate fails to lower.
            EXPECT_EQ(cands.front().tile, best.tile);
            for (const TileDecision &c : cands) {
                EXPECT_TRUE(c.valid);
                // The reduce dimension is pinned across candidates: the
                // fp reduction tree shape (and so the fp result bits)
                // depends only on tile[reduceDim].
                if (hints.reduceDim) {
                    EXPECT_EQ(c.tile[*hints.reduceDim],
                              best.tile[*hints.reduceDim]);
                }
            }
        }
    }
}

TEST(FabricStatsOccupancy, ImbalanceMetric)
{
    FabricStats s;
    // No history at all: neutral (selector reduces to pure makespan).
    EXPECT_DOUBLE_EQ(s.occupancyImbalance(), 0.0);
    // Perfectly balanced across any number of active banks: 0.
    for (unsigned b = 0; b < 8; ++b)
        s.bankOps[b] = 100;
    EXPECT_DOUBLE_EQ(s.occupancyImbalance(), 0.0);
    // One hot bank out of two active: max/mean = 300/200 -> I = 0.5.
    FabricStats t;
    t.bankOps[0] = 300;
    t.bankOps[1] = 100;
    EXPECT_DOUBLE_EQ(t.occupancyImbalance(), 0.5);
}

ScheduleCandidate
syntheticCandidate(std::vector<Coord> shape, std::vector<Coord> tile,
                   Tick replay)
{
    ScheduleCandidate c;
    c.layout = TiledLayout(std::move(shape), std::move(tile));
    c.replayCycles = replay;
    return c;
}

TEST(ChooseSchedule, BalancedHistoryPicksFastestReplay)
{
    // 64 tiles vs 4 tiles; with a balanced (or empty) occupancy history
    // the imbalance term vanishes and replay cycles alone decide.
    std::vector<ScheduleCandidate> cands;
    cands.push_back(syntheticCandidate({4096}, {64}, 1000));
    cands.push_back(syntheticCandidate({4096}, {1024}, 900));
    FabricStats empty;
    EXPECT_EQ(chooseSchedule(cands, empty), 1u);
}

TEST(ChooseSchedule, ImbalancedHistoryFavorsSpread)
{
    // Same candidates, but the observed history is almost fully
    // serialized (I ~ 1): the narrow schedule pays cost_1 ~ 900 *
    // (1 + 0.25 * I * (16 - 1)) ~ 4268 while the wide one stays at its
    // replay makespan of 1000 (spread = 1), so it wins despite being
    // slower in isolation.
    std::vector<ScheduleCandidate> cands;
    cands.push_back(syntheticCandidate({4096}, {64}, 1000));
    cands.push_back(syntheticCandidate({4096}, {1024}, 900));
    FabricStats skewed;
    skewed.bankOps[0] = 1000;
    skewed.bankOps[2] = 1;
    ASSERT_GT(skewed.occupancyImbalance(), 0.9);
    EXPECT_EQ(chooseSchedule(cands, skewed), 0u);
}

TEST(ChooseSchedule, DeterministicAndTieBreaksLowestIndex)
{
    std::vector<ScheduleCandidate> cands;
    cands.push_back(syntheticCandidate({4096}, {256}, 700));
    cands.push_back(syntheticCandidate({4096}, {256}, 700));
    cands.push_back(syntheticCandidate({4096}, {256}, 700));
    FabricStats snap;
    snap.bankOps[3] = 50;
    snap.bankOps[7] = 10;
    const unsigned first = chooseSchedule(cands, snap);
    EXPECT_EQ(first, 0u); // Exact tie -> lowest index.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(chooseSchedule(cands, snap), first);
}

/**
 * The bit-identity guarantee the fat binary rests on: every candidate
 * schedule of a scenario, lowered and executed on the fabric backend,
 * produces byte-identical output checksums (the shared reduce-dim tile
 * keeps fp reduction trees identical; everything else is reordered
 * bit-exact compute).
 */
TEST(ChooseSchedule, EveryCandidateChecksumIdentical)
{
    constexpr std::int64_t kVolumeCap = 1 << 16;
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    TilingPolicy policy(cfg.l3);
    unsigned multi = 0;
    for (const char *name : {"vec_add", "array_sum", "mm_outer", "dwt2d",
                             "stencil1d"}) {
        SCOPED_TRACE(name);
        const BenchScenario *sc = findScenario(name);
        ASSERT_NE(sc, nullptr);
        Workload w = sc->quick();
        LayoutHints hints = planRegion(w).hints;
        std::int64_t volume = 1;
        for (Coord s : w.primaryShape)
            volume *= s;
        if (volume > kVolumeCap)
            continue;
        std::vector<TiledLayout> layouts;
        for (TileDecision &d :
             policy.candidates(w.primaryShape, w.elemBytes, hints, 3))
            layouts.emplace_back(w.primaryShape, d.tile);
        if (layouts.empty())
            continue;
        // First primary-layout tDFG phase, as planPrimaryJob picks it.
        const Phase *phase = nullptr;
        for (const Phase &p : w.phases) {
            if (!p.buildTdfg || !p.latticeShape.empty())
                continue;
            if (p.buildTdfg(0).dims() == layouts.front().dims()) {
                phase = &p;
                break;
            }
        }
        if (!phase)
            continue;
        TdfgGraph g = phase->buildTdfg(0);
        auto progs = jit.lowerCandidates(g, layouts, map, "");
        ASSERT_EQ(progs.size(), layouts.size());
        bool have_ref = false;
        std::uint64_t ref = 0;
        unsigned lowered = 0;
        for (unsigned c = 0; c < progs.size(); ++c) {
            if (!progs[c])
                continue;
            ++lowered;
            BackendJob job;
            job.layout = layouts[c];
            job.prog = *progs[c];
            job.volume = volume;
            BackendResult r =
                makeBackend(ExecBackendKind::Fabric, cfg)->runJob(job);
            if (!have_ref) {
                ref = r.checksum;
                have_ref = true;
            } else {
                EXPECT_EQ(r.checksum, ref) << "candidate " << c;
            }
        }
        if (lowered > 1)
            ++multi;
    }
    // The sweep is vacuous unless at least one scenario really exercised
    // multiple lowered schedules.
    EXPECT_GE(multi, 1u);
}

/** The Executor records dispatch provenance, deterministically. */
TEST(ChooseSchedule, ExecutorRecordsProvenance)
{
    const BenchScenario *sc = findScenario("mm_outer");
    ASSERT_NE(sc, nullptr);

    SystemConfig cfg = defaultSystemConfig();
    InfinitySystem sys(cfg);
    Executor exec(sys, Paradigm::InfS);
    ExecStats a = exec.run(sc->quick());
    EXPECT_EQ(a.simdIsa, simd::activeIsa());
    if (a.scheduleCandidates > 1) {
        EXPECT_GE(a.scheduleId, 0);
    }

    // Bit-for-bit repeatable: same system, same workload, same pick.
    InfinitySystem sys2(cfg);
    Executor exec2(sys2, Paradigm::InfS);
    ExecStats b = exec2.run(sc->quick());
    EXPECT_EQ(b.scheduleId, a.scheduleId);
    EXPECT_EQ(b.scheduleCandidates, a.scheduleCandidates);
    EXPECT_EQ(b.chosenTile, a.chosenTile);
    EXPECT_EQ(b.cycles, a.cycles);

    // Selection off: the legacy single-schedule plan, flagged as such.
    SystemConfig off = cfg;
    off.fatBinary = false;
    InfinitySystem sys3(off);
    Executor exec3(sys3, Paradigm::InfS);
    ExecStats c = exec3.run(sc->quick());
    EXPECT_EQ(c.scheduleId, -1);
    EXPECT_EQ(c.scheduleCandidates, 0u);
}

TEST(ChooseSchedule, SteadyStateDispatchEngages)
{
    // Steady-state mode (assumeTransposed: data in place, commands
    // precompiled) is the fat binary's home turf — the candidates were
    // lowered ahead of time and only the dispatch-time pick remains.
    // makeMm outer on the big machine stays in-memory with 3 candidate
    // schedules, so the dispatcher MUST engage and record its pick.
    Workload w = makeMm(64, 64, 64, true);
    w.assumeTransposed = true;

    SystemConfig cfg = defaultSystemConfig();
    InfinitySystem sys(cfg);
    ExecStats a = Executor(sys, Paradigm::InfS).run(w);
    ASSERT_GT(a.scheduleCandidates, 1u);
    EXPECT_GE(a.scheduleId, 0);
    EXPECT_LT(a.scheduleId, static_cast<int>(a.scheduleCandidates));
    EXPECT_GT(a.inMemOpFraction(), 0.9);

    // The pick and the resulting timing are deterministic run-to-run.
    InfinitySystem sys2(cfg);
    ExecStats b = Executor(sys2, Paradigm::InfS).run(w);
    EXPECT_EQ(b.scheduleId, a.scheduleId);
    EXPECT_EQ(b.scheduleCandidates, a.scheduleCandidates);
    EXPECT_EQ(b.chosenTile, a.chosenTile);
    EXPECT_EQ(b.cycles, a.cycles);

    // The functional result is candidate-invariant: the store must match
    // the single-schedule (fatBinary off) run exactly.
    ArrayStore picked;
    {
        InfinitySystem s(cfg);
        Executor(s, Paradigm::InfS).run(w, &picked);
    }
    SystemConfig off = cfg;
    off.fatBinary = false;
    ArrayStore legacy;
    {
        InfinitySystem s(off);
        ExecStats st = Executor(s, Paradigm::InfS).run(w, &legacy);
        EXPECT_EQ(st.scheduleId, -1);
        EXPECT_EQ(st.scheduleCandidates, 0u);
    }
    ASSERT_EQ(picked.size(), legacy.size());
    for (ArrayId id = 0; id < static_cast<ArrayId>(picked.size()); ++id)
        EXPECT_EQ(picked.array(id).data, legacy.array(id).data) << id;
}

} // namespace
} // namespace infs
