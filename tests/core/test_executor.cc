/**
 * @file
 * Paradigm-level timing sanity at the paper's scales (timing-only runs).
 * These tests check the *shape* of the paper's results: who wins, in what
 * order, and where the traffic goes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/executor.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

ExecStats
runOn(InfinitySystem &sys, Paradigm p, const Workload &w)
{
    Executor exec(sys, p);
    return exec.run(w);
}

class ParadigmTest : public ::testing::Test
{
  protected:
    InfinitySystem sys; // Full Table 2 system.
};

TEST_F(ParadigmTest, VecAdd4MOrdering)
{
    // Fig 2's headline: In-L3 > Near-L3 > Base-64 > Base-1 on 4M fp32.
    // Fig 2 assumes "data is cached in L3 and already transposed".
    Workload w = makeVecAdd(4 << 20);
    w.assumeTransposed = true;
    Tick base1 = runOn(sys, Paradigm::Base1T, w).cycles;
    Tick base = runOn(sys, Paradigm::Base, w).cycles;
    Tick near = runOn(sys, Paradigm::NearL3, w).cycles;
    Tick inl3 = runOn(sys, Paradigm::InL3, w).cycles;
    EXPECT_LT(base, base1);
    EXPECT_LT(near, base);
    EXPECT_LT(inl3, near);
    // In-L3 beats Near-L3 by an integer factor at this size (paper: 21x
    // when transposed; we include preparation, so demand less).
    EXPECT_GT(double(near) / double(inl3), 2.0);
}

TEST_F(ParadigmTest, VecAddSmallSizeFavorsNearMemory)
{
    // Fig 2: in-L3 struggles at small sizes — Eq. 2 keeps Inf-S near
    // memory, so Inf-S never does worse than Near-L3.
    Workload w = makeVecAdd(16 << 10);
    Tick near = runOn(sys, Paradigm::NearL3, w).cycles;
    Tick infs = runOn(sys, Paradigm::InfS, w).cycles;
    EXPECT_LE(infs, near + near / 4);
}

TEST_F(ParadigmTest, InfSReducesTrafficMassively)
{
    // Fig 12: 90% NoC traffic reduction over Base for Inf-S.
    Workload w = makeStencil2d(2048, 2048, 10);
    double base_traffic = 0.0, infs_traffic = 0.0;
    {
        ExecStats st = runOn(sys, Paradigm::Base, w);
        for (double v : st.nocHopBytes)
            base_traffic += v;
    }
    {
        ExecStats st = runOn(sys, Paradigm::InfS, w);
        for (double v : st.nocHopBytes)
            infs_traffic += v;
    }
    EXPECT_LT(infs_traffic, 0.4 * base_traffic);
}

TEST_F(ParadigmTest, StencilIntraTileDominatesInterTile)
{
    // Fig 13: with a reasonable tile, most movement becomes intra-tile.
    Workload w = makeStencil2d(2048, 2048, 10);
    ExecStats st = runOn(sys, Paradigm::InfS, w);
    EXPECT_GT(st.intraTileBytes, 5.0 * st.interTileBytes);
}

TEST_F(ParadigmTest, NearL3HurtsKmeansTraffic)
{
    // §8: "for kmeans Near-L3 introduces 2.6x extra NoC traffic" — the
    // indirect update is reuse-blind near memory.
    Workload w = makeKmeans(32 << 10, 128, 128, true);
    double base_traffic = 0.0, near_traffic = 0.0;
    {
        ExecStats st = runOn(sys, Paradigm::Base, w);
        for (double v : st.nocHopBytes)
            base_traffic += v;
    }
    {
        ExecStats st = runOn(sys, Paradigm::NearL3, w);
        for (double v : st.nocHopBytes)
            near_traffic += v;
    }
    EXPECT_GT(near_traffic, base_traffic);
}

TEST_F(ParadigmTest, MmDataflowPreferences)
{
    // Fig 15: Base favors inner product; Inf-S favors outer product.
    Workload inner = makeMm(2048, 2048, 2048, false);
    Workload outer = makeMm(2048, 2048, 2048, true);
    Tick base_in = runOn(sys, Paradigm::Base, inner).cycles;
    Tick base_out = runOn(sys, Paradigm::Base, outer).cycles;
    EXPECT_LT(base_in, base_out);
    Tick infs_in = runOn(sys, Paradigm::InfS, inner).cycles;
    Tick infs_out = runOn(sys, Paradigm::InfS, outer).cycles;
    EXPECT_LT(infs_out, infs_in);
    // And Inf-S outer beats the best Base (paper: 4.4x).
    EXPECT_LT(infs_out, base_in);
}

TEST_F(ParadigmTest, NoJitIsNeverSlowerWhenDecisionsAgree)
{
    // Skipping JIT lowering can only help when both variants make the
    // same offload decision; on borderline sizes Eq. 2's conservative
    // estimate may flip (§4.3), so test at unambiguous scales.
    for (Workload w : {makeStencil1d(4 << 20, 10),
                       makeGaussElim(2048)}) {
        Tick with_jit = runOn(sys, Paradigm::InfS, w).cycles;
        Tick no_jit = runOn(sys, Paradigm::InfSNoJit, w).cycles;
        EXPECT_LE(no_jit, with_jit) << w.name;
    }
}

TEST_F(ParadigmTest, GaussJitShareIsHigh)
{
    // §8: gauss_elim cannot reuse lowered commands — JIT can exceed 50%
    // of runtime; stencils amortize to a small share.
    Workload gauss = makeGaussElim(2048);
    ExecStats g = runOn(sys, Paradigm::InfS, gauss);
    double g_share = double(g.jitCycles) / double(g.cycles);
    Workload sten = makeStencil1d(4 << 20, 10);
    ExecStats s = runOn(sys, Paradigm::InfS, sten);
    double s_share = double(s.jitCycles) / double(s.cycles);
    EXPECT_GT(g_share, 0.2);
    EXPECT_LT(s_share, 0.1);
    EXPECT_GT(g_share, 3.0 * s_share);
}

TEST_F(ParadigmTest, InMemOpFractionNearOne)
{
    // Fig 14 dots: nearly all ops execute in bitlines for the dense
    // workloads.
    Workload w = makeStencil2d(2048, 2048, 10);
    ExecStats st = runOn(sys, Paradigm::InfS, w);
    EXPECT_GT(st.inMemOpFraction(), 0.9);
    ExecStats base = runOn(sys, Paradigm::Base, w);
    EXPECT_DOUBLE_EQ(base.inMemOpFraction(), 0.0);
}

TEST_F(ParadigmTest, EnergyOrderingMatchesFig18)
{
    // Fig 18: Inf-S is the most energy efficient on low-reuse workloads.
    Workload w = makeStencil1d(4 << 20, 10);
    double e_base = runOn(sys, Paradigm::Base, w).energyJoules;
    double e_near = runOn(sys, Paradigm::NearL3, w).energyJoules;
    double e_infs = runOn(sys, Paradigm::InfS, w).energyJoules;
    EXPECT_LT(e_near, e_base);
    EXPECT_LT(e_infs, e_near);
}

TEST_F(ParadigmTest, PhaseCyclesCoverTotal)
{
    Workload w = makeKmeans(32 << 10, 128, 128, true);
    ExecStats st = runOn(sys, Paradigm::InfS, w);
    ASSERT_EQ(st.phaseCycles.size(), w.phases.size());
    Tick sum = 0;
    for (const auto &[name, t] : st.phaseCycles)
        sum += t;
    // Phases plus prepare/release cover the makespan.
    EXPECT_LE(sum, st.cycles);
    EXPECT_GT(sum, st.cycles / 2);
}

TEST_F(ParadigmTest, UntileableArrayFallsBack)
{
    // §4.1: S0 not line-aligned -> in-memory disabled. In-L3 falls back
    // to the core, Inf-S to near-memory; both still complete.
    Workload w = makeVecAdd(1000); // 1000 % 16 != 0.
    ExecStats inl3 = runOn(sys, Paradigm::InL3, w);
    ExecStats infs = runOn(sys, Paradigm::InfS, w);
    EXPECT_EQ(inl3.inMemOps, 0u);
    EXPECT_EQ(infs.inMemOps, 0u);
    EXPECT_GT(inl3.cycles, 0u);
    EXPECT_GT(infs.cycles, 0u);
}

TEST(Fallback, BuildStreamsPhaseRejectedByEq2RunsNearMemory)
{
    // A phase whose stream form is built per iteration is as offloadable
    // as one with fixed streams: when Eq. 2 keeps it out of memory, Inf-S
    // runs it near memory, not on the core.
    Workload w = makeVecAdd(512);
    ASSERT_EQ(w.phases.size(), 1u);
    Phase &p = w.phases[0];
    ASSERT_FALSE(p.streams.empty());
    p.buildStreams = [streams = p.streams](std::uint64_t) {
        return streams;
    };
    p.streams.clear();
    InfinitySystem sys(testSystemConfig());
    ExecStats st = Executor(sys, Paradigm::InfS).run(w);
    EXPECT_FALSE(st.chosenTile.empty()); // Tiled, so Eq. 2 decided.
    EXPECT_EQ(st.inMemOps, 0u);
    EXPECT_EQ(st.regionsDegraded, 0u);
    EXPECT_GT(st.nearMemCycles, 0u);
    EXPECT_EQ(st.coreCycles, 0u);
}

TEST_F(ParadigmTest, Fig2CurveInL3FavorsLargeSizes)
{
    // Fig 2: In-L3's advantage grows with input size.
    double ratio_small, ratio_large;
    {
        Workload w = makeVecAdd(64 << 10);
        w.assumeTransposed = true;
        ratio_small = double(runOn(sys, Paradigm::Base, w).cycles) /
                      double(runOn(sys, Paradigm::InL3, w).cycles);
    }
    {
        Workload w = makeVecAdd(4 << 20);
        w.assumeTransposed = true;
        ratio_large = double(runOn(sys, Paradigm::Base, w).cycles) /
                      double(runOn(sys, Paradigm::InL3, w).cycles);
    }
    EXPECT_GT(ratio_large, ratio_small);
}

/** buildTdfg calls of one workload, keyed by (phase index, iteration). */
struct BuildCounts {
    std::mutex mu;
    std::map<std::pair<std::size_t, std::uint64_t>, unsigned> calls;

    unsigned
    of(std::size_t phase, std::uint64_t iter)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = calls.find({phase, iter});
        return it == calls.end() ? 0 : it->second;
    }
};

/** Wrap every phase's buildTdfg of @p w so that it counts its calls. */
std::shared_ptr<BuildCounts>
countBuilds(Workload &w)
{
    auto counts = std::make_shared<BuildCounts>();
    for (std::size_t i = 0; i < w.phases.size(); ++i) {
        Phase &p = w.phases[i];
        if (!p.buildTdfg)
            continue;
        p.buildTdfg = [counts, i, build = p.buildTdfg](std::uint64_t it) {
            {
                std::lock_guard<std::mutex> lock(counts->mu);
                ++counts->calls[{i, it}];
            }
            return build(it);
        };
    }
    return counts;
}

TEST(GraphBuilds, ExecutorBuildsEachPhaseGraphOnce)
{
    // The layout hints, the plan and the lowering share one graph per
    // phase; later iterations are built only by non-memoized phases that
    // run in memory, each exactly once.
    for (bool transposed : {false, true}) {
        for (const BenchScenario &sc : benchRegistry()) {
            SCOPED_TRACE(std::string(sc.name) +
                         (transposed ? " transposed" : " cold"));
            Workload w = sc.quick();
            w.assumeTransposed = transposed;
            auto counts = countBuilds(w);
            InfinitySystem sys(testSystemConfig());
            Executor(sys, Paradigm::InfS).run(w);
            for (std::size_t i = 0; i < w.phases.size(); ++i) {
                const Phase &p = w.phases[i];
                if (!p.buildTdfg)
                    continue;
                EXPECT_EQ(counts->of(i, 0), 1u) << p.name;
                for (std::uint64_t it = 1; it < p.iterations; ++it)
                    EXPECT_LE(counts->of(i, it),
                              p.sameTdfgEachIter ? 0u : 1u)
                        << p.name << " iteration " << it;
            }
        }
    }
}

TEST(GraphBuilds, NonMemoizedPhaseBuildsEachIterationOnce)
{
    // gauss_elim re-lowers every iteration. At n = 32 the array tiles, and
    // steady state forces the phase in memory, so every iteration's graph
    // is lowered: each must be built exactly once.
    Workload w = makeGaussElim(32);
    w.assumeTransposed = true;
    auto counts = countBuilds(w);
    InfinitySystem sys(testSystemConfig());
    ExecStats st = Executor(sys, Paradigm::InfS).run(w);
    ASSERT_EQ(st.regionsDegraded, 0u);
    ASSERT_GT(st.inMemOps, 0u);
    ASSERT_EQ(w.phases.size(), 1u);
    ASSERT_FALSE(w.phases[0].sameTdfgEachIter);
    for (std::uint64_t it = 0; it < w.phases[0].iterations; ++it)
        EXPECT_EQ(counts->of(0, it), 1u) << "iteration " << it;
    EXPECT_EQ(counts->calls.size(), w.phases[0].iterations);
}

TEST(GraphBuilds, PlanPrimaryJobBuildsEachPhaseGraphOnce)
{
    const SystemConfig cfg = testSystemConfig();
    for (const BenchScenario &sc : benchRegistry()) {
        SCOPED_TRACE(sc.name);
        Workload w = sc.quick();
        auto counts = countBuilds(w);
        planPrimaryJob(w, cfg, nullptr, 0);
        std::size_t expected = 0;
        for (std::size_t i = 0; i < w.phases.size(); ++i) {
            if (!w.phases[i].buildTdfg)
                continue;
            ++expected;
            EXPECT_EQ(counts->of(i, 0), 1u) << w.phases[i].name;
        }
        EXPECT_EQ(counts->calls.size(), expected);
    }
}

} // namespace
} // namespace infs
