/**
 * @file
 * Differential determinism: the bank-parallel engine must be bit-exact
 * against the sequential path. Fabric outputs, every ExecStats field,
 * and the fault-injection counters have to match between hostThreads=1
 * and hostThreads=8 — the pool changes wall-clock time only, never the
 * simulated machine (DESIGN.md §10).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/executor.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "uarch/bit_exec.hh"
#include "uarch/system.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

unsigned
slotOf(const InMemProgram &prog, ArrayId a)
{
    for (auto &[id, wl] : prog.arraySlots)
        if (id == a)
            return wl;
    infs_panic("array %d has no slot", a);
}

unsigned
outputSlotOf(const InMemProgram &prog, ArrayId a)
{
    for (auto &[id, wl] : prog.outputSlots)
        if (id == a)
            return wl;
    infs_panic("array %d has no output slot", a);
}

// ----------------------------------------------------------------------
// Fabric level: same program, pooled vs. sequential execution.
// ----------------------------------------------------------------------

/** Stencil with inter-tile shifts: the hardest command mix (gather/
 * scatter crossings plus multi-tile computes). */
TEST(ParallelFabric, StencilBitExactAcrossPoolSizes)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    const Coord n = 2048;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    g.output(g.compute(BitOp::Add,
                       {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)}),
             1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    ASSERT_GT(prog->numInterShift, 0u);

    std::vector<float> va(n);
    Rng rng(11);
    for (auto &v : va)
        v = rng.nextFloat(-8, 8);

    auto run = [&](ThreadPool *pool) {
        BitAccurateFabric fab(lay);
        if (pool)
            fab.setThreadPool(pool);
        std::vector<float> out(n);
        fab.loadArray(va, slotOf(*prog, 0));
        fab.execute(*prog);
        fab.storeArray(out, outputSlotOf(*prog, 1));
        return out;
    };

    const std::vector<float> seq = run(nullptr);
    ThreadPool pool8(8);
    const std::vector<float> par = run(&pool8);
    ASSERT_EQ(seq.size(), par.size());
    for (Coord i = 0; i < n; ++i) {
        auto s = static_cast<std::size_t>(i);
        // Bit-exact, not approximately equal.
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[s]),
                  std::bit_cast<std::uint32_t>(par[s]))
            << i;
    }
}

/** 2-D broadcast + elementwise chain across many tiles. */
TEST(ParallelFabric, BroadcastChainBitExactAcrossPoolSizes)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    const Coord n0 = 64, n1 = 512;
    TdfgGraph g(2, "bc_chain");
    NodeId a = g.tensor(0, HyperRect::array({n0, n1}));
    NodeId b = g.tensor(1, HyperRect::array({n0, n1}));
    NodeId m = g.compute(BitOp::Mul, {a, b});
    g.output(g.compute(BitOp::Add, {m, g.constant(0.25)}), 2);
    TiledLayout lay({n0, n1}, {16, 16}); // Tile volume = 256 bitlines.
    auto prog = jit.lower(g, lay, map);

    const std::size_t vol = static_cast<std::size_t>(n0 * n1);
    std::vector<float> va(vol), vb(vol);
    Rng rng(13);
    for (std::size_t i = 0; i < vol; ++i) {
        va[i] = rng.nextFloat(-4, 4);
        vb[i] = rng.nextFloat(-4, 4);
    }

    auto run = [&](ThreadPool *pool) {
        BitAccurateFabric fab(lay);
        if (pool)
            fab.setThreadPool(pool);
        std::vector<float> out(vol);
        fab.loadArray(va, slotOf(*prog, 0));
        fab.loadArray(vb, slotOf(*prog, 1));
        fab.execute(*prog);
        fab.storeArray(out, outputSlotOf(*prog, 2));
        return out;
    };

    const std::vector<float> seq = run(nullptr);
    ThreadPool pool8(8);
    const std::vector<float> par = run(&pool8);
    for (std::size_t i = 0; i < vol; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[i]),
                  std::bit_cast<std::uint32_t>(par[i]))
            << i;
}

/** Faults: the planned-fault path must inject the same flips at the
 * same commands for any pool size, and repair all of them. */
TEST(ParallelFabric, FaultInjectionIdenticalAcrossPoolSizes)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    const Coord n = 1024;
    TdfgGraph g(1, "mul_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    g.output(g.compute(BitOp::Add, {g.compute(BitOp::Mul, {a, b}), a}), 2);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);

    std::vector<float> va(n), vb(n);
    Rng rng(17);
    for (Coord i = 0; i < n; ++i) {
        va[static_cast<std::size_t>(i)] = rng.nextFloat(-10, 10);
        vb[static_cast<std::size_t>(i)] = rng.nextFloat(-10, 10);
    }

    auto run = [&](ThreadPool *pool, FaultStats &fs_out) {
        FaultConfig fc;
        fc.enabled = true;
        fc.sramBitFlipRate = 1.0; // Every compute command draws a flip.
        FaultInjector inj(fc);
        BitAccurateFabric fab(lay);
        fab.attachFaultInjector(&inj);
        if (pool)
            fab.setThreadPool(pool);
        std::vector<float> out(n);
        fab.loadArray(va, slotOf(*prog, 0));
        fab.loadArray(vb, slotOf(*prog, 1));
        fab.execute(*prog);
        fab.storeArray(out, outputSlotOf(*prog, 2));
        fs_out = inj.snapshot();
        return out;
    };

    FaultStats fs_seq, fs_par;
    const std::vector<float> seq = run(nullptr, fs_seq);
    ThreadPool pool8(8);
    const std::vector<float> par = run(&pool8, fs_par);

    // Same flip schedule, same detections, same retries.
    EXPECT_GE(fs_seq.sramBitFlips, 2u);
    EXPECT_EQ(fs_seq.sramBitFlips, fs_par.sramBitFlips);
    EXPECT_EQ(fs_seq.detected, fs_par.detected);
    EXPECT_EQ(fs_seq.retries, fs_par.retries);
    // And every fault was repaired: outputs are correct and identical.
    for (Coord i = 0; i < n; ++i) {
        auto s = static_cast<std::size_t>(i);
        EXPECT_FLOAT_EQ(seq[s], va[s] * vb[s] + va[s]) << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[s]),
                  std::bit_cast<std::uint32_t>(par[s]))
            << i;
    }
}

/** Every deterministic FabricStats field (all but the per-kind wall
 * time). */
void
expectFabricCountersEqual(const FabricStats &a, const FabricStats &b)
{
    for (std::size_t k = 0; k < a.byKind.size(); ++k)
        EXPECT_EQ(a.byKind[k].count, b.byKind[k].count) << "kind " << k;
    EXPECT_EQ(a.bankOps, b.bankOps);
    EXPECT_EQ(a.maskCacheHits, b.maskCacheHits);
    EXPECT_EQ(a.maskCacheMisses, b.maskCacheMisses);
    EXPECT_EQ(a.scratchAllocs, b.scratchAllocs);
}

/** Staging and readback are the transpose unit, not commands: they must
 * leave every fabric counter alone (the occupancy history feeds
 * chooseSchedule), and their bits must not depend on the pool size. */
TEST(ParallelFabric, StagingLeavesCountersAndBitsIdentical)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    // Partial tiles along both dims, 4-element dim-0 runs.
    const Coord n0 = 50, n1 = 40;
    TdfgGraph g(2, "stencil2d");
    NodeId a0 = g.tensor(0, HyperRect({0, 0}, {n0 - 2, n1}));
    NodeId a1 = g.tensor(0, HyperRect({1, 0}, {n0 - 1, n1}));
    NodeId a2 = g.tensor(0, HyperRect({2, 0}, {n0, n1}));
    g.output(g.compute(BitOp::Add,
                       {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)}),
             1);
    TiledLayout lay({n0, n1}, {4, 64});
    auto prog = jit.lower(g, lay, map);
    ASSERT_GT(prog->numInterShift, 0u);

    const std::size_t vol = static_cast<std::size_t>(n0 * n1);
    std::vector<float> va(vol);
    Rng rng(19);
    for (auto &v : va)
        v = rng.nextFloat(-8, 8);

    auto run = [&](ThreadPool *pool) {
        BitAccurateFabric fab(lay);
        fab.setThreadPool(pool);
        std::vector<float> out(vol);
        fab.loadArray(va, slotOf(*prog, 0));
        // Counters start at zero and staging leaves them there.
        expectFabricCountersEqual(fab.stats(), FabricStats{});
        fab.execute(*prog);
        const FabricStats executed = fab.stats();
        EXPECT_GT(executed.maskCacheMisses, 0u);
        fab.loadArray(va, slotOf(*prog, 0));
        expectFabricCountersEqual(fab.stats(), executed);
        fab.execute(*prog);
        const FabricStats twice = fab.stats();
        fab.storeArray(out, outputSlotOf(*prog, 1));
        fab.storeArray(out, outputSlotOf(*prog, 1));
        expectFabricCountersEqual(fab.stats(), twice);
        return out;
    };

    const std::vector<float> seq = run(nullptr);
    ThreadPool pool1(1), pool4(4);
    const std::vector<float> one = run(&pool1);
    const std::vector<float> four = run(&pool4);
    for (std::size_t i = 0; i < vol; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[i]),
                  std::bit_cast<std::uint32_t>(one[i]))
            << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[i]),
                  std::bit_cast<std::uint32_t>(four[i]))
            << i;
    }
}

/** A 3-D stencil over many tiles (partial ones along every dim): the
 * tile-major runs, plane moves along each dim and the shared tile masks
 * must give the same bits and the same counters inline and on 8 threads
 * (the counters feed chooseSchedule). */
TEST(ParallelFabric, ThreeDimStencilCountersIdenticalAcrossPoolSizes)
{
    SystemConfig cfg = testSystemConfig();
    AddressMap map(cfg.l3);
    JitCompiler jit(cfg);
    const Coord n0 = 18, n1 = 30, n2 = 21;
    TdfgGraph g(3, "stencil3d");
    auto box = [&](unsigned d, Coord lo) {
        std::vector<Coord> l = {1, 1, 1}, h = {n0 - 1, n1 - 1, n2 - 1};
        l[d] += lo;
        h[d] += lo;
        return g.tensor(0, HyperRect(l, h));
    };
    // One neighbour per dim, alternating directions.
    g.output(g.compute(BitOp::Add, {box(0, 0), g.move(box(0, -1), 0, 1),
                                    g.move(box(1, 1), 1, -1),
                                    g.move(box(2, -1), 2, 1)}),
             1);
    TiledLayout lay({n0, n1, n2}, {4, 8, 8});
    auto prog = jit.lower(g, lay, map);
    ASSERT_GT(prog->numInterShift, 0u);

    const std::size_t vol = static_cast<std::size_t>(n0 * n1 * n2);
    std::vector<float> va(vol);
    Rng rng(23);
    for (auto &v : va)
        v = rng.nextFloat(-8, 8);

    auto run = [&](ThreadPool *pool, FabricStats &st) {
        BitAccurateFabric fab(lay);
        fab.setThreadPool(pool);
        std::vector<float> out(vol);
        fab.loadArray(va, slotOf(*prog, 0));
        fab.execute(*prog);
        fab.storeArray(out, outputSlotOf(*prog, 1));
        st = fab.stats();
        return out;
    };

    FabricStats st1, st8;
    const std::vector<float> seq = run(nullptr, st1);
    ThreadPool pool8(8);
    const std::vector<float> par = run(&pool8, st8);
    expectFabricCountersEqual(st1, st8);
    // Interior tiles share their masks.
    EXPECT_GT(st1.maskCacheHits, st1.maskCacheMisses);
    for (std::size_t i = 0; i < vol; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(seq[i]),
                  std::bit_cast<std::uint32_t>(par[i]))
            << i;
}

// ----------------------------------------------------------------------
// System level: full Executor runs, hostThreads=1 vs hostThreads=8.
// ----------------------------------------------------------------------

/** Field-by-field ExecStats equality. Floating-point fields are summed
 * in a fixed order by the engine, so even they must match exactly. */
void
expectStatsEqual(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.jitCycles, b.jitCycles);
    EXPECT_EQ(a.moveCycles, b.moveCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.finalReduceCycles, b.finalReduceCycles);
    EXPECT_EQ(a.mixCycles, b.mixCycles);
    EXPECT_EQ(a.nearMemCycles, b.nearMemCycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.syncCycles, b.syncCycles);
    ASSERT_EQ(a.nocHopBytes.size(), b.nocHopBytes.size());
    for (std::size_t c = 0; c < a.nocHopBytes.size(); ++c)
        EXPECT_DOUBLE_EQ(a.nocHopBytes[c], b.nocHopBytes[c]) << c;
    EXPECT_DOUBLE_EQ(a.nocUtilization, b.nocUtilization);
    EXPECT_DOUBLE_EQ(a.intraTileBytes, b.intraTileBytes);
    EXPECT_DOUBLE_EQ(a.interTileBytes, b.interTileBytes);
    EXPECT_DOUBLE_EQ(a.interTileNocBytes, b.interTileNocBytes);
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.inMemOps, b.inMemOps);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_DOUBLE_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.faultsDetected, b.faultsDetected);
    EXPECT_EQ(a.faultRetries, b.faultRetries);
    EXPECT_EQ(a.retryCycles, b.retryCycles);
    EXPECT_EQ(a.regionsDegraded, b.regionsDegraded);
    EXPECT_EQ(a.phaseCycles, b.phaseCycles);
    EXPECT_EQ(a.chosenTile, b.chosenTile);
}

ExecStats
runWith(unsigned host_threads, const Workload &w, Paradigm p,
        bool faults = false)
{
    SystemConfig cfg = testSystemConfig();
    cfg.hostThreads = host_threads;
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.seed = 0x5eed;
        cfg.fault.sramBitFlipRate = 0.5;
        cfg.fault.cmdTransientRate = 0.25;
    }
    InfinitySystem sys(cfg);
    return Executor(sys, p).run(w);
}

class HostThreadsTest : public ::testing::TestWithParam<Paradigm>
{
};

TEST_P(HostThreadsTest, StencilStatsIdentical)
{
    Workload w = makeStencil2d(512, 512, 6);
    w.assumeTransposed = true;
    expectStatsEqual(runWith(1, w, GetParam()), runWith(8, w, GetParam()));
}

TEST_P(HostThreadsTest, MmStatsIdentical)
{
    Workload w = makeMm(64, 64, 64, 2);
    w.assumeTransposed = true;
    expectStatsEqual(runWith(1, w, GetParam()), runWith(8, w, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Paradigms, HostThreadsTest,
                         ::testing::Values(Paradigm::InfS,
                                           Paradigm::InfSNoJit,
                                           Paradigm::InL3));

TEST(HostThreads, FaultCountersIdentical)
{
    Workload w = makeStencil2d(256, 256, 4);
    w.assumeTransposed = true;
    ExecStats a = runWith(1, w, Paradigm::InfS, true);
    ExecStats b = runWith(8, w, Paradigm::InfS, true);
    EXPECT_GT(a.faultsInjected, 0u);
    expectStatsEqual(a, b);
}

TEST(HostThreads, FunctionalResultsIdentical)
{
    // Not just timing: the computed arrays themselves must agree.
    Workload w = makeStencil1d(4096, 5);
    w.assumeTransposed = true;

    auto run = [&](unsigned host_threads) {
        SystemConfig cfg = testSystemConfig();
        cfg.hostThreads = host_threads;
        InfinitySystem sys(cfg);
        ArrayStore store;
        Executor(sys, Paradigm::InfS).run(w, &store);
        return store;
    };
    ArrayStore s1 = run(1);
    ArrayStore s8 = run(8);
    ASSERT_EQ(s1.size(), s8.size());
    for (ArrayId a = 0; a < static_cast<ArrayId>(s1.size()); ++a) {
        const auto &d1 = s1.array(a).data;
        const auto &d8 = s8.array(a).data;
        ASSERT_EQ(d1.size(), d8.size()) << "array " << a;
        for (std::size_t i = 0; i < d1.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(d1[i]),
                      std::bit_cast<std::uint32_t>(d8[i]))
                << "array " << a << " elem " << i;
    }
}

TEST(HostThreads, GaussElimNonMemoizedPathIdentical)
{
    // gauss_elim rebuilds its tDFG every iteration (no memo key), so it
    // exercises the block-parallel per-iteration lowering path.
    Workload w = makeGaussElim(96);
    w.assumeTransposed = true;
    expectStatsEqual(runWith(1, w, Paradigm::InfS),
                     runWith(8, w, Paradigm::InfS));
}

} // namespace
} // namespace infs
