#include <gtest/gtest.h>

#include "jit/jit.hh"

namespace infs {
namespace {

TEST(CompileMove, PaperFig9RightShiftByOne)
{
    // Fig 9: right shift column [0,4) by 1 with tile size 2 generates one
    // intra-tile shift for even positions (+1) and one inter-tile shift
    // for odd positions (cross one tile, land at -1).
    auto cmds = compileMove(HyperRect::box2(0, 4, 0, 2), 0, 1, 2);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, CmdKind::IntraShift);
    EXPECT_EQ(cmds[0].maskLo, 0);
    EXPECT_EQ(cmds[0].maskHi, 1);
    EXPECT_EQ(cmds[0].interTileDist, 0);
    EXPECT_EQ(cmds[0].intraTileDist, 1);
    EXPECT_EQ(cmds[1].kind, CmdKind::InterShift);
    EXPECT_EQ(cmds[1].maskLo, 1);
    EXPECT_EQ(cmds[1].maskHi, 2);
    EXPECT_EQ(cmds[1].interTileDist, 1);
    EXPECT_EQ(cmds[1].intraTileDist, -1);
}

TEST(CompileMove, TileAlignedDistanceIsPureInterTile)
{
    auto cmds = compileMove(HyperRect::interval(0, 64), 0, 16, 16);
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].kind, CmdKind::InterShift);
    EXPECT_EQ(cmds[0].interTileDist, 1);
    EXPECT_EQ(cmds[0].intraTileDist, 0);
    EXPECT_EQ(cmds[0].maskLo, 0);
    EXPECT_EQ(cmds[0].maskHi, 16);
}

TEST(CompileMove, BackwardShift)
{
    // Alg. 2 lines 9-12 with d = -1, t = 2.
    auto cmds = compileMove(HyperRect::interval(0, 4), 0, -1, 2);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, CmdKind::InterShift);
    EXPECT_EQ(cmds[0].maskLo, 0);
    EXPECT_EQ(cmds[0].maskHi, 1);
    EXPECT_EQ(cmds[0].interTileDist, -1);
    EXPECT_EQ(cmds[0].intraTileDist, 1);
    EXPECT_EQ(cmds[1].kind, CmdKind::IntraShift);
    EXPECT_EQ(cmds[1].maskLo, 1);
    EXPECT_EQ(cmds[1].maskHi, 2);
    EXPECT_EQ(cmds[1].intraTileDist, -1);
}

TEST(CompileMove, ZeroDistanceNoCommands)
{
    EXPECT_TRUE(compileMove(HyperRect::interval(0, 8), 0, 0, 4).empty());
}

TEST(CompileMove, EmptyMaskIntersectionFiltered)
{
    // Paper Fig 9 CMD 2: AR[0,4)x[2,3) shifted right by one needs only an
    // intra-tile shift; the inter-tile command's mask [1,2) does not
    // intersect the tensor's dim-0 coverage... here we test the 1-D
    // analogue: tensor occupying only position 0 of each tile, shift +1.
    auto cmds = compileMove(HyperRect::interval(2, 3), 0, 1, 2);
    ASSERT_EQ(cmds.size(), 1u); // Only the intra-tile command survives.
    EXPECT_EQ(cmds[0].kind, CmdKind::IntraShift);
}

TEST(CompileMove, PropertyEveryElementMovesByDist)
{
    // Functional check of Alg. 2: simulate commands over a 1-D array of
    // positions and verify every element lands exactly dist away.
    for (Coord dist : {1, -1, 3, -3, 7, 16, -16, 21, -21}) {
        const Coord n = 64, t = 8;
        auto cmds = compileMove(HyperRect::interval(0, n), 0, dist, t);
        std::vector<Coord> dst(n, -1);
        for (const auto &c : cmds) {
            for (Coord x = 0; x < n; ++x) {
                Coord pos = x % t;
                if (pos < c.maskLo || pos >= c.maskHi)
                    continue;
                Coord moved = x + c.interTileDist * t + c.intraTileDist;
                if (moved >= 0 && moved < n) {
                    EXPECT_EQ(dst[x], -1) << "double move of " << x;
                    dst[x] = moved;
                }
            }
        }
        for (Coord x = 0; x < n; ++x) {
            Coord want = x + dist;
            if (want >= 0 && want < n) {
                EXPECT_EQ(dst[x], want)
                    << "dist " << dist << " elem " << x;
            }
        }
    }
}

class JitLowerTest : public ::testing::Test
{
  protected:
    JitLowerTest()
        : cfg(testSystemConfig()), map(cfg.l3), jit(cfg)
    {
    }

    SystemConfig cfg;
    AddressMap map;
    JitCompiler jit;
};

TEST_F(JitLowerTest, VecAddProgram)
{
    const Coord n = 4096;
    TdfgGraph g(1, "vec_add");
    NodeId a = g.tensor(0, HyperRect::interval(0, n));
    NodeId b = g.tensor(1, HyperRect::interval(0, n));
    NodeId c = g.compute(BitOp::Add, {a, b});
    g.output(c, 2);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    // One aligned compute command, no movement, no syncs.
    EXPECT_EQ(prog->numCompute, 1u);
    EXPECT_EQ(prog->numIntraShift, 0u);
    EXPECT_EQ(prog->numInterShift, 0u);
    EXPECT_EQ(prog->numSync, 0u);
    EXPECT_GT(prog->jitTicks, 0u);
    // The compute touches 16 tiles; contiguous tile->array mapping puts
    // them all in bank 0 (64 arrays/bank in the test config).
    EXPECT_EQ(prog->commands[0].banks.size(), 1u);
}

TEST_F(JitLowerTest, StencilProgramHasShiftsAndSync)
{
    const Coord n = 4096;
    TdfgGraph g(1, "stencil1d");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    NodeId s = g.compute(BitOp::Add,
                         {g.move(a0, 0, 1), a1, g.move(a2, 0, -1)});
    g.output(s, 1);
    TiledLayout lay({n}, {256});
    auto prog = jit.lower(g, lay, map);
    EXPECT_GT(prog->numIntraShift, 0u);
    EXPECT_GT(prog->numInterShift, 0u);
    // Sync must separate inter-tile shifts from the consuming compute.
    EXPECT_GE(prog->numSync, 1u);
    bool sync_before_compute = false;
    bool seen_sync = false;
    for (const auto &c : prog->commands) {
        if (c.kind == CmdKind::Sync)
            seen_sync = true;
        if (c.kind == CmdKind::Compute && seen_sync)
            sync_before_compute = true;
    }
    EXPECT_TRUE(sync_before_compute);
}

TEST_F(JitLowerTest, ConstantsBecomeImmediates)
{
    TdfgGraph g(1, "scale");
    NodeId a = g.tensor(0, HyperRect::interval(0, 1024));
    NodeId c = g.constant(2.5);
    NodeId m = g.compute(BitOp::Mul, {a, c});
    g.output(m, 1);
    TiledLayout lay({1024}, {256});
    auto prog = jit.lower(g, lay, map);
    ASSERT_EQ(prog->numCompute, 1u);
    EXPECT_TRUE(prog->commands[0].useImm);
    EXPECT_DOUBLE_EQ(prog->commands[0].imm, 2.5);
}

TEST_F(JitLowerTest, ReduceLowersToShiftAddRounds)
{
    TdfgGraph g(1, "sum");
    NodeId a = g.tensor(0, HyperRect::interval(0, 4096));
    g.reduce(a, BitOp::Add, 0);
    TiledLayout lay({4096}, {256});
    auto prog = jit.lower(g, lay, map);
    // log2(256) = 8 in-tile rounds of (intra shift + add), then
    // log2(16 tiles) = 4 synchronized inter-tile rounds for the
    // partials.
    EXPECT_EQ(prog->numIntraShift, 8u);
    EXPECT_EQ(prog->numInterShift, 4u);
    EXPECT_EQ(prog->numCompute, 12u);
    EXPECT_GE(prog->numSync, 4u);
}

TEST_F(JitLowerTest, MemoizationReusesPrograms)
{
    TdfgGraph g(1, "iter");
    NodeId a = g.tensor(0, HyperRect::interval(0, 1024));
    g.output(g.compute(BitOp::Add, {g.move(a, 0, 1), a}), 1);
    TiledLayout lay({1024}, {256});
    auto p1 = jit.lower(g, lay, map, "iter/1024/256");
    auto p2 = jit.lower(g, lay, map, "iter/1024/256");
    EXPECT_EQ(jit.stats().lowerings, 1u);
    EXPECT_EQ(jit.stats().memoHits, 1u);
    EXPECT_FALSE(p1->memoized);
    EXPECT_TRUE(p2->memoized);
    EXPECT_EQ(p2->jitTicks, 0u); // Cached reuse skips lowering time.
    EXPECT_EQ(p1->commands.size(), p2->commands.size());
}

TEST_F(JitLowerTest, BoundaryTilesSkipUninvolvedBanks)
{
    // A tensor covering only the first tile maps to exactly one bank.
    TdfgGraph g(1, "small");
    NodeId a = g.tensor(0, HyperRect::interval(0, 256));
    NodeId b = g.tensor(1, HyperRect::interval(0, 256));
    g.output(g.compute(BitOp::Add, {a, b}), 2);
    TiledLayout lay({4096}, {256});
    auto prog = jit.lower(g, lay, map);
    ASSERT_EQ(prog->numCompute, 1u);
    EXPECT_EQ(prog->commands[0].banks.size(), 1u);
}

TEST_F(JitLowerTest, RegisterPressurePanicsWithoutSpilling)
{
    // §6 limitation 3: deliberately exceed the wordline slots.
    TdfgGraph g(1, "pressure");
    std::vector<NodeId> live;
    // Chain of moves each needing a fresh slot while all stay live.
    NodeId a = g.tensor(0, HyperRect::interval(0, 1024));
    for (int i = 0; i < 12; ++i)
        live.push_back(g.move(a, 0, i + 1));
    std::vector<NodeId> all = live;
    NodeId acc = all[0];
    for (std::size_t i = 1; i < all.size(); ++i)
        acc = g.compute(BitOp::Add, {acc, all[i]});
    g.output(acc, 1);
    TiledLayout lay({1024}, {256});
    EXPECT_DEATH((void)jit.lower(g, lay, map), "wordline");
}

TEST_F(JitLowerTest, TryLowerReportsOutOfSlotsAsDiagnostic)
{
    // Same register pressure as above, but through the recoverable entry
    // point: no death, a typed error the executor can degrade on.
    TdfgGraph g(1, "pressure");
    std::vector<NodeId> live;
    NodeId a = g.tensor(0, HyperRect::interval(0, 1024));
    for (int i = 0; i < 12; ++i)
        live.push_back(g.move(a, 0, i + 1));
    NodeId acc = live[0];
    for (std::size_t i = 1; i < live.size(); ++i)
        acc = g.compute(BitOp::Add, {acc, live[i]});
    g.output(acc, 1);
    TiledLayout lay({1024}, {256});
    auto res = jit.tryLower(g, lay, map);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::OutOfSlots);
    EXPECT_NE(res.error().message.find("wordline"), std::string::npos);
    EXPECT_EQ(jit.stats().lowerings, 0u); // Failures are not counted.
}

TEST_F(JitLowerTest, TryLowerRejectsOversizedMoveDistance)
{
    // A move spanning the whole array extent cannot be expressed as
    // intra-/inter-tile shifts within the bounding rect.
    TdfgGraph g(1, "far_move");
    NodeId a = g.tensor(0, HyperRect::interval(0, 1024));
    g.output(g.move(a, 0, 1024), 1);
    TiledLayout lay({1024}, {256});
    auto res = jit.tryLower(g, lay, map);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::UnsupportedMove);
}

TEST_F(JitLowerTest, TryLowerRejectsMoveAlongMissingDim)
{
    TdfgGraph g(2, "bad_dim");
    NodeId a = g.tensor(0, HyperRect::box2(0, 64, 0, 4));
    g.output(g.move(a, 1, 1), 1);
    TiledLayout lay({1024}, {256}); // Rank-1 layout: dim 1 is missing.
    auto res = jit.tryLower(g, lay, map);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrCode::UnsupportedMove);
}

TEST(JitNumSlots, TracksElementTypeAndGuardsUnderflow)
{
    SystemConfig cfg = testSystemConfig(); // 256 wordlines.
    EXPECT_EQ(JitCompiler(cfg).numSlots(), 7u); // 256/32 - 1 (scratch).
    cfg.tensor.elemType = DType::Int64;
    EXPECT_EQ(JitCompiler(cfg).numSlots(), 3u);
    cfg.tensor.elemType = DType::Int8;
    EXPECT_EQ(JitCompiler(cfg).numSlots(), 31u);
    // Fewer wordlines than element bits: zero slots, no underflow wrap.
    cfg.tensor.elemType = DType::Fp32;
    cfg.l3.wordlines = 16;
    EXPECT_EQ(JitCompiler(cfg).numSlots(), 0u);
    // A single slot is all scratch: still unusable.
    cfg.l3.wordlines = 32;
    EXPECT_EQ(JitCompiler(cfg).numSlots(), 0u);
}

TEST(OffloadDecision, LargeTensorsGoInMemory)
{
    SystemConfig cfg = defaultSystemConfig();
    TdfgSummary s;
    s.numNodes = 8;
    s.numCompute = 3;
    s.maxTensorElems = 4 << 20; // 4M elements.
    OffloadDecision d = decideOffload(s, cfg);
    EXPECT_TRUE(d.inMemory);
    EXPECT_GT(d.coreCycles, d.inMemCycles);
}

TEST(OffloadDecision, TinyTensorsStayNearMemory)
{
    SystemConfig cfg = defaultSystemConfig();
    TdfgSummary s;
    s.numNodes = 8;
    s.numCompute = 3;
    s.maxTensorElems = 1024; // Small input (Fig 2's small sizes).
    OffloadDecision d = decideOffload(s, cfg);
    EXPECT_FALSE(d.inMemory);
}

TEST(OffloadDecision, PrecompiledJitLowersTheBar)
{
    SystemConfig cfg = defaultSystemConfig();
    TdfgSummary s;
    s.numNodes = 40;
    s.numCompute = 4;
    s.maxTensorElems = 40000;
    OffloadDecision with_jit = decideOffload(s, cfg, false);
    OffloadDecision no_jit = decideOffload(s, cfg, true);
    EXPECT_LT(no_jit.inMemCycles, with_jit.inMemCycles);
}

} // namespace
} // namespace infs
