#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "jit/tiling.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

L3Config
l3()
{
    return L3Config{};
}

TEST(Tiling, ValidTilesSatisfyConstraints)
{
    TilingPolicy pol(l3());
    // 2k x 2k fp32 array (Table 3): L = 16 elems/line.
    auto tiles = pol.validTiles({2048, 2048}, 4);
    ASSERT_FALSE(tiles.empty());
    const std::int64_t B = 256;
    const std::int64_t W = 16 * 16;
    const std::int64_t L = 16;
    for (const auto &t : tiles) {
        std::int64_t prod = 1;
        for (Coord v : t)
            prod *= v;
        EXPECT_EQ(prod, B);                    // Constraint 1.
        EXPECT_EQ((t[0] * W) % L, 0);          // Constraint 2.
    }
    // All power-of-two factorizations of 256 over 2 dims: 9 options.
    EXPECT_EQ(tiles.size(), 9u);
}

TEST(Tiling, UnalignedInnermostDimDisablesInMemory)
{
    TilingPolicy pol(l3());
    // S0 = 1000 not divisible by 16 -> in-memory computing disabled.
    EXPECT_TRUE(pol.validTiles({1000, 64}, 4).empty());
    // But 1024 works.
    EXPECT_FALSE(pol.validTiles({1024, 64}, 4).empty());
}

TEST(Tiling, ShiftPrefersSquare)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.shiftDims = {0, 1};
    TileDecision d = pol.choose({2048, 2048}, 4, hints);
    ASSERT_TRUE(d.valid);
    // §8: "picking a balanced tile size (16x16 for 2D arrays)".
    EXPECT_EQ(d.tile, (std::vector<Coord>{16, 16}));
}

TEST(Tiling, ReducePrefersLargeReducedDim)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 0;
    hints.broadcastDims = {1};
    // kmeans/in-like: reduced dim has extent 128; tiling by 128 allows
    // pure in-memory reduction (§8 Fig 16 discussion).
    TileDecision d = pol.choose({128, 32768}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.tile[0], 128);
    EXPECT_EQ(d.tile[1], 2);
}

TEST(Tiling, BroadcastPrefersSmallInnermost)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.broadcastDims = {0, 1};
    TileDecision d = pol.choose({2048, 2048}, 4, hints);
    ASSERT_TRUE(d.valid);
    // Smallest valid innermost tile (constraint 2 allows T0 = 1 since
    // W = 256 is a multiple of L = 16).
    EXPECT_EQ(d.tile[0], 1);
}

TEST(Tiling, ReductionOutranksBroadcast)
{
    // §4.1 priority: reduction > broadcast. With no shifts, the reduced
    // dimension takes the whole tile even though broadcast would prefer
    // a small innermost tile on the same axis.
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 1;
    hints.broadcastDims = {0};
    TileDecision d = pol.choose({4096, 4096}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.tile[1], 256);
}

TEST(Tiling, ShiftsTemperTheReducedDimension)
{
    // With shifts in play the balanced tile beats an extreme reduced-dim
    // tile (conv3d's regime, Fig 17): the reduced dimension still gets a
    // larger share than a pure-shift square would give it.
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 2;
    hints.shiftDims = {0, 1};
    TileDecision d = pol.choose({256, 256, 64}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_LT(d.tile[2], 64);  // Not the extreme full-reduce tile...
    EXPECT_GT(d.tile[2], 1);   // ...but more than a pure-shift square.
}

TEST(Tiling, HintsFromGraph)
{
    TdfgGraph g(2);
    NodeId a = g.tensor(0, HyperRect::box2(0, 64, 0, 64));
    NodeId m = g.move(a, 0, 1);
    NodeId b = g.broadcast(a, 1, 0, 2);
    NodeId r = g.reduce(g.compute(BitOp::Add, {m, b}), BitOp::Add, 1);
    (void)r;
    LayoutHints h = LayoutHints::fromGraph(g);
    EXPECT_TRUE(h.shiftDims.count(0));
    EXPECT_TRUE(h.broadcastDims.count(1));
    ASSERT_TRUE(h.reduceDim.has_value());
    EXPECT_EQ(*h.reduceDim, 1u);
}

TEST(TiledLayout, TileIndexingRoundTrip)
{
    TiledLayout lay({64, 32}, {16, 16});
    EXPECT_EQ(lay.grid(), (std::vector<Coord>{4, 2}));
    EXPECT_EQ(lay.numTiles(), 8);
    EXPECT_EQ(lay.tileVolume(), 256);
    EXPECT_EQ(lay.tileOf({0, 0}), 0);
    EXPECT_EQ(lay.tileOf({16, 0}), 1);
    EXPECT_EQ(lay.tileOf({0, 16}), 4);
    EXPECT_EQ(lay.tileOf({63, 31}), 7);
    EXPECT_EQ(lay.positionInTile({17, 2}), 1 + 2 * 16);
}

TEST(TiledLayout, BoundaryTiles)
{
    // 20x10 with 16x16 tiles: 2x1 grid, boundary tiles with unused
    // bitlines (§4.1 "boundary tiles with unused bitlines").
    TiledLayout lay({20, 10}, {16, 16});
    EXPECT_EQ(lay.numTiles(), 2);
    EXPECT_EQ(lay.tileOf({19, 9}), 1);
}

TEST(TiledLayout, TilesIntersecting)
{
    TiledLayout lay({64, 64}, {16, 16});
    auto all = lay.tilesIntersecting(HyperRect::box2(0, 64, 0, 64));
    EXPECT_EQ(all.size(), 16u);
    auto one = lay.tilesIntersecting(HyperRect::box2(3, 5, 3, 5));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 0);
    auto row = lay.tilesIntersecting(HyperRect::box2(0, 64, 16, 17));
    EXPECT_EQ(row.size(), 4u);
    // Out-of-array coordinates are clamped.
    auto clamped = lay.tilesIntersecting(HyperRect::box2(-5, 8, 60, 99));
    ASSERT_EQ(clamped.size(), 1u);
    EXPECT_EQ(clamped[0], 12);
}

TEST(TiledLayout, BanksForContiguousMapping)
{
    AddressMap map(L3Config{});
    TiledLayout lay({2048, 2048}, {16, 16});
    EXPECT_EQ(lay.numTiles(), 128 * 128);
    // With the contiguous tile->array mapping (256 arrays/bank), one
    // row of 128 tiles stays within a single bank...
    auto row = lay.banksFor(HyperRect::box2(0, 2048, 0, 16), map);
    EXPECT_EQ(row.size(), 1u);
    // ...while the whole array (16384 tiles) covers all 64 banks.
    auto all = lay.banksFor(HyperRect::box2(0, 2048, 0, 2048), map);
    EXPECT_EQ(all.size(), 64u);
    // A single tile -> one bank.
    auto one = lay.banksFor(HyperRect::box2(0, 16, 0, 16), map);
    EXPECT_EQ(one.size(), 1u);
}

TEST(TiledLayout, MakeReportsLayoutConstraintViolations)
{
    auto bad_rank = TiledLayout::make({128, 128}, {16});
    ASSERT_FALSE(bad_rank.ok());
    EXPECT_EQ(bad_rank.error().code, ErrCode::LayoutConstraint);
    auto bad_tile = TiledLayout::make({128}, {0});
    ASSERT_FALSE(bad_tile.ok());
    EXPECT_EQ(bad_tile.error().code, ErrCode::LayoutConstraint);
    auto good = TiledLayout::make({128}, {16});
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good->numTiles(), 8);
}

TEST(TiledLayout, FitsChecksCapacity)
{
    AddressMap map(L3Config{});
    // 4M elements at 1 elem/bitline = 16384 tiles = exactly all arrays.
    TiledLayout ok({4096, 1024}, {16, 16});
    EXPECT_TRUE(ok.fits(map));
    TiledLayout too_big({8192, 1024}, {16, 16});
    EXPECT_FALSE(too_big.fits(map));
}

/** Reference for maskedCoordCount: the per-coordinate walk it replaced. */
std::uint64_t
walkMaskedCoords(Coord lo, Coord hi, Coord tile_k, Coord mask_lo,
                 Coord mask_hi)
{
    std::uint64_t covered = 0;
    for (Coord x = lo; x < hi; ++x) {
        Coord pos = ((x % tile_k) + tile_k) % tile_k;
        if (pos >= mask_lo && pos < mask_hi)
            ++covered;
    }
    return covered;
}

/** Reference for maskedElements: the tensor controller's former count. */
std::uint64_t
walkMaskedElements(const InMemCommand &cmd, const TiledLayout &layout)
{
    const HyperRect &t = cmd.tensor;
    if (t.empty())
        return 0;
    if ((cmd.kind == CmdKind::Compute && cmd.maskHi <= cmd.maskLo) ||
        cmd.kind == CmdKind::BroadcastBl || cmd.kind == CmdKind::BroadcastVal)
        return static_cast<std::uint64_t>(t.volume());
    return walkMaskedCoords(t.lo(cmd.dim), t.hi(cmd.dim),
                            layout.tileSize(cmd.dim), cmd.maskLo,
                            cmd.maskHi) *
           static_cast<std::uint64_t>(t.volume() / t.size(cmd.dim));
}

Coord
uniform(Rng &rng, Coord lo, Coord hi)
{
    return lo + static_cast<Coord>(
                    rng.nextBounded(static_cast<std::uint64_t>(hi - lo)));
}

TEST(MaskedCount, EdgeCases)
{
    // Empty and inverted ranges, empty and inverted masks.
    EXPECT_EQ(maskedCoordCount(5, 5, 8, 0, 8), 0u);
    EXPECT_EQ(maskedCoordCount(9, 2, 8, 0, 8), 0u);
    EXPECT_EQ(maskedCoordCount(0, 64, 8, 3, 3), 0u);
    EXPECT_EQ(maskedCoordCount(0, 64, 8, 6, 2), 0u);
    // Masks wholly outside [0, tile_k) select nothing; partly outside
    // ones are clamped.
    EXPECT_EQ(maskedCoordCount(0, 64, 8, 8, 16), 0u);
    EXPECT_EQ(maskedCoordCount(0, 64, 8, -4, 0), 0u);
    EXPECT_EQ(maskedCoordCount(0, 64, 8, -4, 2), 16u);
    EXPECT_EQ(maskedCoordCount(0, 64, 8, 6, 100), 16u);
    // Negative coordinates wrap with floor division: -1 sits at 7.
    EXPECT_EQ(maskedCoordCount(-1, 0, 8, 7, 8), 1u);
    EXPECT_EQ(maskedCoordCount(-9, -8, 8, 7, 8), 1u);
    EXPECT_EQ(maskedCoordCount(-16, 16, 8, 0, 1), 4u);
    // O(1): a 2^41-coordinate extent answers at once.
    const Coord big = Coord{1} << 40;
    EXPECT_EQ(maskedCoordCount(-big, big, 64, 10, 42),
              static_cast<std::uint64_t>(2 * big / 64 * 32));
}

TEST(MaskedCount, ClosedFormMatchesCoordinateWalk)
{
    Rng rng(1313);
    for (int iter = 0; iter < 20000; ++iter) {
        const Coord tile_k = uniform(rng, 1, 71);
        const Coord lo = uniform(rng, -300, 300);
        const Coord hi = lo + uniform(rng, -4, 400);
        // Masks from wholly below 0 to wholly past tile_k, including
        // empty and inverted ones.
        const Coord mask_lo = uniform(rng, -tile_k - 2, 2 * tile_k + 2);
        const Coord mask_hi = mask_lo + uniform(rng, -3, tile_k + 4);
        ASSERT_EQ(maskedCoordCount(lo, hi, tile_k, mask_lo, mask_hi),
                  walkMaskedCoords(lo, hi, tile_k, mask_lo, mask_hi))
            << "[" << lo << ", " << hi << ") tile " << tile_k << " mask ["
            << mask_lo << ", " << mask_hi << ")";
    }
}

TEST(MaskedCount, CommandElementsMatchCoordinateWalk)
{
    const CmdKind kinds[] = {CmdKind::Compute, CmdKind::IntraShift,
                             CmdKind::InterShift, CmdKind::BroadcastBl,
                             CmdKind::BroadcastVal};
    Rng rng(4242);
    unsigned reduction_masks = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        const unsigned nd = 1 + static_cast<unsigned>(rng.nextBounded(3));
        std::vector<Coord> shape(nd), tile(nd), lo(nd), hi(nd);
        for (unsigned d = 0; d < nd; ++d) {
            tile[d] = uniform(rng, 1, 71);
            shape[d] = tile[d] * uniform(rng, 1, 5);
            lo[d] = uniform(rng, -2 * tile[d], shape[d]);
            hi[d] = lo[d] + uniform(rng, -1, 3 * tile[d]);
        }
        const TiledLayout layout(shape, tile);
        InMemCommand cmd;
        cmd.kind = kinds[rng.nextBounded(std::size(kinds))];
        cmd.tensor = HyperRect(lo, hi);
        cmd.dim = static_cast<unsigned>(rng.nextBounded(nd));
        const Coord tk = tile[cmd.dim];
        cmd.maskLo = uniform(rng, -tk, 2 * tk);
        cmd.maskHi = cmd.maskLo + uniform(rng, -2, tk + 2);
        if (cmd.kind == CmdKind::Compute && cmd.maskHi > cmd.maskLo)
            ++reduction_masks;
        ASSERT_EQ(maskedElements(cmd, layout),
                  walkMaskedElements(cmd, layout))
            << cmd.str();
    }
    EXPECT_GT(reduction_masks, 100u);
}

} // namespace
} // namespace infs
