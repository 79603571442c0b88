/**
 * @file
 * Property tests for the word-parallel transpose paths (DESIGN.md §10):
 * the tile-parallel bit-plane transpose in BitAccurateFabric::loadArray/
 * storeArray and the word-level element/range primitives it rests on
 * must round-trip bit-exactly for arbitrary shapes, tile sizes, and
 * alignments — and the
 * bit-serial kernels must stop allocating once their scratch pool is warm.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "bitserial/bit_matrix.hh"
#include "bitserial/compute_sram.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "uarch/bit_exec.hh"

namespace infs {
namespace {

TEST(TransposeProperty, ElementReadWriteMatchesBitReference)
{
    Rng rng(11);
    BitMatrix bm(256, 256);
    for (int iter = 0; iter < 500; ++iter) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.next() % 33);
        const unsigned bl = static_cast<unsigned>(rng.next() % 256);
        const unsigned wl = static_cast<unsigned>(rng.next() % (256 - bits));
        const std::uint64_t v =
            rng.next() & ((bits == 64) ? ~0ULL : (1ULL << bits) - 1);
        bm.writeElement(bl, wl, bits, v);
        // Bit-by-bit reference of the transposed format: bit i of the
        // element lives at wordline wl + i of bitline bl.
        for (unsigned i = 0; i < bits; ++i)
            ASSERT_EQ(bm.get(wl + i, bl), (v >> i) & 1ULL);
        ASSERT_EQ(bm.readElement(bl, wl, bits), v);
    }
}

TEST(TransposeProperty, ExtractDepositRoundTripAnyAlignment)
{
    Rng rng(12);
    for (int iter = 0; iter < 300; ++iter) {
        const unsigned nbits = 65 + static_cast<unsigned>(rng.next() % 400);
        BitRow src(nbits), dst(nbits);
        for (unsigned i = 0; i < nbits; ++i) {
            src.set(i, rng.next() & 1);
            dst.set(i, rng.next() & 1);
        }
        const unsigned len = 1 + static_cast<unsigned>(rng.next() % nbits);
        const unsigned lo_s = static_cast<unsigned>(rng.next() %
                                                    (nbits - len + 1));
        const unsigned lo_d = static_cast<unsigned>(rng.next() %
                                                    (nbits - len + 1));
        std::vector<std::uint64_t> buf((len + 63) / 64);
        src.extractTo(buf.data(), lo_s, len);
        const BitRow before = dst;
        dst.depositFrom(buf.data(), lo_d, len);
        for (unsigned i = 0; i < nbits; ++i) {
            const bool expect = (i >= lo_d && i < lo_d + len)
                                    ? src.get(lo_s + (i - lo_d))
                                    : before.get(i);
            ASSERT_EQ(dst.get(i), expect)
                << "bit " << i << " lo_s " << lo_s << " lo_d " << lo_d
                << " len " << len;
        }
    }
}

TEST(TransposeProperty, FillRangeMatchesBitReference)
{
    Rng rng(13);
    for (int iter = 0; iter < 300; ++iter) {
        const unsigned nbits = 1 + static_cast<unsigned>(rng.next() % 500);
        BitRow row(nbits);
        for (unsigned i = 0; i < nbits; ++i)
            row.set(i, rng.next() & 1);
        const unsigned lo = static_cast<unsigned>(rng.next() % (nbits + 1));
        const unsigned hi =
            lo + static_cast<unsigned>(rng.next() % (nbits - lo + 1));
        const bool v = rng.next() & 1;
        const BitRow before = row;
        row.fillRange(lo, hi, v);
        for (unsigned i = 0; i < nbits; ++i)
            ASSERT_EQ(row.get(i),
                      (i >= lo && i < hi) ? v : before.get(i));
    }
}

/** Fill every row of every tile with seeded random words. */
void
dirtyFabric(BitAccurateFabric &fab, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::int64_t t = 0; t < fab.layout().numTiles(); ++t) {
        BitMatrix &bm = fab.tile(t).bits();
        for (unsigned r = 0; r < bm.wordlines(); ++r)
            for (unsigned w = 0; w < (bm.bitlines() + 63) / 64; ++w)
                bm.row(r).mergeWordMasked(w, rng.next(), ~0ULL);
    }
}

/** Lattice point of dense index @p i (dim 0 innermost). */
std::vector<Coord>
pointOf(std::size_t i, const std::vector<Coord> &shape)
{
    std::vector<Coord> pt(shape.size());
    for (std::size_t d = 0; d < shape.size(); ++d) {
        pt[d] = static_cast<Coord>(i % static_cast<std::size_t>(shape[d]));
        i /= static_cast<std::size_t>(shape[d]);
    }
    return pt;
}

/**
 * Stage @p in at slot @p wl into a pre-dirtied fabric and compare every
 * row of every tile, bit for bit, against a per-element writeElement
 * load into an identically dirtied reference; then read it back.
 */
void
checkLoadStore(const std::vector<Coord> &shape, const std::vector<Coord> &tsz,
               unsigned wl, ThreadPool *pool, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "shape " << ::testing::PrintToString(shape) << " tile "
                 << ::testing::PrintToString(tsz) << " wl " << wl
                 << (pool ? " pooled" : " inline"));
    TiledLayout lay(shape, tsz);
    std::size_t vol = 1;
    for (Coord c : shape)
        vol *= static_cast<std::size_t>(c);
    Rng rng(seed);
    std::vector<float> in(vol), out(vol);
    for (auto &v : in)
        v = rng.nextFloat(-1e6f, 1e6f);

    BitAccurateFabric fab(lay), ref(lay), before(lay);
    fab.setThreadPool(pool);
    dirtyFabric(fab, seed + 1);
    dirtyFabric(ref, seed + 1);
    dirtyFabric(before, seed + 1);

    fab.loadArray(in, wl);
    // In-array bitlines per tile; every other bitline of the slot is
    // padding (partial tile or tile volume < bitlines).
    std::vector<BitRow> inside(static_cast<std::size_t>(lay.numTiles()),
                               BitRow(256));
    for (std::size_t i = 0; i < vol; ++i) {
        const std::vector<Coord> pt = pointOf(i, shape);
        const std::int64_t t = lay.tileOf(pt);
        const auto pos = static_cast<unsigned>(lay.positionInTile(pt));
        ref.tile(t).bits().writeElement(pos, wl, 32,
                                        std::bit_cast<std::uint32_t>(in[i]));
        inside[static_cast<std::size_t>(t)].set(pos, true);
    }

    for (std::int64_t t = 0; t < lay.numTiles(); ++t) {
        const BitMatrix &got = fab.tile(t).bits();
        const BitMatrix &want = ref.tile(t).bits();
        const BitMatrix &old = before.tile(t).bits();
        const BitRow &in_tile = inside[static_cast<std::size_t>(t)];
        for (unsigned r = 0; r < got.wordlines(); ++r) {
            ASSERT_TRUE(got.row(r) == want.row(r))
                << "tile " << t << " row " << r;
            if (r < wl || r >= wl + 32) {
                ASSERT_TRUE(got.row(r) == old.row(r))
                    << "tile " << t << " row " << r << " outside the slot";
                continue;
            }
            for (unsigned b = 0; b < got.bitlines(); ++b) {
                if (!in_tile.get(b)) {
                    ASSERT_EQ(got.row(r).get(b), old.row(r).get(b))
                        << "tile " << t << " row " << r << " bitline " << b
                        << " lies outside the array";
                }
            }
        }
    }

    fab.storeArray(out, wl);
    for (std::size_t i = 0; i < vol; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(in[i]),
                  std::bit_cast<std::uint32_t>(out[i]))
            << "elem " << i;
    for (int probe = 0; probe < 8; ++probe) {
        const std::size_t i = static_cast<std::size_t>(rng.next() % vol);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(fab.element(pointOf(i, shape),
                                                           wl)),
                  std::bit_cast<std::uint32_t>(in[i]));
    }

    // A fresh fabric allocates its tiles inside loadArray (rows built by
    // the owning worker): same slot bits as the reference, zero elsewhere.
    BitAccurateFabric fresh(lay);
    fresh.setThreadPool(pool);
    fresh.loadArray(in, wl);
    std::vector<float> fresh_out(vol);
    fresh.storeArray(fresh_out, wl);
    for (std::size_t i = 0; i < vol; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(in[i]),
                  std::bit_cast<std::uint32_t>(fresh_out[i]))
            << "fresh elem " << i;
    for (std::int64_t t = 0; t < lay.numTiles(); ++t) {
        const BitMatrix &bm = fresh.tile(t).bits();
        for (unsigned r = 0; r < bm.wordlines(); ++r) {
            BitRow want(bm.bitlines());
            if (r >= wl && r < wl + 32)
                want = ref.tile(t).bits().row(r) &
                       inside[static_cast<std::size_t>(t)];
            ASSERT_TRUE(bm.row(r) == want) << "fresh tile " << t << " row "
                                           << r;
        }
    }
}

TEST(TransposeProperty, FabricLoadStoreRoundTripRandomShapes)
{
    // The tile-parallel bit-plane transpose must write exactly the
    // in-array bits of its slot — identical to a per-element load — for
    // any shape/tile combination, inline and across a pool: tiles that
    // do not divide the shape, dim-0 runs shorter or longer than a plane
    // word, and tiles narrower than the array.
    ThreadPool pool4(4);
    const std::vector<std::pair<std::vector<Coord>, std::vector<Coord>>>
        fixed = {
            {{37, 9}, {1, 16}},      // tile[0] == 1
            {{30, 7, 5}, {4, 8, 8}}, // tile[0] == 4, partial along 1, 2
            {{150, 5}, {64, 4}},     // tile[0] == 64
            {{200, 3}, {100, 2}},    // tile[0] > 64, not a word multiple
            {{300}, {256}},          // one-dim, partial last tile
            {{13, 11}, {4, 8}},      // tile volume 32 < 256 bitlines
        };
    std::uint64_t seed = 100;
    for (const auto &[shape, tsz] : fixed) {
        checkLoadStore(shape, tsz, 3, nullptr, seed);
        checkLoadStore(shape, tsz, 3, &pool4, seed);
        ++seed;
    }

    Rng rng(14);
    for (int iter = 0; iter < 25; ++iter) {
        const unsigned nd = 1 + static_cast<unsigned>(rng.next() % 3);
        std::vector<Coord> shape(nd), tsz(nd);
        for (unsigned d = 0; d < nd; ++d)
            shape[d] = 2 + static_cast<Coord>(rng.next() % (nd > 2 ? 9 : 40));
        // Tile volume must fit the 256 bitlines.
        for (unsigned d = 0; d < nd; ++d)
            tsz[d] = 1 + static_cast<Coord>(
                             rng.next() % std::min<Coord>(shape[d], 6));
        const unsigned wl = static_cast<unsigned>(rng.next() % (256 - 32));
        checkLoadStore(shape, tsz, wl, iter % 2 ? &pool4 : nullptr,
                       seed++);
    }
}

TEST(TransposeProperty, LoadStoreRejectWrongSpanSize)
{
    // The size check runs before any write: a short span must not be
    // read or written past its end.
    TiledLayout lay({10, 10}, {4, 4});
    BitAccurateFabric fab(lay);
    std::vector<float> shortSpan(99);
    EXPECT_DEATH(fab.loadArray(shortSpan, 0), "array size mismatch");
    EXPECT_DEATH(fab.storeArray(shortSpan, 0), "array size mismatch");
}

TEST(TransposeProperty, KernelsStopAllocatingOnceScratchIsWarm)
{
    // The per-bit loops of the word-parallel kernels draw rows from the
    // ComputeSram scratch pool; after a warm-up pass the pool is sized
    // for the widest kernel and steady-state execution performs zero
    // heap allocation (the PR's no-alloc acceptance gate).
    ComputeSram s(256, 256);
    Rng rng(15);
    for (unsigned bl = 0; bl < 256; ++bl) {
        s.writeFloat(bl, 0, rng.nextFloat(-100, 100));
        s.writeFloat(bl, 32, rng.nextFloat(-100, 100));
    }
    const BitRow mask = s.fullMask();
    auto exercise = [&] {
        s.execBinary(BitOp::Add, DType::Fp32, 0, 32, 64, mask);
        s.execBinary(BitOp::Mul, DType::Fp32, 0, 32, 96, mask);
        s.execBinary(BitOp::Sub, DType::Fp32, 0, 32, 128, mask);
        s.execBinary(BitOp::Max, DType::Fp32, 0, 32, 160, mask);
    };
    exercise(); // Warm the scratch pool.
    const std::uint64_t warm = s.scratchAllocs();
    exercise();
    exercise();
    EXPECT_EQ(s.scratchAllocs(), warm)
        << "bit-serial kernels allocated in steady state";
}

} // namespace
} // namespace infs
