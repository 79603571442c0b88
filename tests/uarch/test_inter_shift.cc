/**
 * @file
 * Whole-plane InterShift (DESIGN.md §10): seeded random InterShift
 * commands checked cell by cell against a reference built from element()
 * reads. The commands cover ranks 1-3, partial boundary tiles, positional
 * windows, distances below, equal to and above the tile extent in both
 * signs, and in-place moves (wlA == wlDst); each runs inline and on an
 * 8-thread pool.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "uarch/bit_exec.hh"

namespace infs {
namespace {

Coord
pick(Rng &rng, Coord lo, Coord hi) // Uniform in [lo, hi].
{
    return lo + static_cast<Coord>(rng.next() %
                                   static_cast<std::uint64_t>(hi - lo + 1));
}

/** Lattice point of dense index @p i (dim 0 innermost). */
std::vector<Coord>
pointOf(std::int64_t i, const std::vector<Coord> &shape)
{
    std::vector<Coord> pt(shape.size());
    for (std::size_t d = 0; d < shape.size(); ++d) {
        pt[d] = i % shape[d];
        i /= shape[d];
    }
    return pt;
}

std::int64_t
indexOf(const std::vector<Coord> &pt, const std::vector<Coord> &shape)
{
    std::int64_t i = 0, mult = 1;
    for (std::size_t d = 0; d < shape.size(); ++d) {
        i += pt[d] * mult;
        mult *= shape[d];
    }
    return i;
}

/** Slot @p wl of every lattice cell, as raw bit patterns. */
std::vector<std::uint32_t>
readSlot(const BitAccurateFabric &fab, unsigned wl)
{
    const auto &shape = fab.layout().shape();
    std::int64_t vol = 1;
    for (Coord s : shape)
        vol *= s;
    std::vector<std::uint32_t> out(static_cast<std::size_t>(vol));
    for (std::int64_t i = 0; i < vol; ++i)
        out[static_cast<std::size_t>(i)] =
            std::bit_cast<std::uint32_t>(fab.element(pointOf(i, shape), wl));
    return out;
}

TEST(InterShiftPlanes, RandomCommandsMatchElementReference)
{
    Rng rng(2024);
    ThreadPool pool8(8);
    int checked = 0;
    for (int c = 0; c < 120; ++c) {
        // Layout: rank 1-3, tile volume within 256 bitlines, shapes that
        // usually leave partial boundary tiles.
        const unsigned nd = 1 + static_cast<unsigned>(c % 3);
        std::vector<Coord> shape(nd), tile(nd);
        const Coord max_tile = nd == 1 ? 64 : nd == 2 ? 16 : 6;
        for (unsigned d = 0; d < nd; ++d) {
            tile[d] = pick(rng, 2, max_tile);
            shape[d] = pick(rng, tile[d], 4 * tile[d] + 3);
        }
        TiledLayout lay(shape, tile);

        InMemCommand cmd;
        cmd.kind = CmdKind::InterShift;
        cmd.dtype = DType::Fp32;
        cmd.dim = static_cast<unsigned>(rng.next() % nd);
        std::vector<Coord> lo(nd), hi(nd);
        for (unsigned d = 0; d < nd; ++d) {
            lo[d] = pick(rng, 0, shape[d] - 1);
            hi[d] = pick(rng, lo[d] + 1, shape[d]);
        }
        cmd.tensor = HyperRect(lo, hi);
        const Coord tile_k = tile[cmd.dim];
        // |dist| below, equal to and above the tile extent, either sign.
        Coord dist = 0;
        switch (c % 4) {
          case 0: dist = pick(rng, 1, tile_k - 1); break;
          case 1: dist = tile_k; break;
          case 2: dist = pick(rng, tile_k + 1, 3 * tile_k); break;
          default: dist = pick(rng, 1, 3 * tile_k); break;
        }
        if (rng.next() % 2 == 0)
            dist = -dist;
        cmd.interTileDist = dist / tile_k;
        cmd.intraTileDist = dist % tile_k;
        if (rng.next() % 3 == 0) {
            cmd.maskLo = 0;
            cmd.maskHi = tile_k;
        } else {
            cmd.maskLo = pick(rng, -1, tile_k - 1);
            cmd.maskHi = pick(rng, cmd.maskLo + 1, tile_k + 1);
        }
        cmd.wlA = 0;
        cmd.wlDst = rng.next() % 3 == 0 ? 0 : 40; // In place or not.
        InMemProgram prog;
        prog.commands.push_back(cmd);

        std::int64_t vol = 1;
        for (Coord s : shape)
            vol *= s;
        std::vector<float> src(static_cast<std::size_t>(vol)),
            dst(static_cast<std::size_t>(vol));
        for (auto &v : src)
            v = rng.nextFloat(-9, 9);
        for (auto &v : dst)
            v = rng.nextFloat(-9, 9);

        for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr),
                                 &pool8}) {
            BitAccurateFabric fab(lay);
            fab.setThreadPool(pool);
            fab.loadArray(src, cmd.wlA);
            if (cmd.wlDst != cmd.wlA)
                fab.loadArray(dst, cmd.wlDst);
            const std::vector<std::uint32_t> before_a =
                readSlot(fab, cmd.wlA);
            std::vector<std::uint32_t> want = readSlot(fab, cmd.wlDst);
            // Reference: every windowed source cell whose destination
            // stays inside the array moves by dist along dim k.
            for (std::int64_t i = 0; i < vol; ++i) {
                std::vector<Coord> pt = pointOf(i, shape);
                if (!cmd.tensor.contains(pt))
                    continue;
                const Coord pos = pt[cmd.dim] % tile_k;
                if (pos < cmd.maskLo || pos >= cmd.maskHi)
                    continue;
                pt[cmd.dim] += dist;
                if (pt[cmd.dim] < 0 || pt[cmd.dim] >= shape[cmd.dim])
                    continue;
                want[static_cast<std::size_t>(indexOf(pt, shape))] =
                    before_a[static_cast<std::size_t>(i)];
            }

            fab.execute(prog);
            const std::vector<std::uint32_t> got = readSlot(fab, cmd.wlDst);
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], want[i])
                    << "command " << c << " cell " << i << " dim "
                    << cmd.dim << " dist " << dist << " pool "
                    << (pool ? 8 : 1);
            if (cmd.wlDst != cmd.wlA) {
                ASSERT_EQ(readSlot(fab, cmd.wlA), before_a)
                    << "command " << c << ": source slot changed";
            }
            EXPECT_EQ(fab.stats().byKind[static_cast<std::size_t>(
                                             CmdKind::InterShift)]
                          .count,
                      1u);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 240);
}

} // namespace
} // namespace infs
