#include "uarch/bit_exec.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "bitserial/simd.hh"
#include "sim/fault.hh"
#include "tdfg/interp.hh"

namespace infs {

namespace {

/**
 * The dim-0 lines of a full tile, shared by every tile of one
 * loadArray/storeArray call: line k covers bitlines [k * tile[0],
 * (k + 1) * tile[0]).
 */
struct TileLines {
    std::int64_t count = 0;
    /** Dense-array offset of line k from its tile's origin. */
    std::vector<std::int64_t> denseOff;
    /** offsets[k * dims + d]: line k's offset along dim d >= 1. */
    std::vector<Coord> offsets;
};

TileLines
tileLines(const TiledLayout &lay)
{
    // Line k's offsets along dims 1.. are the mixed-radix digits of k
    // over the tile extents.
    const auto &shape = lay.shape();
    const auto &tsz = lay.tile();
    const unsigned nd = lay.dims();
    TileLines tl;
    tl.count = lay.tileVolume() / tsz[0];
    tl.denseOff.resize(static_cast<std::size_t>(tl.count));
    tl.offsets.resize(static_cast<std::size_t>(tl.count) * nd);
    for (std::int64_t k = 0; k < tl.count; ++k) {
        std::int64_t rest = k, off = 0, stride = shape[0];
        for (unsigned d = 1; d < nd; ++d) {
            const Coord o = rest % tsz[d];
            rest /= tsz[d];
            tl.offsets[static_cast<std::size_t>(k) * nd + d] = o;
            off += o * stride;
            stride *= shape[d];
        }
        tl.denseOff[static_cast<std::size_t>(k)] = off;
    }
    return tl;
}

/**
 * run(pos, denseIndex, len) for each in-array dim-0 run of tile @p t that
 * falls in bitline chunk [64 * chunk, 64 * chunk + 64): @p len consecutive
 * dense elements from denseIndex sit on chunk lanes [pos, pos + len).
 * Lines outside the array are skipped.
 */
template <class Fn>
void
forEachChunkRun(const TiledLayout &lay, const TileLines &tl, std::int64_t t,
                unsigned chunk, Fn &&run)
{
    const auto &shape = lay.shape();
    const auto &tsz = lay.tile();
    const auto &grid = lay.grid();
    const unsigned nd = lay.dims();

    // Tile origin in the dense array, its in-array extent along dim 0,
    // and whether any line of the tile falls outside the array.
    std::int64_t origin = 0, stride = 1, rest = t;
    Coord n0 = tsz[0];
    bool partial = false;
    for (unsigned d = 0; d < nd; ++d) {
        const Coord lo = (rest % grid[d]) * tsz[d];
        rest /= grid[d];
        origin += lo * stride;
        stride *= shape[d];
        const Coord ext = std::min<Coord>(tsz[d], shape[d] - lo);
        if (d == 0)
            n0 = ext;
        else if (ext < tsz[d])
            partial = true;
    }

    const Coord t0 = tsz[0];
    const std::int64_t c0 = static_cast<std::int64_t>(chunk) * 64;
    const std::int64_t c1 = std::min<std::int64_t>(c0 + 64, tl.count * t0);
    for (std::int64_t k = c0 / t0; k < tl.count && k * t0 < c1; ++k) {
        if (partial) {
            // Re-derive the tile's lower corner per dim (partial tiles
            // are the boundary minority, so no per-tile scratch).
            bool inside = true;
            std::int64_t r = t / grid[0];
            for (unsigned d = 1; d < nd && inside; ++d) {
                const Coord lo = (r % grid[d]) * tsz[d];
                r /= grid[d];
                inside = lo + tl.offsets[static_cast<std::size_t>(k) * nd +
                                         d] < shape[d];
            }
            if (!inside)
                continue;
        }
        const std::int64_t line = k * t0;
        const std::int64_t lo = std::max(c0, line);
        const std::int64_t hi = std::min(c1, line + n0);
        if (lo < hi)
            run(static_cast<unsigned>(lo - c0),
                static_cast<std::size_t>(
                    origin + tl.denseOff[static_cast<std::size_t>(k)] +
                    (lo - line)),
                static_cast<unsigned>(hi - lo));
    }
}

} // namespace

BitAccurateFabric::BitAccurateFabric(TiledLayout layout, unsigned wordlines,
                                     unsigned bitlines)
    : layout_(std::move(layout)), wordlines_(wordlines), bitlines_(bitlines),
      arrayRect_(HyperRect::array(layout_.shape()))
{
    infs_assert(layout_.tileVolume() <= static_cast<std::int64_t>(bitlines),
                "tile volume %lld exceeds %u bitlines",
                static_cast<long long>(layout_.tileVolume()), bitlines);
    infs_assert(layout_.dims() <= kMaxDims, "%u dims exceed the fabric's %u",
                layout_.dims(), kMaxDims);
    tiles_.resize(static_cast<std::size_t>(layout_.numTiles()));
}

FabricStats
BitAccurateFabric::stats() const
{
    FabricStats s;
    for (std::size_t k = 0; k < s.byKind.size(); ++k) {
        s.byKind[k].count = kindCount_[k].load(std::memory_order_relaxed);
        s.byKind[k].wallMs =
            static_cast<double>(
                kindNanos_[k].load(std::memory_order_relaxed)) /
            1e6;
    }
    s.maskCacheHits = maskHits_.load(std::memory_order_relaxed);
    s.maskCacheMisses = maskMisses_.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < s.bankOps.size(); ++b)
        s.bankOps[b] = bankOps_[b].load(std::memory_order_relaxed);
    std::uint64_t scratch = 0;
    for (const auto &t : tiles_)
        if (t)
            scratch += t->scratchAllocs();
    s.scratchAllocs = scratch - scratchBase_;
    return s;
}

void
BitAccurateFabric::resetStats()
{
    for (std::size_t k = 0; k < kindCount_.size(); ++k) {
        kindCount_[k].store(0, std::memory_order_relaxed);
        kindNanos_[k].store(0, std::memory_order_relaxed);
    }
    maskHits_.store(0, std::memory_order_relaxed);
    maskMisses_.store(0, std::memory_order_relaxed);
    for (auto &b : bankOps_)
        b.store(0, std::memory_order_relaxed);
    scratchBase_ = 0;
    for (const auto &t : tiles_)
        if (t)
            scratchBase_ += t->scratchAllocs();
}

ComputeSram &
BitAccurateFabric::tile(std::int64_t t)
{
    infs_assert(t >= 0 && t < layout_.numTiles(), "tile %lld out of range",
                static_cast<long long>(t));
    auto &p = tiles_[static_cast<std::size_t>(t)];
    if (!p)
        p = std::make_unique<ComputeSram>(wordlines_, bitlines_);
    return *p;
}

void
BitAccurateFabric::parallelOver(std::int64_t n,
                                const std::function<void(std::int64_t)> &fn)
    const
{
    if (pool_ != nullptr && !pool_->inlineOnly() && n > 1) {
        pool_->parallelFor(n, fn);
    } else {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
    }
}

void
BitAccurateFabric::reserveTiles() const
{
    // The calling thread does every malloc: worker-side allocation
    // spreads the SRAM rows over per-thread malloc arenas and grows peak
    // RSS. The rows themselves are built, and their pages first touched,
    // by the worker that owns the tile (BitMatrix::materialize).
    for (auto &p : tiles_)
        if (!p)
            p = std::make_unique<ComputeSram>(wordlines_, bitlines_,
                                              BitMatrix::Deferred{});
}

std::int64_t
BitAccurateFabric::strideInTile(unsigned dim) const
{
    std::int64_t s = 1;
    for (unsigned d = 0; d < dim; ++d)
        s *= layout_.tile()[d];
    return s;
}

void
BitAccurateFabric::loadArray(std::span<const float> data, unsigned wl)
{
    // Tile-parallel bit-plane staging (DESIGN.md §10): each tile gathers
    // its in-array dim-0 runs into 64 bitline-ordered lanes at a time,
    // bit-transposes them into 32 plane words and writes whole words,
    // masking only bitlines that lie outside the array. A tile is owned
    // by one worker, so plane writes never race.
    infs_assert(data.size() == static_cast<std::size_t>(arrayRect_.volume()),
                "array size mismatch: %zu elements for a volume of %lld",
                data.size(), static_cast<long long>(arrayRect_.volume()));
    reserveTiles();
    const TileLines tl = tileLines(layout_);
    const unsigned nchunks =
        static_cast<unsigned>((layout_.tileVolume() + 63) / 64);
    const simd::SimdKernels &k = simd::active();
    parallelOver(layout_.numTiles(), [&](std::int64_t t) {
        BitMatrix &bm = tiles_[static_cast<std::size_t>(t)]->bits();
        bm.materialize();
        std::array<std::uint32_t, 64> lanes{};
        std::array<std::uint64_t, 32> words{};
        for (unsigned c = 0; c < nchunks; ++c) {
            lanes.fill(0);
            std::uint64_t mask = 0;
            forEachChunkRun(layout_, tl, t, c,
                            [&](unsigned pos, std::size_t i, unsigned len) {
                                std::memcpy(lanes.data() + pos,
                                            data.data() + i,
                                            len * sizeof(float));
                                mask |= (len == 64 ? ~0ULL
                                                   : (1ULL << len) - 1)
                                        << pos;
                            });
            if (mask == 0)
                continue;
            simd::lanesToPlanes(k, lanes.data(), words.data());
            for (unsigned b = 0; b < 32; ++b)
                bm.row(wl + b).mergeWordMasked(c, words[b], mask);
        }
    });
}

void
BitAccurateFabric::storeArray(std::span<float> data, unsigned wl) const
{
    // Inverse of loadArray, tile-parallel: read whole plane words, undo
    // the transpose and scatter the in-array lanes back to their dense
    // runs. Tiles write disjoint dense elements.
    infs_assert(data.size() == static_cast<std::size_t>(arrayRect_.volume()),
                "array size mismatch: %zu elements for a volume of %lld",
                data.size(), static_cast<long long>(arrayRect_.volume()));
    reserveTiles();
    const TileLines tl = tileLines(layout_);
    const unsigned nchunks =
        static_cast<unsigned>((layout_.tileVolume() + 63) / 64);
    const simd::SimdKernels &k = simd::active();
    parallelOver(layout_.numTiles(), [&](std::int64_t t) {
        BitMatrix &bm = tiles_[static_cast<std::size_t>(t)]->bits();
        bm.materialize();
        std::array<std::uint32_t, 64> lanes{};
        std::array<std::uint64_t, 32> words{};
        for (unsigned c = 0; c < nchunks; ++c) {
            for (unsigned b = 0; b < 32; ++b)
                words[b] = bm.row(wl + b).words()[c];
            simd::planesToLanes(k, words.data(), lanes.data());
            forEachChunkRun(layout_, tl, t, c,
                            [&](unsigned pos, std::size_t i, unsigned len) {
                                std::memcpy(data.data() + i,
                                            lanes.data() + pos,
                                            len * sizeof(float));
                            });
        }
    });
}

float
BitAccurateFabric::element(const std::vector<Coord> &pt, unsigned wl) const
{
    auto *self = const_cast<BitAccurateFabric *>(this);
    ComputeSram &s = self->tile(layout_.tileOf(pt));
    return s.readFloat(static_cast<unsigned>(layout_.positionInTile(pt)),
                       wl);
}

std::size_t
BitAccurateFabric::MaskKeyHash::operator()(const MaskKey &k) const
{
    // FNV-1a over the box bounds.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (unsigned d = 0; d < kMaxDims; ++d) {
        mix(static_cast<std::uint64_t>(k.lo[d]));
        mix(static_cast<std::uint64_t>(k.hi[d]));
    }
    return static_cast<std::size_t>(h);
}

BitAccurateFabric::MaskKey
BitAccurateFabric::localBox(const HyperRect &r, std::int64_t t, int wdim,
                            Coord wlo, Coord whi) const
{
    const auto &shape = layout_.shape();
    const auto &tsz = layout_.tile();
    const auto &grid = layout_.grid();
    const unsigned nd = layout_.dims();
    MaskKey k;
    std::int64_t rest = t;
    for (unsigned d = 0; d < nd; ++d) {
        const Coord origin = (rest % grid[d]) * tsz[d];
        rest /= grid[d];
        Coord lo = std::max(r.lo(d), origin) - origin;
        Coord hi = std::min({r.hi(d), shape[d], origin + tsz[d]}) - origin;
        if (static_cast<int>(d) == wdim) {
            lo = std::max(lo, wlo);
            hi = std::min(hi, whi);
        }
        if (hi <= lo)
            return MaskKey{};
        k.lo[d] = lo;
        k.hi[d] = hi;
    }
    return k;
}

BitRow
BitAccurateFabric::buildBoxMask(const MaskKey &key) const
{
    BitRow mask(bitlines_);
    if (key.hi[0] <= key.lo[0])
        return mask;
    // Dim 0 is innermost: consecutive dim-0 positions are consecutive
    // bitlines, so per outer position the box is one setRange.
    const auto &tsz = layout_.tile();
    const unsigned nd = layout_.dims();
    std::array<Coord, kMaxDims> pt = key.lo;
    for (;;) {
        std::int64_t base = 0, mult = 1;
        for (unsigned d = 0; d < nd; ++d) {
            base += pt[d] * mult;
            mult *= tsz[d];
        }
        mask.setRange(static_cast<unsigned>(base),
                      static_cast<unsigned>(base + key.hi[0] - key.lo[0]));
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < key.hi[d])
                break;
            pt[d] = key.lo[d];
        }
        if (d >= nd)
            break;
    }
    return mask;
}

BitRow
BitAccurateFabric::tileMaskUncached(const InMemCommand &cmd, std::int64_t t,
                                    bool apply_shift_mask) const
{
    BitRow mask(bitlines_);
    const HyperRect cells =
        cmd.tensor.intersect(arrayRect_).intersect(layout_.tileRect(t));
    if (cells.empty())
        return mask;
    const unsigned nd = cells.dims();
    const Coord tile_k = layout_.tile()[cmd.dim];
    std::vector<Coord> pt(nd);
    for (unsigned d = 0; d < nd; ++d)
        pt[d] = cells.lo(d);
    for (;;) {
        const Coord pos = pt[cmd.dim] % tile_k;
        if (!apply_shift_mask || (pos >= cmd.maskLo && pos < cmd.maskHi))
            mask.set(static_cast<unsigned>(layout_.positionInTile(pt)),
                     true);
        unsigned d = 0;
        for (; d < nd; ++d) {
            if (++pt[d] < cells.hi(d))
                break;
            pt[d] = cells.lo(d);
        }
        if (d >= nd)
            break;
    }
    return mask;
}

const BitRow &
BitAccurateFabric::tileMask(const InMemCommand &cmd, std::int64_t t,
                            bool apply_shift_mask) const
{
    return boxMask(localBox(cmd.tensor, t,
                            apply_shift_mask ? static_cast<int>(cmd.dim)
                                             : -1,
                            cmd.maskLo, cmd.maskHi));
}

const BitRow &
BitAccurateFabric::boxMask(const MaskKey &key) const
{
    MaskShard &sh = maskShards_[MaskKeyHash{}(key) % kMaskShards];
    {
        std::lock_guard<std::mutex> g(sh.mu);
        auto it = sh.map.find(key);
        if (it != sh.map.end()) {
            maskHits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Build outside the lock (cheap, and keeps shard contention low); a
    // racing builder loses the emplace, counts a hit and returns the
    // winner's entry, so every key misses exactly once.
    BitRow built = buildBoxMask(key);
    std::lock_guard<std::mutex> g(sh.mu);
    auto [it, inserted] = sh.map.emplace(key, std::move(built));
    (inserted ? maskMisses_ : maskHits_)
        .fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
BitAccurateFabric::applyOnTile(const InMemCommand &cmd, std::int64_t t)
{
    ComputeSram &s = tile(t);
    switch (cmd.kind) {
      case CmdKind::Compute: {
        const BitRow &mask = tileMask(cmd, t, cmd.maskHi > cmd.maskLo);
        if (!mask.any())
            return;
        if (cmd.useImm) {
            s.execBinaryImm(cmd.op, cmd.dtype, cmd.wlA,
                            std::bit_cast<std::uint32_t>(
                                static_cast<float>(cmd.imm)),
                            cmd.wlDst, mask);
        } else if (cmd.wlA == cmd.wlB &&
                   (cmd.op == BitOp::Relu || cmd.op == BitOp::Copy)) {
            // Unary encoding (relu, copy); x*x stays binary.
            s.execUnary(cmd.op, cmd.dtype, cmd.wlA, cmd.wlDst, mask);
        } else {
            s.execBinary(cmd.op, cmd.dtype, cmd.wlA, cmd.wlB, cmd.wlDst,
                         mask);
        }
        return;
      }
      case CmdKind::IntraShift: {
        const BitRow &mask = tileMask(cmd, t, true);
        if (!mask.any())
            return;
        s.shift(cmd.dtype, cmd.wlA, cmd.wlDst,
                static_cast<int>(cmd.intraTileDist * strideInTile(cmd.dim)),
                mask);
        return;
      }
      case CmdKind::BroadcastVal:
        s.writeImmediate(cmd.dtype,
                         std::bit_cast<std::uint32_t>(
                             static_cast<float>(cmd.imm)),
                         cmd.wlDst, s.fullMask());
        return;
      default:
        infs_panic("command kind %d is not tile-local",
                   static_cast<int>(cmd.kind));
    }
}

void
BitAccurateFabric::forEachFillRun(const HyperRect &part, Coord bcDist,
                                  Coord bcCount, const MoveRunFn &fn) const
{
    if (part.empty())
        return;
    const auto &tile = layout_.tile();
    const unsigned nd = part.dims();
    const Coord tile0 = tile[0];
    const Coord shape0 = layout_.shape()[0];
    const Coord lo0 = part.lo(0);
    infs_assert(part.hi(0) - lo0 == 1, "fill run needs unit dim-0 span");

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    std::vector<Coord> pt(nd, 0);
    pt[0] = lo0;
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = part.lo(d);
    std::vector<Coord> dst(nd, 0);
    for (;;) {
        std::int64_t outer = 0;
        for (unsigned d = 1; d < nd; ++d)
            outer += (pt[d] % tile[d]) * mult[d];
        const unsigned srcPos =
            static_cast<unsigned>(outer + lo0 % tile0);
        // The bcCount replicas of this element tile the contiguous dim-0
        // destination range [lo0 + bcDist, lo0 + bcDist + bcCount),
        // clipped to the array and split at tile boundaries.
        Coord c = std::max<Coord>(0, lo0 + bcDist);
        const Coord end = std::min(shape0, lo0 + bcDist + bcCount);
        while (c < end) {
            const Coord seg_end = std::min(end, (c / tile0 + 1) * tile0);
            dst.assign(pt.begin(), pt.end());
            dst[0] = c;
            fn(srcPos, layout_.tileOf(dst),
               static_cast<unsigned>(outer + c % tile0),
               static_cast<unsigned>(seg_end - c), true);
            c = seg_end;
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < part.hi(d))
                break;
            pt[d] = part.lo(d);
        }
        if (d >= nd)
            break;
    }
}

void
BitAccurateFabric::forEachBroadcastRun(const HyperRect &part, unsigned dim,
                                       Coord span, Coord bcDist,
                                       Coord bcCount,
                                       const MoveRunFn &fn) const
{
    if (part.empty())
        return;
    const auto &tile = layout_.tile();
    const unsigned nd = part.dims();
    const Coord tile0 = tile[0];
    const Coord shape_d = layout_.shape()[dim];
    const Coord lo0 = part.lo(0), hi0 = part.hi(0);

    std::vector<std::int64_t> mult(nd);
    std::int64_t m = 1;
    for (unsigned d = 0; d < nd; ++d) {
        mult[d] = m;
        m *= tile[d];
    }

    std::vector<Coord> pt(nd, 0);
    pt[0] = lo0;
    for (unsigned d = 1; d < nd; ++d)
        pt[d] = part.lo(d);
    std::vector<Coord> dst(nd, 0);
    for (;;) {
        std::int64_t outer = 0;
        for (unsigned d = 1; d < nd; ++d)
            outer += (pt[d] % tile[d]) * mult[d];
        if (dim == 0) {
            // Replica j is a dim-0 move by bcDist + j*span: clip to the
            // array and split where the destination crosses a tile edge.
            for (Coord j = 0; j < bcCount; ++j) {
                const Coord dist = bcDist + j * span;
                Coord c = std::max(lo0, -dist);
                const Coord h = std::min(hi0, shape_d - dist);
                while (c < h) {
                    const Coord dc = c + dist;
                    const Coord seg_end =
                        std::min(h, (dc / tile0 + 1) * tile0 - dist);
                    dst.assign(pt.begin(), pt.end());
                    dst[0] = dc;
                    fn(static_cast<unsigned>(outer + c % tile0),
                       layout_.tileOf(dst),
                       static_cast<unsigned>(outer + dc % tile0),
                       static_cast<unsigned>(seg_end - c), false);
                    c = seg_end;
                }
            }
        } else {
            // The dim-0 run is invariant across replicas; only the dim
            // component of the destination position changes.
            const unsigned srcPos =
                static_cast<unsigned>(outer + lo0 % tile0);
            const unsigned len = static_cast<unsigned>(hi0 - lo0);
            const Coord src_k = pt[dim];
            const std::int64_t outer_wo =
                outer - (src_k % tile[dim]) * mult[dim] + lo0 % tile0;
            for (Coord j = 0; j < bcCount; ++j) {
                const Coord dst_k = src_k + bcDist + j * span;
                if (dst_k < 0 || dst_k >= shape_d)
                    continue; // Discarded outside the rect (§3.2).
                dst.assign(pt.begin(), pt.end());
                dst[0] = lo0;
                dst[dim] = dst_k;
                fn(srcPos, layout_.tileOf(dst),
                   static_cast<unsigned>(
                       outer_wo + (dst_k % tile[dim]) * mult[dim]),
                   len, false);
            }
        }
        unsigned d = 1;
        for (; d < nd; ++d) {
            if (++pt[d] < part.hi(d))
                break;
            pt[d] = part.lo(d);
        }
        if (d >= nd)
            break;
    }
}

namespace {

/** One coalesced bitline span in flight between tiles. */
struct MoveSegment {
    std::int64_t dstTile;
    unsigned dstPos;       ///< First bitline in the destination tile.
    unsigned len;          ///< Elements in the run.
    std::size_t arenaOff;  ///< Word offset of the staged bits.
    bool fill;             ///< Replicate one staged element across len.
};

} // namespace

void
BitAccurateFabric::moveRuns(
    const std::vector<std::int64_t> &src_tiles, const HyperRect &clipped,
    unsigned bits, unsigned wl_src, unsigned wl_dst,
    const std::function<void(const HyperRect &, const MoveRunFn &)>
        &enumerate)
{
    // Two-phase gather/scatter so overlapping source/destination slots
    // are safe — and so each phase can fan out: reads are
    // per-source-tile, writes per-destination-tile, and two threads never
    // touch the same SRAM array. Each run moves whole bitline word-spans
    // (extractTo/depositFrom handle arbitrary alignment, so single
    // elements take the same path as full lines) through a
    // per-source-tile staging arena.
    std::vector<std::vector<MoveSegment>> segs(src_tiles.size());
    std::vector<std::vector<std::uint64_t>> arenas(src_tiles.size());
    auto gatherTile = [&](std::size_t i) {
        const std::int64_t st = src_tiles[i];
        HyperRect part = clipped.intersect(layout_.tileRect(st));
        if (part.empty())
            return;
        const BitMatrix &bm = tile(st).bits();
        auto &sv = segs[i];
        auto &ar = arenas[i];
        // Broadcasts enumerate the same source span once per replica;
        // stage each distinct extraction once and share the arena slot.
        std::unordered_map<std::uint64_t, std::size_t> staged;
        enumerate(part, [&](unsigned srcPos, std::int64_t dt,
                            unsigned dstPos, unsigned len, bool fill) {
            // Fill runs and single elements stage as one packed word
            // (readElement), full runs as bits word-spans (extractTo).
            const bool elem = fill || len == 1;
            const std::uint64_t key =
                (elem ? 1ULL << 63 : std::uint64_t(len)) |
                (std::uint64_t(srcPos) << 32);
            auto [it, fresh] = staged.emplace(key, ar.size());
            if (fresh) {
                if (elem) {
                    ar.push_back(bm.readElement(srcPos, wl_src, bits));
                } else {
                    const std::size_t wspan = (len + 63) / 64;
                    const std::size_t off = ar.size();
                    ar.resize(off + bits * wspan);
                    for (unsigned b = 0; b < bits; ++b)
                        bm.row(wl_src + b)
                            .extractTo(ar.data() + off + b * wspan,
                                       srcPos, len);
                }
            }
            sv.push_back({dt, dstPos, len, it->second, fill});
        });
    };
    parallelOver(static_cast<std::int64_t>(src_tiles.size()),
                 [&](std::int64_t i) {
                     gatherTile(static_cast<std::size_t>(i));
                 });

    // Bucket by destination tile (sequential and deterministic: source
    // order preserved; destination cells are unique, so write order is
    // irrelevant).
    std::unordered_map<std::int64_t,
                       std::vector<std::pair<std::size_t, std::size_t>>>
        buckets;
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t k = 0; k < segs[i].size(); ++k)
            buckets[segs[i][k].dstTile].emplace_back(i, k);
    std::vector<std::int64_t> dst_tiles;
    dst_tiles.reserve(buckets.size());
    for (auto &[dt, v] : buckets)
        dst_tiles.push_back(dt);
    std::sort(dst_tiles.begin(), dst_tiles.end());
    for (std::int64_t dt : dst_tiles)
        addBankOps(dt, 1);

    parallelOver(static_cast<std::int64_t>(dst_tiles.size()),
                 [&](std::int64_t j) {
        const std::int64_t dt = dst_tiles[static_cast<std::size_t>(j)];
        BitMatrix &bm = tile(dt).bits();
        for (auto [i, k] : buckets.at(dt)) {
            const MoveSegment &sg = segs[i][k];
            if (sg.fill) {
                const std::uint64_t v = arenas[i][sg.arenaOff];
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .fillRange(sg.dstPos, sg.dstPos + sg.len,
                                   (v >> b) & 1ULL);
            } else if (sg.len == 1) {
                bm.writeElement(sg.dstPos, wl_dst, bits,
                                arenas[i][sg.arenaOff]);
            } else {
                const std::size_t wspan = (sg.len + 63) / 64;
                for (unsigned b = 0; b < bits; ++b)
                    bm.row(wl_dst + b)
                        .depositFrom(
                            arenas[i].data() + sg.arenaOff + b * wspan,
                            sg.dstPos, sg.len);
            }
        }
    });
}

void
BitAccurateFabric::planMove(const InMemCommand &cmd, PlaneMove &mv) const
{
    // Elements cross tiles: the packed H-tree / NoC transfer, as whole
    // bit planes. A cell at in-tile position p along k moves to
    // (g_k + q) * tile_k + p + r: part 0 (p < tile_k - r) stays within
    // tile g_k + q, part 1 wraps into tile g_k + q + 1.
    const unsigned k = cmd.dim;
    const Coord tile_k = layout_.tile()[k];
    const Coord dist = cmd.interTileDist * tile_k + cmd.intraTileDist;
    const Coord q =
        dist >= 0 ? dist / tile_k : -((tile_k - 1 - dist) / tile_k);
    const Coord r = dist - q * tile_k;
    std::int64_t tile_step = 1;
    for (unsigned d = 0; d < k; ++d)
        tile_step *= layout_.grid()[d];
    const std::int64_t stride = strideInTile(k);
    mv.cmd = &cmd;
    mv.parts[0] = {std::max<Coord>(cmd.maskLo, 0),
                   std::min(cmd.maskHi, tile_k - r),
                   static_cast<int>(r * stride), q * tile_step};
    mv.parts[1] = {std::max(cmd.maskLo, tile_k - r),
                   std::min(cmd.maskHi, tile_k),
                   static_cast<int>((r - tile_k) * stride),
                   (q + 1) * tile_step};
    // Cells whose destination falls outside the array are discarded
    // (§3.2), so they are clipped off the source up front.
    mv.src = cmd.tensor.intersect(arrayRect_).intersect(
        arrayRect_.shifted(k, -dist));
    mv.srcTiles = layout_.tilesIntersecting(mv.src);
    mv.slotDst.assign(2 * mv.srcTiles.size(), -1);
    mv.bits = dtypeBits(cmd.dtype);
    mv.rowWords = (bitlines_ + 63) / 64;
    if (mv.planes.size() < mv.slotDst.size() * mv.slotWords())
        mv.planes.resize(mv.slotDst.size() * mv.slotWords());
}

void
BitAccurateFabric::gatherPlanes(PlaneMove &mv, std::size_t i)
{
    const InMemCommand &cmd = *mv.cmd;
    const std::int64_t st = mv.srcTiles[i];
    const BitMatrix &bm = tile(st).bits();
    const std::size_t words = mv.rowWords;
    BitRow masked(bitlines_), moved(bitlines_);
    for (std::size_t p = 0; p < mv.parts.size(); ++p) {
        const PlaneMove::Part &pt = mv.parts[p];
        if (pt.whi <= pt.wlo)
            continue;
        const BitRow &m = boxMask(
            localBox(mv.src, st, static_cast<int>(cmd.dim), pt.wlo, pt.whi));
        if (!m.any())
            continue;
        const std::size_t slot = 2 * i + p;
        mv.slotDst[slot] = st + pt.step;
        std::uint64_t *out = mv.planes.data() + slot * mv.slotWords();
        for (unsigned b = 0; b < mv.bits; ++b) {
            masked.assignAnd(bm.row(cmd.wlA + b), m);
            moved.assignShifted(masked, pt.shift);
            std::copy_n(moved.words().data(), words, out + b * words);
        }
        moved.assignShifted(m, pt.shift);
        std::copy_n(moved.words().data(), words, out + mv.bits * words);
    }
}

std::size_t
BitAccurateFabric::landingSlot(const PlaneMove &mv, std::size_t p,
                               std::int64_t t)
{
    // Part p lands here only from source tile t - step.
    const std::int64_t st = t - mv.parts[p].step;
    const auto it =
        std::lower_bound(mv.srcTiles.begin(), mv.srcTiles.end(), st);
    if (it == mv.srcTiles.end() || *it != st)
        return kNoSlot;
    const std::size_t slot =
        2 * static_cast<std::size_t>(it - mv.srcTiles.begin()) + p;
    return mv.slotDst[slot] == t ? slot : kNoSlot;
}

void
BitAccurateFabric::mergePlanes(const PlaneMove &mv, std::int64_t t,
                               const std::array<std::size_t, 2> &slots)
{
    // The two parts cover disjoint bitlines, so their order is free.
    const std::size_t words = mv.rowWords;
    BitMatrix &bm = tile(t).bits();
    for (std::size_t slot : slots) {
        if (slot == kNoSlot)
            continue;
        const std::uint64_t *in = mv.planes.data() + slot * mv.slotWords();
        const std::uint64_t *dmask = in + mv.bits * words;
        for (unsigned b = 0; b < mv.bits; ++b) {
            BitRow &row = bm.row(mv.cmd->wlDst + b);
            for (std::size_t w = 0; w < words; ++w)
                if (dmask[w] != 0)
                    row.mergeWordMasked(static_cast<unsigned>(w),
                                        in[b * words + w], dmask[w]);
        }
    }
}

void
BitAccurateFabric::execBroadcast(const InMemCommand &cmd)
{
    // Replicate the source subtensor bcCount times along dim with offset
    // bcDist (Fig 5 semantics), across tiles. Destination cells are
    // unique (per replica j the map is injective and replica ranges are
    // span-disjoint), so the same batched gather/scatter applies with one
    // run enumeration per replica.
    HyperRect src = cmd.tensor.intersect(arrayRect_);
    const Coord span = cmd.tensor.size(cmd.dim);
    std::vector<std::int64_t> src_tiles = layout_.tilesIntersecting(src);
    if (cmd.dim == 0 && span == 1) {
        // Unit-span dim-0 broadcast (the inner-product pattern): all
        // replicas of one element form a contiguous dim-0 run, scattered
        // as word-level range fills instead of bcCount separate moves.
        moveRuns(src_tiles, src, dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
                 [&](const HyperRect &part, const MoveRunFn &emit) {
                     forEachFillRun(part, cmd.bcDist, cmd.bcCount, emit);
                 });
        return;
    }
    moveRuns(src_tiles, src, dtypeBits(cmd.dtype), cmd.wlA, cmd.wlDst,
             [&](const HyperRect &part, const MoveRunFn &emit) {
                 forEachBroadcastRun(part, cmd.dim, span, cmd.bcDist,
                                     cmd.bcCount, emit);
             });
}

void
BitAccurateFabric::applyFault(const InMemCommand &cmd,
                              const PlannedFault &pf)
{
    ComputeSram &s = tile(pf.tile);
    const bool parity_before = s.rowParity(pf.wl);
    const std::uint64_t good = s.readElement(pf.bl, cmd.wlDst, cmd.dtype);
    s.flipBit(pf.wl, pf.bl);
    // Row parity flips on any single-bit upset — detection is certain.
    infs_assert(s.rowParity(pf.wl) != parity_before,
                "single-bit flip must flip row parity");
    // Repair: rewrite the corrupted element (ECC correction / re-read of
    // the known-good operand).
    s.writeElement(pf.bl, cmd.wlDst, cmd.dtype, good);
}

void
BitAccurateFabric::runPhase(const InMemProgram &prog, std::size_t lo,
                            std::size_t hi,
                            const std::vector<const PlannedFault *> &faults,
                            const PlaneMove *in, PlaneMove *out)
{
    using Clock = std::chrono::steady_clock;
    const auto &shape = layout_.shape();
    const auto &tsz = layout_.tile();
    const auto &grid = layout_.grid();
    const unsigned nd = layout_.dims();

    // Grid box [glo, ghi) of the tiles each command touches (Syncs and
    // commands outside the array touch none), and the union of those
    // tiles with the merge targets of @p in and the sources of @p out.
    const std::size_t n = hi - lo;
    std::vector<Coord> boxes(2 * nd * n, 0);
    std::vector<std::uint8_t> touched(
        static_cast<std::size_t>(layout_.numTiles()), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const InMemCommand &cmd = prog.commands[lo + i];
        if (cmd.kind == CmdKind::Sync)
            continue;
        kindCount_[static_cast<std::size_t>(cmd.kind)].fetch_add(
            1, std::memory_order_relaxed);
        const HyperRect &r =
            cmd.kind == CmdKind::BroadcastVal ? arrayRect_ : cmd.tensor;
        const std::vector<std::int64_t> hit = layout_.tilesIntersecting(r);
        if (hit.empty())
            continue;
        for (std::int64_t t : hit)
            touched[static_cast<std::size_t>(t)] = 1;
        Coord *glo = &boxes[2 * nd * i];
        for (unsigned d = 0; d < nd; ++d) {
            glo[d] = std::max<Coord>(r.lo(d), 0) / tsz[d];
            glo[nd + d] = (std::min(r.hi(d), shape[d]) - 1) / tsz[d] + 1;
        }
    }
    if (in != nullptr)
        for (std::int64_t t : in->slotDst)
            if (t >= 0)
                touched[static_cast<std::size_t>(t)] = 1;
    if (out != nullptr)
        for (std::int64_t t : out->srcTiles)
            touched[static_cast<std::size_t>(t)] = 1;
    std::vector<std::int64_t> tiles;
    for (std::size_t t = 0; t < touched.size(); ++t)
        if (touched[t])
            tiles.push_back(static_cast<std::int64_t>(t));

    parallelOver(static_cast<std::int64_t>(tiles.size()),
                 [&](std::int64_t j) {
        const std::int64_t t = tiles[static_cast<std::size_t>(j)];
        std::array<Coord, kMaxDims> g{};
        std::int64_t rest = t;
        for (unsigned d = 0; d < nd; ++d) {
            g[d] = rest % grid[d];
            rest /= grid[d];
        }
        // Wall time per run of same-kind work on this tile: the clock is
        // read only where the kind changes.
        std::array<std::uint64_t, 6> nanos{};
        std::size_t run_kind = nanos.size();
        Clock::time_point run_start{};
        auto enter = [&](std::size_t kind) {
            if (kind == run_kind)
                return;
            const Clock::time_point now = Clock::now();
            if (run_kind < nanos.size())
                nanos[run_kind] += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - run_start)
                        .count());
            run_kind = kind;
            run_start = now;
        };
        constexpr auto kInter = static_cast<std::size_t>(CmdKind::InterShift);
        // Work units: one per command visit, and one per InterShift that
        // lands planes here — the occupancy a command-major walk counts.
        std::uint64_t visits = 0;
        if (in != nullptr) {
            const std::array<std::size_t, 2> slots = {
                landingSlot(*in, 0, t), landingSlot(*in, 1, t)};
            if (slots[0] != kNoSlot || slots[1] != kNoSlot) {
                enter(kInter);
                mergePlanes(*in, t, slots);
                ++visits;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Coord *glo = &boxes[2 * nd * i];
            const Coord *ghi = glo + nd;
            bool inside = true;
            for (unsigned d = 0; d < nd && inside; ++d)
                inside = g[d] >= glo[d] && g[d] < ghi[d];
            if (!inside)
                continue;
            const InMemCommand &cmd = prog.commands[lo + i];
            enter(static_cast<std::size_t>(cmd.kind));
            applyOnTile(cmd, t);
            ++visits;
            const PlannedFault *pf = faults[lo + i];
            if (pf != nullptr && pf->tile == t)
                applyFault(cmd, *pf);
        }
        if (out != nullptr) {
            const auto it = std::lower_bound(out->srcTiles.begin(),
                                             out->srcTiles.end(), t);
            if (it != out->srcTiles.end() && *it == t) {
                enter(kInter);
                gatherPlanes(*out, static_cast<std::size_t>(
                                       it - out->srcTiles.begin()));
            }
        }
        enter(nanos.size()); // Close the last run.
        addBankOps(t, visits);
        for (std::size_t k = 0; k < nanos.size(); ++k)
            if (nanos[k] != 0)
                kindNanos_[k].fetch_add(nanos[k],
                                        std::memory_order_relaxed);
    });
}

void
BitAccurateFabric::execute(const InMemProgram &prog)
{
    // Fault pre-sampling: one sequential walk in program order consumes
    // the RNG streams, so the injected schedule (and every counter) is
    // bit-identical for any pool size. The state effects are applied
    // later by the worker that owns the fault's tile, right after the
    // faulting command.
    std::vector<PlannedFault> planned;
    std::vector<const PlannedFault *> faults(prog.commands.size(),
                                             nullptr);
    if (fault_ != nullptr) {
        for (std::size_t i = 0; i < prog.commands.size(); ++i) {
            const InMemCommand &cmd = prog.commands[i];
            if (cmd.kind != CmdKind::Compute || !fault_->sampleSramFlip())
                continue;
            auto touched = layout_.tilesIntersecting(cmd.tensor);
            if (touched.empty())
                continue;
            const unsigned bits = dtypeBits(cmd.dtype);
            PlannedFault pf;
            pf.cmdIndex = i;
            pf.tile =
                touched[fault_->draw(FaultDomain::Sram, touched.size())];
            pf.wl = cmd.wlDst + static_cast<unsigned>(
                                    fault_->draw(FaultDomain::Sram, bits));
            pf.bl = static_cast<unsigned>(
                fault_->draw(FaultDomain::Sram, bitlines_));
            fault_->recordDetection();
            fault_->recordRetry();
            planned.push_back(pf);
        }
        for (const PlannedFault &pf : planned)
            faults[pf.cmdIndex] = &pf;
    }

    // Phases end at each InterShift and BroadcastBl. An InterShift's
    // gather reads only its source tiles and its merge writes only its
    // destination tiles, so both fold into the phases around it and the
    // pool joins once per InterShift — the Sync that guards inter-tile
    // movement. A BroadcastBl runs on its own between two phases.
    const std::size_t n = prog.commands.size();
    const PlaneMove *in = nullptr;
    std::size_t next_move = 0;
    for (std::size_t i = 0; i <= n;) {
        std::size_t j = i;
        while (j < n && prog.commands[j].kind != CmdKind::InterShift &&
               prog.commands[j].kind != CmdKind::BroadcastBl)
            ++j;
        PlaneMove *out = nullptr;
        if (j < n && prog.commands[j].kind == CmdKind::InterShift) {
            out = &moves_[next_move];
            next_move ^= 1;
            planMove(prog.commands[j], *out);
            kindCount_[static_cast<std::size_t>(CmdKind::InterShift)]
                .fetch_add(1, std::memory_order_relaxed);
        }
        if (j > i || in != nullptr || out != nullptr)
            runPhase(prog, i, j, faults, in, out);
        in = out;
        if (j < n && prog.commands[j].kind == CmdKind::BroadcastBl) {
            const auto t0 = std::chrono::steady_clock::now();
            execBroadcast(prog.commands[j]);
            const auto k = static_cast<std::size_t>(CmdKind::BroadcastBl);
            kindCount_[k].fetch_add(1, std::memory_order_relaxed);
            kindNanos_[k].fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
        }
        i = j + 1;
    }
}

} // namespace infs
