/**
 * @file
 * Bit-accurate fabric: executes JIT-lowered in-memory programs on real
 * ComputeSram arrays (one per tile), performing the genuine bit-serial
 * arithmetic and H-tree data movement. This is the end-to-end functional
 * validation path for Alg. 1 + Alg. 2 — results are cross-checked against
 * the tDFG interpreter in tests. It models function, not time (the
 * TensorController owns timing).
 *
 * Execution is bank-parallel on the host (DESIGN.md §10): tiles are
 * independent SRAM arrays, so the program runs tile-major in phases —
 * one worker per tile applies, in program order, every command of the
 * phase that touches its tile — and the pool joins only where an
 * InterShift moves whole bit planes from one phase's source tiles into
 * the next phase's destination tiles. Results are bit-identical for every
 * pool size.
 */

#ifndef INFS_UARCH_BIT_EXEC_HH
#define INFS_UARCH_BIT_EXEC_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "jit/commands.hh"
#include "jit/tiling.hh"
#include "sim/thread_pool.hh"

namespace infs {

class FaultInjector;

/**
 * Host-side execution counters for one fabric: per-command-kind counts and
 * wall time (the CI regression-triage breakdown) plus tile-mask cache
 * effectiveness. Wall time is CPU time spent in each kind, not elapsed
 * time: each kind sums, over tiles, the time of each run of same-kind
 * work on one tile, an InterShift's work being its plane gather on a
 * source tile and its merge on a destination tile. The clock is read
 * where the kind changes, not once per tile and command. BroadcastBl,
 * which runs on its own, sums the time of each command.
 */
struct FabricStats {
    struct Kind {
        std::uint64_t count = 0;
        double wallMs = 0.0;
    };
    /** Indexed by static_cast<size_t>(CmdKind). */
    std::array<Kind, 6> byKind{};
    std::uint64_t maskCacheHits = 0;
    std::uint64_t maskCacheMisses = 0;
    /** Scratch-row pool allocations summed across tiles (steady-state
     * programs reuse pooled rows, so this stays flat after warmup). */
    std::uint64_t scratchAllocs = 0;

    /**
     * Deterministic per-bank-group occupancy: work units (per-tile command
     * visits) folded into kBankSlots groups by tile index. Unlike wallMs
     * this is a pure function of the command stream, so the fat-binary
     * dispatcher may consume it without breaking reproducibility
     * (DESIGN.md §14).
     */
    static constexpr unsigned kBankSlots = 64;
    std::array<std::uint64_t, kBankSlots> bankOps{};

    /** Occupancy imbalance over the active bank groups: max/mean - 1;
     * 0 when balanced or when nothing executed yet. */
    double
    occupancyImbalance() const
    {
        std::uint64_t total = 0, mx = 0;
        unsigned used = 0;
        for (std::uint64_t v : bankOps) {
            if (v == 0)
                continue;
            total += v;
            if (v > mx)
                mx = v;
            ++used;
        }
        if (used == 0)
            return 0.0;
        return static_cast<double>(mx) * used / static_cast<double>(total) -
               1.0;
    }
};

/** One compute SRAM per tile of a tiled layout, plus command execution. */
class BitAccurateFabric
{
  public:
    /**
     * @param layout The tiled transposed layout (tile volume must not
     * exceed @p bitlines).
     */
    BitAccurateFabric(TiledLayout layout, unsigned wordlines = 256,
                      unsigned bitlines = 256);

    const TiledLayout &layout() const { return layout_; }

    /**
     * Transpose a dense array (lattice-anchored, dim 0 innermost) into
     * the fabric at wordline slot @p wl, tile-parallel when a pool is
     * attached (DESIGN.md §10). Writes only the slot's in-array bits and
     * leaves every FabricStats counter unchanged. @p data must hold
     * exactly the array volume.
     */
    void loadArray(std::span<const float> data, unsigned wl);

    /** Inverse of loadArray: read the fabric back to a dense array of
     * exactly the array volume, tile-parallel. */
    void storeArray(std::span<float> data, unsigned wl) const;

    /** Read a single lattice element from slot @p wl. */
    float element(const std::vector<Coord> &pt, unsigned wl) const;

    /**
     * Execute every command of @p prog, bank-parallel when a thread pool
     * is attached. The program runs as phases split at each InterShift
     * and BroadcastBl; a phase is one fan-out over the tiles it touches.
     * Each tile first merges the planes the previous InterShift moved
     * into it, then applies the phase's tile-local commands (Compute,
     * IntraShift, BroadcastVal; Syncs are skipped) in program order, then
     * gathers its planes for the InterShift that ends the phase.
     * BroadcastBl runs on its own between two phases. Fault sampling is
     * hoisted into a sequential pre-pass in program order, so the
     * injected schedule — and therefore the result and every counter —
     * is identical for any pool size.
     */
    void execute(const InMemProgram &prog);

    /** Direct access for tests. */
    ComputeSram &tile(std::int64_t t);

    /**
     * Attach a fault injector (nullptr detaches). Compute commands then
     * sample SRAM wordline bit flips: the flip lands in the command's
     * destination slot, row parity detects it, and the repair path
     * restores the corrupted element — so execution stays functionally
     * correct under injected faults (asserted against the tDFG
     * interpreter in tests).
     */
    void attachFaultInjector(FaultInjector *f) { fault_ = f; }

    /** Attach a host thread pool (nullptr = inline execution). */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

    /** Snapshot of the per-command-kind counters and cache stats. */
    FabricStats stats() const;
    void resetStats();

    /**
     * Per-tile bitline mask of cmd.tensor cells (shift-mask aware).
     * Memoized on the tile-local box the cells form — cmd.tensor clipped
     * to the array and to tile @p t, relative to the tile's origin, with
     * the positional window folded in along cmd.dim — so interior tiles
     * share one entry and a lookup allocates nothing. Built word-level on
     * first use and served from a sharded thread-safe cache afterwards
     * (same discipline as the JIT lowering memo); the returned reference
     * is stable for the fabric's lifetime.
     */
    const BitRow &tileMask(const InMemCommand &cmd, std::int64_t t,
                           bool apply_shift_mask) const;

    /** Fresh, uncached build of the same mask, one cell at a time
     * (the differential tests' reference). */
    BitRow tileMaskUncached(const InMemCommand &cmd, std::int64_t t,
                            bool apply_shift_mask) const;

  private:
    /** Deterministically pre-sampled SRAM upset for one command. */
    struct PlannedFault {
        std::size_t cmdIndex;
        std::int64_t tile;
        unsigned wl;
        unsigned bl;
    };

    /** Apply one pre-sampled upset: flip, detect via parity, repair. */
    void applyFault(const InMemCommand &cmd, const PlannedFault &pf);

    /**
     * Whole-plane InterShift in flight. With dist = q * tile_k + r (0 <=
     * r < tile_k), the cells of a source tile at in-tile positions below
     * tile_k - r (part 0) land in tile g_k + q, the rest (part 1) in
     * g_k + q + 1, each part at one constant bitline shift. Planned on
     * the calling thread, gathered per source tile at the end of one
     * phase, merged per destination tile at the start of the next.
     */
    struct PlaneMove {
        struct Part {
            Coord wlo, whi;    ///< In-tile positions along k that move.
            int shift;         ///< Bitline shift into the destination.
            std::int64_t step; ///< Destination minus source tile id.
        };
        const InMemCommand *cmd = nullptr;
        /** Source cells whose destination lies inside the array. */
        HyperRect src;
        std::array<Part, 2> parts{};
        std::vector<std::int64_t> srcTiles; ///< Sorted.
        /** Destination tile of slot 2 * i + part; -1 when nothing of
         * srcTiles[i] moves in that part. */
        std::vector<std::int64_t> slotDst;
        /** Per slot: the bits moved data planes, then the destination
         * mask, rowWords words each. Reused across commands. */
        std::vector<std::uint64_t> planes;
        unsigned bits = 0;
        std::size_t rowWords = 0;

        std::size_t slotWords() const { return (bits + 1) * rowWords; }
    };

    /** Fill @p mv for InterShift @p cmd (sequential, no tile access). */
    void planMove(const InMemCommand &cmd, PlaneMove &mv) const;
    /** Stage the moving planes of source tile mv.srcTiles[i]. */
    void gatherPlanes(PlaneMove &mv, std::size_t i);
    /** No landing slot. */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    /** The slot of part @p p that @p mv lands in tile @p t, or kNoSlot. */
    static std::size_t landingSlot(const PlaneMove &mv, std::size_t p,
                                   std::int64_t t);
    /** Merge the landing slots @p slots (kNoSlot: none) of @p mv into
     * tile @p t. */
    void mergePlanes(const PlaneMove &mv, std::int64_t t,
                     const std::array<std::size_t, 2> &slots);

    /**
     * One tile-major phase: commands [lo, hi) of @p prog (tile-local
     * kinds and Syncs only), preceded by the merge of @p in and followed
     * by the gather of @p out (either may be null). One parallelOver
     * across the tiles the phase touches; each worker applies, in
     * program order, every command that touches its tile, and each
     * planned fault right after its command.
     */
    void runPhase(const InMemProgram &prog, std::size_t lo, std::size_t hi,
                  const std::vector<const PlannedFault *> &faults,
                  const PlaneMove *in, PlaneMove *out);

    /** Apply tile-local @p cmd to tile @p t alone. */
    void applyOnTile(const InMemCommand &cmd, std::int64_t t);

    /** Bitline index delta for a unit step along @p dim inside a tile. */
    std::int64_t strideInTile(unsigned dim) const;

    /** Count @p n work units against tile @p t's bank group. */
    void
    addBankOps(std::int64_t t, std::uint64_t n)
    {
        bankOps_[static_cast<std::size_t>(t) % FabricStats::kBankSlots]
            .fetch_add(n, std::memory_order_relaxed);
    }

    /** Allocate every missing tile on the calling thread with deferred
     * rows; the caller materializes each one before use. */
    void reserveTiles() const;

    /** fn(i) for i in [0, n): across the pool when one is attached, else
     * inline. Touches no counter. */
    void parallelOver(std::int64_t n,
                      const std::function<void(std::int64_t)> &fn) const;

    /**
     * emit(srcPos, dstTile, dstPos, len, fill) for one coalesced run.
     * fill == false: @p len consecutive source elements starting at
     * srcPos land at dstPos. fill == true: the single source element at
     * srcPos replicates across @p len consecutive destinations (the
     * H tree's one-to-many mode, scattered as word-level range fills).
     */
    using MoveRunFn = std::function<void(unsigned, std::int64_t, unsigned,
                                         unsigned, bool)>;

    /** Broadcast special case (dim 0, unit span): per outer coordinate
     * the bcCount replicas of one source element tile a contiguous dim-0
     * destination run — emit fill runs split at tile boundaries. */
    void forEachFillRun(const HyperRect &part, Coord bcDist, Coord bcCount,
                        const MoveRunFn &fn) const;

    /** Generic broadcast enumeration: all bcCount replica moves of a
     * tile-clipped part in ONE odometer pass (the per-replica loop sits
     * inside, so scratch vectors are built once per part, not once per
     * replica — broadcasts have bcCount in the thousands). */
    void forEachBroadcastRun(const HyperRect &part, unsigned dim,
                             Coord span, Coord bcDist, Coord bcCount,
                             const MoveRunFn &fn) const;

    /**
     * Batched gather/scatter of whole bitline word-spans between tiles
     * for broadcasts. @p enumerate is called once per source tile with
     * that tile's clipped part and an emit callback; staged segment bits
     * flow through per-source-tile arenas so overlapping
     * source/destination slots stay safe and both phases fan out across
     * the pool.
     */
    void moveRuns(const std::vector<std::int64_t> &src_tiles,
                  const HyperRect &clipped, unsigned bits, unsigned wl_src,
                  unsigned wl_dst,
                  const std::function<void(const HyperRect &,
                                           const MoveRunFn &)> &enumerate);

    void execBroadcast(const InMemCommand &cmd);

    /** Most lattice dimensions a fabric handles (mask keys and tile
     * grid coordinates live in fixed-size arrays). */
    static constexpr unsigned kMaxDims = 8;

    /**
     * Everything that identifies one memoized tile mask: the tile-local
     * box [lo, hi) of selected cells, relative to the tile's origin. An
     * empty selection is the all-zero key.
     */
    struct MaskKey {
        std::array<Coord, kMaxDims> lo{};
        std::array<Coord, kMaxDims> hi{};

        bool operator==(const MaskKey &o) const = default;
    };

    struct MaskKeyHash {
        std::size_t operator()(const MaskKey &k) const;
    };

    /**
     * The key of the cells of @p r inside the array and tile @p t, with
     * in-tile positions along @p wdim limited to [wlo, whi) (wdim < 0:
     * no positional window).
     */
    MaskKey localBox(const HyperRect &r, std::int64_t t, int wdim,
                     Coord wlo, Coord whi) const;

    /** The memoized mask of @p key. A miss is counted only by the
     * lookup whose insert lands, so the counts match for any pool size. */
    const BitRow &boxMask(const MaskKey &key) const;

    /** Word-level mask construction backing boxMask (setRange runs over
     * the innermost contiguous dimension). */
    BitRow buildBoxMask(const MaskKey &key) const;

    /** Sharded cache (the PR 3 JIT-memo discipline: hash-picked shard,
     * per-shard lock, node-stable entries). */
    static constexpr std::size_t kMaskShards = 16;
    struct MaskShard {
        std::mutex mu;
        std::unordered_map<MaskKey, BitRow, MaskKeyHash> map;
    };

    TiledLayout layout_;
    unsigned wordlines_;
    unsigned bitlines_;
    /** Hoisted HyperRect::array(layout_.shape()) — one per fabric, not
     * one per command execution. */
    HyperRect arrayRect_;
    FaultInjector *fault_ = nullptr;
    ThreadPool *pool_ = nullptr;
    // Lazily allocated tiles (large layouts touch few in tests).
    mutable std::vector<std::unique_ptr<ComputeSram>> tiles_;

    mutable std::array<MaskShard, kMaskShards> maskShards_;
    mutable std::atomic<std::uint64_t> maskHits_{0};
    mutable std::atomic<std::uint64_t> maskMisses_{0};
    mutable std::array<std::atomic<std::uint64_t>, 6> kindCount_{};
    mutable std::array<std::atomic<std::uint64_t>, 6> kindNanos_{};
    /** Per-bank-group work-unit counters (FabricStats::bankOps). */
    std::array<std::atomic<std::uint64_t>, FabricStats::kBankSlots>
        bankOps_{};
    /** Two InterShifts can be in flight at a phase boundary: one
     * merging, the next gathering. */
    std::array<PlaneMove, 2> moves_;
    /** Scratch-alloc total at the last resetStats() (snapshots report the
     * delta; tiles never reset their own counters). */
    std::uint64_t scratchBase_ = 0;
};

} // namespace infs

#endif // INFS_UARCH_BIT_EXEC_HH
