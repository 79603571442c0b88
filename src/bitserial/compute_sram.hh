/**
 * @file
 * One compute-enabled SRAM array (Neural-Cache-style): 256x256 bits with
 * per-bitline bit-serial PEs. Integer add/sub/mul/compare/max execute
 * genuinely bit-serially on the stored bits (one wordline of all bitlines
 * per step); fp32 operations are computed functionally per bitline with
 * cycle costs charged from the LatencyTable (the paper's own methodology:
 * circuits from prior work, architecture modeled).
 */

#ifndef INFS_BITSERIAL_COMPUTE_SRAM_HH
#define INFS_BITSERIAL_COMPUTE_SRAM_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "bitserial/bit_matrix.hh"
#include "bitserial/latency.hh"
#include "sim/types.hh"

namespace infs {

/** Event counts for energy accounting. */
struct SramOpStats {
    std::uint64_t rowReads = 0;    ///< Wordline activations for sensing.
    std::uint64_t rowWrites = 0;   ///< Wordline activations for writing.
    std::uint64_t htreeRowMoves = 0; ///< Rows moved through the H tree.
    std::uint64_t opCount = 0;     ///< Bit-serial compute commands run.

    SramOpStats &
    operator+=(const SramOpStats &o)
    {
        rowReads += o.rowReads;
        rowWrites += o.rowWrites;
        htreeRowMoves += o.htreeRowMoves;
        opCount += o.opCount;
        return *this;
    }
};

/**
 * A compute SRAM array. Operands are identified by their starting wordline;
 * an n-bit element occupies wordlines [wl, wl+n) of one bitline, LSB first.
 * All operations are predicated by a bitline mask (which PEs participate).
 */
class ComputeSram
{
  public:
    ComputeSram(unsigned wordlines, unsigned bitlines)
        : bits_(wordlines, bitlines)
    {
    }

    /** An array whose rows are built later by bits().materialize(). */
    ComputeSram(unsigned wordlines, unsigned bitlines, BitMatrix::Deferred d)
        : bits_(wordlines, bitlines, d)
    {
    }

    unsigned wordlines() const { return bits_.wordlines(); }
    unsigned bitlines() const { return bits_.bitlines(); }

    const BitMatrix &bits() const { return bits_; }
    BitMatrix &bits() { return bits_; }

    const SramOpStats &stats() const { return stats_; }
    void resetStats() { stats_ = SramOpStats{}; }

    /** A mask with every bitline selected. */
    BitRow fullMask() const;

    // ------------------------------------------------------------------
    // Element access (used by the transpose unit model and by tests).
    // ------------------------------------------------------------------

    /** Read the raw bits of the element at (bitline, wl). */
    std::uint64_t
    readElement(unsigned bitline, unsigned wl, DType t) const
    {
        return bits_.readElement(bitline, wl, dtypeBits(t));
    }

    /** Write the raw bits of the element at (bitline, wl). */
    void
    writeElement(unsigned bitline, unsigned wl, DType t, std::uint64_t v)
    {
        bits_.writeElement(bitline, wl, dtypeBits(t), v);
    }

    float readFloat(unsigned bitline, unsigned wl) const;
    void writeFloat(unsigned bitline, unsigned wl, float v);

    // ------------------------------------------------------------------
    // Fault-injection support.
    // ------------------------------------------------------------------

    /** Flip one stored bit in place (models a transient SRAM upset). */
    void
    flipBit(unsigned wl, unsigned bitline)
    {
        bits_.set(wl, bitline, !bits_.get(wl, bitline));
    }

    /** Even parity over wordline @p wl (the per-row parity code that
     * detects single-bit upsets). */
    bool
    rowParity(unsigned wl) const
    {
        return (bits_.row(wl).popcount() & 1u) != 0;
    }

    // ------------------------------------------------------------------
    // Bit-serial compute. Each returns the cycle cost from the latency
    // table; the bits in the matrix are updated as the hardware would.
    // ------------------------------------------------------------------

    /**
     * dst = a op b elementwise across masked bitlines.
     * For CmpLt, dst is a single wordline holding the 1-bit result mask.
     * @return Cycle cost of the command.
     */
    Tick execBinary(BitOp op, DType t, unsigned wl_a, unsigned wl_b,
                    unsigned wl_dst, const BitRow &mask);

    /** dst = a op constant (constant broadcast to all masked bitlines). */
    Tick execBinaryImm(BitOp op, DType t, unsigned wl_a, std::uint64_t imm,
                       unsigned wl_dst, const BitRow &mask);

    /** Unary ops: Copy, Relu. */
    Tick execUnary(BitOp op, DType t, unsigned wl_a, unsigned wl_dst,
                   const BitRow &mask);

    /**
     * Predicated select: dst = pred ? a : b, where @p wl_pred names a
     * single wordline holding a 1-bit predicate per bitline.
     */
    Tick execSelect(DType t, unsigned wl_pred, unsigned wl_a, unsigned wl_b,
                    unsigned wl_dst, const BitRow &mask);

    /** Broadcast an immediate value into the masked bitlines at wl_dst. */
    Tick writeImmediate(DType t, std::uint64_t imm, unsigned wl_dst,
                        const BitRow &mask);

    // ------------------------------------------------------------------
    // H-tree data movement within the array.
    // ------------------------------------------------------------------

    /**
     * Shift masked elements horizontally by @p dist bitlines (positive =
     * toward higher bitline index). Elements shifted outside the array are
     * discarded; destination bitlines outside the mask-shift are untouched.
     * @return Cycle cost.
     */
    Tick shift(DType t, unsigned wl_src, unsigned wl_dst, int dist,
               const BitRow &mask);

    /**
     * Broadcast the element of @p src_bitline at wl_src to every masked
     * bitline at wl_dst (the buffered H tree's one-to-many mode).
     * @return Cycle cost.
     */
    Tick broadcast(DType t, unsigned src_bitline, unsigned wl_src,
                   unsigned wl_dst, const BitRow &mask);

    const LatencyTable &latency() const { return lat_; }

    /**
     * Heap allocations performed inside bit-serial kernels since
     * construction. The scratch-row pool makes the per-bit loops
     * allocation-free: after one warm-up call per kernel shape this
     * counter stays flat (asserted by tests/bitserial).
     */
    std::uint64_t scratchAllocs() const { return scratchAllocs_; }

  private:
    Tick intAddSub(bool subtract, DType t, unsigned wl_a, unsigned wl_b,
                   unsigned wl_dst, const BitRow &mask);
    Tick intMul(DType t, unsigned wl_a, unsigned wl_b, unsigned wl_dst,
                const BitRow &mask);
    /** Compute the signed less-than mask row for a < b into @p lt. */
    void lessThanMask(DType t, unsigned wl_a, unsigned wl_b,
                      const BitRow &mask, BitRow &lt);
    Tick fpBinary(BitOp op, unsigned wl_a, unsigned wl_b, unsigned wl_dst,
                  const BitRow &mask);

    /** Read wordline @p wl, counting the activation. */
    const BitRow &senseRow(unsigned wl);
    /** Predicated write of wordline @p wl, counting the activation. */
    void driveRow(unsigned wl, const BitRow &value, const BitRow &mask);

    /**
     * Reusable scratch row @p i (PE latches / sense-amp copies). Grows
     * the pool on first use only — per-bit loops acquire their rows up
     * front, so the loops themselves never allocate. The caller owns the
     * contents (no implicit clear). One ComputeSram is always driven by
     * one thread at a time (the fabric's per-tile fan-out guarantees
     * this), so the pool needs no locking.
     */
    BitRow &scratch(unsigned i);

    /** Visit every set bit of @p mask as a bitline index (word-scan with
     * count-trailing-zeros; the fp32 functional paths iterate only the
     * selected lanes). */
    template <typename Fn>
    void
    forEachSetBit(const BitRow &mask, Fn &&fn) const
    {
        const auto words = mask.words();
        for (std::size_t wi = 0; wi < words.size(); ++wi) {
            std::uint64_t w = words[wi];
            while (w != 0) {
                const unsigned bl = static_cast<unsigned>(wi) * 64 +
                                    std::countr_zero(w);
                fn(bl);
                w &= w - 1;
            }
        }
    }

    BitMatrix bits_;
    LatencyTable lat_;
    SramOpStats stats_;
    std::vector<BitRow> pool_;
    std::uint64_t scratchAllocs_ = 0;
};

} // namespace infs

#endif // INFS_BITSERIAL_COMPUTE_SRAM_HH
