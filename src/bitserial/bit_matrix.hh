/**
 * @file
 * Bit storage for one compute SRAM array: `wordlines` rows of `bitlines`
 * bits. A row is stored as packed 64-bit words so one row operation models
 * all bitline PEs operating in parallel, exactly like the hardware.
 */

#ifndef INFS_BITSERIAL_BIT_MATRIX_HH
#define INFS_BITSERIAL_BIT_MATRIX_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/logging.hh"

namespace infs {

/**
 * The packed words of one BitRow, stored inline up to kInline words (256
 * bitlines, the default array width) and on the heap beyond that. Inline
 * rows make a BitMatrix one allocation instead of one per wordline, which
 * keeps tile allocation cheap on the staging path (DESIGN.md §10).
 */
class RowWords
{
  public:
    static constexpr std::size_t kInline = 4;

    RowWords() = default;
    explicit RowWords(std::size_t n) : n_(n)
    {
        if (n > kInline)
            heap_ = std::make_unique<std::uint64_t[]>(n);
    }
    RowWords(const RowWords &o) : RowWords(o.n_)
    {
        std::copy_n(o.data(), n_, data());
    }
    RowWords(RowWords &&o) noexcept
        : n_(o.n_), inline_(o.inline_), heap_(std::move(o.heap_))
    {
        o.n_ = 0;
    }
    RowWords &
    operator=(const RowWords &o)
    {
        if (this == &o)
            return *this;
        if (o.n_ <= kInline)
            heap_.reset();
        else if (!heap_ || n_ != o.n_)
            heap_ = std::make_unique<std::uint64_t[]>(o.n_);
        n_ = o.n_;
        std::copy_n(o.data(), n_, data());
        return *this;
    }
    RowWords &
    operator=(RowWords &&o) noexcept
    {
        if (this == &o)
            return *this;
        n_ = o.n_;
        inline_ = o.inline_;
        heap_ = std::move(o.heap_);
        o.n_ = 0;
        return *this;
    }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    std::uint64_t *data() { return heap_ ? heap_.get() : inline_.data(); }
    const std::uint64_t *
    data() const
    {
        return heap_ ? heap_.get() : inline_.data();
    }
    std::uint64_t &operator[](std::size_t i) { return data()[i]; }
    std::uint64_t operator[](std::size_t i) const { return data()[i]; }
    std::uint64_t &back() { return data()[n_ - 1]; }
    std::uint64_t *begin() { return data(); }
    std::uint64_t *end() { return data() + n_; }
    const std::uint64_t *begin() const { return data(); }
    const std::uint64_t *end() const { return data() + n_; }
    operator std::span<const std::uint64_t>() const { return {data(), n_}; }

    bool
    operator==(const RowWords &o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    std::size_t n_ = 0;
    std::array<std::uint64_t, kInline> inline_{};
    std::unique_ptr<std::uint64_t[]> heap_;
};

/** One wordline's worth of bits across all bitlines, packed 64 per word. */
class BitRow
{
  public:
    BitRow() = default;
    explicit BitRow(unsigned bits)
        : bits_(bits), words_((bits + 63) / 64) {}

    unsigned bits() const { return bits_; }

    /** Packed 64-bit words, LSB-first (read-only hot-path access). */
    std::span<const std::uint64_t> words() const { return words_; }

    bool
    get(unsigned i) const
    {
        infs_assert(i < bits_, "bit index %u out of %u", i, bits_);
        return (words_[i / 64] >> (i % 64)) & 1ULL;
    }

    void
    set(unsigned i, bool v)
    {
        infs_assert(i < bits_, "bit index %u out of %u", i, bits_);
        std::uint64_t m = 1ULL << (i % 64);
        if (v)
            words_[i / 64] |= m;
        else
            words_[i / 64] &= ~m;
    }

    void
    clear()
    {
        for (auto &w : words_)
            w = 0;
    }

    /** Set bits [lo, hi) to 1 (others untouched). */
    void setRange(unsigned lo, unsigned hi);

    /** Set bits [lo, hi) to @p v (word-level; others untouched). */
    void fillRange(unsigned lo, unsigned hi, bool v);

    /** Set bits lo, lo+stride, ... (count of them) to 1. */
    void setStrided(unsigned lo, unsigned stride, unsigned count);

    /** Number of set bits. */
    unsigned popcount() const;

    bool any() const;

    // Elementwise logic across all bitlines (the parallel PE operations).
    BitRow operator&(const BitRow &o) const { return apply(o, OpAnd); }
    BitRow operator|(const BitRow &o) const { return apply(o, OpOr); }
    BitRow operator^(const BitRow &o) const { return apply(o, OpXor); }
    BitRow operator~() const;
    BitRow &operator&=(const BitRow &o) { inplace(o, OpAnd); return *this; }
    BitRow &operator|=(const BitRow &o) { inplace(o, OpOr); return *this; }
    BitRow &operator^=(const BitRow &o) { inplace(o, OpXor); return *this; }

    // ------------------------------------------------------------------
    // Fused in-place word-level passes (the allocation-free hot paths —
    // DESIGN.md §10). Every method below is a single pass over the packed
    // words with no temporaries; rows must have equal widths.
    // ------------------------------------------------------------------

    /** this &= o (named form used by the hot paths). */
    void andInto(const BitRow &o);

    /** this ^= o. */
    void xorInto(const BitRow &o);

    /** this |= o. */
    void orInto(const BitRow &o);

    /** this = ~a & m (aliasing-safe: @p a or @p m may be *this). */
    void notAndInto(const BitRow &a, const BitRow &m);

    /** this = a & b. */
    void assignAnd(const BitRow &a, const BitRow &b);

    /** this = maj(a, b, this) = (a & b) | (this & (a ^ b)) — the carry
     * half of a bit-serial full-adder step. */
    void majInto(const BitRow &a, const BitRow &b);

    /**
     * One fused full-adder step: with *this holding the partial sum,
     * updates this = this ^ addend ^ carry and carry = maj(this_old,
     * addend, carry) in a single word pass.
     */
    void fullAdderInto(const BitRow &addend, BitRow &carry);

    /** this = (a & pred) | (b & ~pred) — the predicated select. */
    void assignSelect(const BitRow &a, const BitRow &b,
                      const BitRow &pred);

    /** this = src (width must match; no reallocation). */
    void copyFrom(const BitRow &src);

    /**
     * this = src shifted by @p dist bitlines (positive = up / toward
     * higher index). Allocation-free counterpart of shiftedUp/Down;
     * @p src must not alias *this.
     */
    void assignShifted(const BitRow &src, int dist);

    /**
     * Extract bits [lo, lo + len) into @p out packed LSB-first
     * ((len + 63) / 64 words). Word-level with arbitrary alignment.
     */
    void extractTo(std::uint64_t *out, unsigned lo, unsigned len) const;

    /** Inverse of extractTo: deposit @p len bits from @p in at @p lo.
     * Bits outside [lo, lo + len) are untouched. */
    void depositFrom(const std::uint64_t *in, unsigned lo, unsigned len);

    /** this = (this & ~mask) | (value & mask) — the predicated write. */
    void mergeMasked(const BitRow &value, const BitRow &mask);

    /**
     * Word-granular predicated merge for the blocked fp path (DESIGN.md
     * §14): words()[wi] = (words()[wi] & ~mask) | (val & mask).
     */
    void
    mergeWordMasked(unsigned wi, std::uint64_t val, std::uint64_t mask)
    {
        infs_assert(wi < words_.size(), "word %u out of %zu", wi,
                    words_.size());
        words_[wi] = (words_[wi] & ~mask) | (val & mask);
    }

    bool operator==(const BitRow &o) const
    {
        return bits_ == o.bits_ && words_ == o.words_;
    }

    /** Shift the row left (toward higher bitline index) by @p n bits. */
    BitRow shiftedUp(unsigned n) const;
    /** Shift the row right (toward lower bitline index) by @p n bits. */
    BitRow shiftedDown(unsigned n) const;

  private:
    enum OpKind { OpAnd, OpOr, OpXor };

    BitRow apply(const BitRow &o, OpKind k) const;
    void inplace(const BitRow &o, OpKind k);
    void maskTail();

    // Raw word access for BitMatrix's single-pass element fast paths.
    friend class BitMatrix;

    unsigned bits_ = 0;
    RowWords words_;
};

/**
 * The bit contents of one SRAM array: wordlines x bitlines. Wordline 0 is
 * the top row. Elements in transposed layout occupy consecutive wordlines
 * (LSB at the lowest wordline) of a single bitline.
 */
class BitMatrix
{
  public:
    BitMatrix(unsigned wordlines, unsigned bitlines)
        : BitMatrix(wordlines, bitlines, Deferred{})
    {
        materialize();
    }

    /**
     * Constructor tag: allocate the row storage now, but construct the
     * zeroed rows only in materialize(). The allocating thread and the
     * thread that first touches the pages can then differ (the fabric's
     * tile-parallel staging, DESIGN.md §10).
     */
    struct Deferred {};
    BitMatrix(unsigned wordlines, unsigned bitlines, Deferred)
        : wordlines_(wordlines), bitlines_(bitlines)
    {
        rows_.reserve(wordlines);
    }

    /** Construct the rows of a Deferred matrix; a no-op once built. Rows
     * of up to RowWords::kInline words allocate nothing here. */
    void
    materialize()
    {
        if (rows_.empty())
            rows_.resize(wordlines_, BitRow(bitlines_));
    }

    unsigned wordlines() const { return wordlines_; }
    unsigned bitlines() const { return bitlines_; }

    const BitRow &
    row(unsigned wl) const
    {
        infs_assert(wl < rows_.size(), "wordline %u out of %zu", wl,
                    rows_.size());
        return rows_[wl];
    }

    BitRow &
    row(unsigned wl)
    {
        infs_assert(wl < rows_.size(), "wordline %u out of %zu", wl,
                    rows_.size());
        return rows_[wl];
    }

    bool get(unsigned wl, unsigned bl) const { return row(wl).get(bl); }
    void set(unsigned wl, unsigned bl, bool v) { row(wl).set(bl, v); }

    /**
     * Write only the masked bitlines of a wordline: row = (row & ~mask) |
     * (value & mask). This is the predicated write the hardware performs.
     */
    void
    writeMasked(unsigned wl, const BitRow &value, const BitRow &mask)
    {
        row(wl).mergeMasked(value, mask);
    }

    /**
     * Read an element of @p bits width stored transposed on @p bitline
     * starting at wordline @p wl (LSB first). Returns the raw bit pattern.
     */
    std::uint64_t readElement(unsigned bitline, unsigned wl,
                              unsigned bits) const;

    /** Write an element (inverse of readElement). */
    void writeElement(unsigned bitline, unsigned wl, unsigned bits,
                      std::uint64_t value);

    void
    clear()
    {
        for (auto &r : rows_)
            r.clear();
    }

  private:
    unsigned wordlines_;
    unsigned bitlines_;
    std::vector<BitRow> rows_;
};

} // namespace infs

#endif // INFS_BITSERIAL_BIT_MATRIX_HH
