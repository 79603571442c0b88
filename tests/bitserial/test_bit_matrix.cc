#include <gtest/gtest.h>

#include "bitserial/bit_matrix.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

TEST(BitRow, SetGetClear)
{
    BitRow r(256);
    EXPECT_FALSE(r.any());
    r.set(0, true);
    r.set(63, true);
    r.set(64, true);
    r.set(255, true);
    EXPECT_TRUE(r.get(0));
    EXPECT_TRUE(r.get(63));
    EXPECT_TRUE(r.get(64));
    EXPECT_TRUE(r.get(255));
    EXPECT_FALSE(r.get(1));
    EXPECT_EQ(r.popcount(), 4u);
    r.clear();
    EXPECT_FALSE(r.any());
}

TEST(BitRow, SetRangeAndStrided)
{
    BitRow r(256);
    r.setRange(10, 20);
    EXPECT_EQ(r.popcount(), 10u);
    EXPECT_TRUE(r.get(10));
    EXPECT_TRUE(r.get(19));
    EXPECT_FALSE(r.get(20));

    BitRow s(256);
    s.setStrided(1, 2, 4); // bits 1, 3, 5, 7
    EXPECT_EQ(s.popcount(), 4u);
    EXPECT_TRUE(s.get(1));
    EXPECT_TRUE(s.get(7));
    EXPECT_FALSE(s.get(2));
}

TEST(BitRow, StridedStopsAtBoundary)
{
    BitRow s(16);
    s.setStrided(10, 4, 100); // Only 10 and 14 fit.
    EXPECT_EQ(s.popcount(), 2u);
}

TEST(BitRow, LogicOps)
{
    BitRow a(128), b(128);
    a.setRange(0, 64);
    b.setRange(32, 96);
    EXPECT_EQ((a & b).popcount(), 32u);
    EXPECT_EQ((a | b).popcount(), 96u);
    EXPECT_EQ((a ^ b).popcount(), 64u);
    EXPECT_EQ((~a).popcount(), 64u);
}

TEST(BitRow, NotMasksTailBits)
{
    BitRow a(100); // Non-multiple of 64 — tail must stay clean.
    BitRow n = ~a;
    EXPECT_EQ(n.popcount(), 100u);
    EXPECT_EQ((~n).popcount(), 0u);
}

TEST(BitRow, ShiftUpDown)
{
    BitRow r(256);
    r.set(0, true);
    r.set(100, true);
    BitRow up = r.shiftedUp(3);
    EXPECT_TRUE(up.get(3));
    EXPECT_TRUE(up.get(103));
    EXPECT_EQ(up.popcount(), 2u);
    BitRow down = up.shiftedDown(3);
    EXPECT_TRUE(down == r);
}

TEST(BitRow, ShiftDropsBitsAtEdges)
{
    BitRow r(256);
    r.set(255, true);
    EXPECT_EQ(r.shiftedUp(1).popcount(), 0u);
    r.clear();
    r.set(0, true);
    EXPECT_EQ(r.shiftedDown(1).popcount(), 0u);
}

TEST(BitRow, ShiftAcrossWordBoundary)
{
    BitRow r(256);
    r.set(60, true);
    BitRow up = r.shiftedUp(10);
    EXPECT_TRUE(up.get(70));
    EXPECT_EQ(up.popcount(), 1u);
    BitRow down = BitRow(256);
    down.set(70, true);
    EXPECT_TRUE(down.shiftedDown(10).get(60));
}

TEST(BitRow, ShiftByWholeRowIsEmpty)
{
    BitRow r(128);
    r.setRange(0, 128);
    EXPECT_EQ(r.shiftedUp(128).popcount(), 0u);
    EXPECT_EQ(r.shiftedDown(500).popcount(), 0u);
}

TEST(BitMatrix, ElementRoundTrip)
{
    BitMatrix m(256, 256);
    m.writeElement(5, 0, 32, 0xdeadbeefULL);
    EXPECT_EQ(m.readElement(5, 0, 32), 0xdeadbeefULL);
    // Neighbouring bitlines untouched.
    EXPECT_EQ(m.readElement(4, 0, 32), 0u);
    EXPECT_EQ(m.readElement(6, 0, 32), 0u);
}

TEST(BitMatrix, ElementsArePlacedLsbFirst)
{
    BitMatrix m(64, 8);
    m.writeElement(3, 10, 8, 0b10000001);
    EXPECT_TRUE(m.get(10, 3));   // LSB at the base wordline.
    EXPECT_TRUE(m.get(17, 3));   // MSB at base + 7.
    EXPECT_FALSE(m.get(11, 3));
}

TEST(BitMatrix, MaskedWriteOnlyTouchesMask)
{
    BitMatrix m(4, 64);
    BitRow ones(64);
    ones.setRange(0, 64);
    BitRow mask(64);
    mask.setRange(0, 32);
    m.writeMasked(0, ones, mask);
    EXPECT_EQ(m.row(0).popcount(), 32u);
    // Now clear via mask of upper half; lower half persists.
    BitRow zeros(64);
    BitRow hi(64);
    hi.setRange(32, 64);
    m.writeMasked(0, zeros, hi);
    EXPECT_EQ(m.row(0).popcount(), 32u);
}

TEST(BitMatrix, RandomElementRoundTrip)
{
    BitMatrix m(256, 256);
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        unsigned bl = static_cast<unsigned>(rng.nextBounded(256));
        unsigned wl = static_cast<unsigned>(rng.nextBounded(256 - 32));
        std::uint64_t v = rng.next() & 0xffffffffULL;
        m.writeElement(bl, wl, 32, v);
        EXPECT_EQ(m.readElement(bl, wl, 32), v);
    }
}

TEST(BitRow, InlineAndHeapWordsCopyAndMove)
{
    // Rows up to RowWords::kInline words live inside the BitRow, wider
    // ones on the heap; copies must be deep and moves must carry the
    // bits either way.
    for (unsigned bits : {64u, 256u, 257u, 1000u}) {
        BitRow a(bits);
        a.setStrided(1, 7, bits / 7);
        const unsigned set = a.popcount();
        BitRow b = a;
        b.set(0, true);
        EXPECT_EQ(a.popcount(), set) << bits;
        EXPECT_EQ(b.popcount(), set + 1) << bits;
        BitRow c(8);
        c = b;
        EXPECT_TRUE(c == b) << bits;
        BitRow d = std::move(c);
        EXPECT_TRUE(d == b) << bits;
        BitRow e(bits);
        e = std::move(d);
        EXPECT_TRUE(e == b) << bits;
        EXPECT_EQ(e.words().size(), (bits + 63) / 64u) << bits;
    }
}

TEST(BitMatrix, DeferredRowsMaterializeZeroed)
{
    BitMatrix m(16, 300, BitMatrix::Deferred{});
    m.materialize();
    for (unsigned wl = 0; wl < 16; ++wl) {
        EXPECT_EQ(m.row(wl).bits(), 300u);
        EXPECT_FALSE(m.row(wl).any());
    }
    m.set(3, 299, true);
    m.materialize(); // Built once; a second call keeps the contents.
    EXPECT_TRUE(m.get(3, 299));
}

} // namespace
} // namespace infs
