/**
 * @file
 * Differential certification of the SIMD dispatch layer (DESIGN.md §14):
 * every kernel table reachable on this host — Portable and, on AVX2
 * hosts, AVX2 — must be bit-identical to the portable table at every
 * level: raw row kernels, the 32x32 transpose, the 64-lane fp32 block
 * ops, and whole lowered-job checksums on the fabric backend.
 * ComputeSram's blocked fp32 path is checked lane by lane against scalar
 * C arithmetic under every reachable table. The same binary
 * re-certifies any single path when ctest runs under a forced INFS_SIMD
 * (scripts/check.sh --simd), because InfinitySystem resolves Auto from
 * the environment.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "bitserial/simd.hh"
#include "core/backend.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

/** Every ISA whose table can execute on this host. Portable is listed
 * first so differential loops can treat it as the reference. */
std::vector<SimdIsa>
reachableIsas()
{
    std::vector<SimdIsa> out{SimdIsa::Portable};
    if (simd::available(SimdIsa::Avx2))
        out.push_back(SimdIsa::Avx2);
    return out;
}

/** Restores the process-global kernel table after each test so forcing
 * an ISA here cannot leak into later tests in the same binary. */
class SimdPathTest : public ::testing::Test
{
  protected:
    SimdPathTest() : saved_(simd::activeIsa()) {}
    ~SimdPathTest() override { simd::setActive(saved_); }

  private:
    SimdIsa saved_;
};

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng.next();
    return v;
}

TEST_F(SimdPathTest, RowKernelsMatchPortable)
{
    const simd::SimdKernels &ref = simd::kernelsFor(SimdIsa::Portable);
    // Odd word counts exercise every vector-tail path.
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                          std::size_t{33}}) {
        Rng rng(0x51D0 + n);
        const auto a = randomWords(rng, n);
        const auto b = randomWords(rng, n);
        const auto c = randomWords(rng, n);
        for (SimdIsa isa : reachableIsas()) {
            SCOPED_TRACE(std::string(simdIsaName(isa)) + " n=" +
                         std::to_string(n));
            const simd::SimdKernels &k = simd::kernelsFor(isa);

            auto sum_r = a, carry_r = c, sum_k = a, carry_k = c;
            ref.rowFullAdder(sum_r.data(), b.data(), carry_r.data(), n);
            k.rowFullAdder(sum_k.data(), b.data(), carry_k.data(), n);
            EXPECT_EQ(sum_k, sum_r);
            EXPECT_EQ(carry_k, carry_r);

            auto maj_r = c, maj_k = c;
            ref.rowMaj(maj_r.data(), a.data(), b.data(), n);
            k.rowMaj(maj_k.data(), a.data(), b.data(), n);
            EXPECT_EQ(maj_k, maj_r);

            std::vector<std::uint64_t> sel_r(n), sel_k(n);
            ref.rowSelect(sel_r.data(), a.data(), b.data(), c.data(), n);
            k.rowSelect(sel_k.data(), a.data(), b.data(), c.data(), n);
            EXPECT_EQ(sel_k, sel_r);

            auto mrg_r = a, mrg_k = a;
            ref.rowMergeMasked(mrg_r.data(), b.data(), c.data(), n);
            k.rowMergeMasked(mrg_k.data(), b.data(), c.data(), n);
            EXPECT_EQ(mrg_k, mrg_r);

            std::vector<std::uint64_t> and_r(n), and_k(n);
            ref.rowAssignAnd(and_r.data(), a.data(), b.data(), n);
            k.rowAssignAnd(and_k.data(), a.data(), b.data(), n);
            EXPECT_EQ(and_k, and_r);

            std::vector<std::uint64_t> na_r(n), na_k(n);
            ref.rowNotAnd(na_r.data(), a.data(), b.data(), n);
            k.rowNotAnd(na_k.data(), a.data(), b.data(), n);
            EXPECT_EQ(na_k, na_r);

            auto acc_r = a, acc_k = a;
            ref.rowAnd(acc_r.data(), b.data(), n);
            k.rowAnd(acc_k.data(), b.data(), n);
            ref.rowOr(acc_r.data(), c.data(), n);
            k.rowOr(acc_k.data(), c.data(), n);
            ref.rowXor(acc_r.data(), b.data(), n);
            k.rowXor(acc_k.data(), b.data(), n);
            EXPECT_EQ(acc_k, acc_r);
        }
    }
}

TEST_F(SimdPathTest, Transpose32IsExactAndMatchesPortable)
{
    Rng rng(0x7245);
    std::uint32_t in[32], ref_out[32];
    for (auto &w : in)
        w = static_cast<std::uint32_t>(rng.next());
    simd::kernelsFor(SimdIsa::Portable).transpose32(in, ref_out);
    // Reference semantics: out[c] bit r == in[r] bit c, LSB first.
    for (unsigned r = 0; r < 32; ++r)
        for (unsigned c = 0; c < 32; ++c)
            ASSERT_EQ((ref_out[c] >> r) & 1u, (in[r] >> c) & 1u)
                << "r=" << r << " c=" << c;
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        std::uint32_t out[32], back[32];
        k.transpose32(in, out);
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(out[i], ref_out[i]) << "plane " << i;
        k.transpose32(out, back);
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(back[i], in[i]) << "round trip word " << i;
    }
}

TEST_F(SimdPathTest, LanesPlanesRoundTrip)
{
    Rng rng(0xB10C);
    std::uint32_t lanes[64];
    for (auto &l : lanes)
        l = static_cast<std::uint32_t>(rng.next());
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        std::uint64_t planes[32];
        std::uint32_t back[64];
        simd::lanesToPlanes(k, lanes, planes);
        simd::planesToLanes(k, planes, back);
        for (unsigned i = 0; i < 64; ++i)
            EXPECT_EQ(back[i], lanes[i]) << "lane " << i;
    }
}

/** fp32 bit patterns spanning the awkward corners: NaN payloads, signed
 * zeros, infinities, denormals — the lanes where vector min/max and
 * compare semantics classically diverge from scalar C. */
std::vector<std::uint32_t>
awkwardFloats(Rng &rng, unsigned n)
{
    std::vector<std::uint32_t> v{
        std::bit_cast<std::uint32_t>(0.0f),
        std::bit_cast<std::uint32_t>(-0.0f),
        std::bit_cast<std::uint32_t>(1.0f),
        std::bit_cast<std::uint32_t>(-2.5f),
        std::bit_cast<std::uint32_t>(
            std::numeric_limits<float>::infinity()),
        std::bit_cast<std::uint32_t>(
            -std::numeric_limits<float>::infinity()),
        std::bit_cast<std::uint32_t>(
            std::numeric_limits<float>::quiet_NaN()),
        0x7f800001u, // Signaling-NaN pattern.
        0x00000001u, // Smallest denormal.
        0x807fffffu, // Largest negative denormal.
    };
    while (v.size() < n)
        v.push_back(static_cast<std::uint32_t>(rng.next()));
    return v;
}

TEST_F(SimdPathTest, FpLanesAndLtMaskMatchPortable)
{
    Rng rng(0xF9);
    const auto a = awkwardFloats(rng, 64);
    const auto b = awkwardFloats(rng, 64);
    const simd::SimdKernels &ref = simd::kernelsFor(SimdIsa::Portable);
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        for (simd::FpOp op :
             {simd::FpOp::Add, simd::FpOp::Sub, simd::FpOp::Mul,
              simd::FpOp::Div, simd::FpOp::Max, simd::FpOp::Min}) {
            std::uint32_t r_ref[64], r_k[64];
            ref.fpLanes(op, a.data(), b.data(), r_ref, 64);
            k.fpLanes(op, a.data(), b.data(), r_k, 64);
            for (unsigned i = 0; i < 64; ++i)
                EXPECT_EQ(r_k[i], r_ref[i])
                    << "op " << static_cast<int>(op) << " lane " << i;
        }
        // Partial lane counts exercise the tail masking.
        for (unsigned n : {1u, 17u, 64u})
            EXPECT_EQ(k.fpLtMask(a.data(), b.data(), n),
                      ref.fpLtMask(a.data(), b.data(), n))
                << "n=" << n;
    }
}

void
expectStatsEqual(const SramOpStats &got, const SramOpStats &want)
{
    EXPECT_EQ(got.rowReads, want.rowReads);
    EXPECT_EQ(got.rowWrites, want.rowWrites);
    EXPECT_EQ(got.htreeRowMoves, want.htreeRowMoves);
    EXPECT_EQ(got.opCount, want.opCount);
}

/** Scalar C result of one fp32 lane op on raw bit patterns; CmpLt
 * gives 1 or 0. Arithmetic on a NaN first operand gives that NaN
 * quieted (the payload rule SimdKernels::fpLanes fixes). */
std::uint32_t
scalarLane(BitOp op, std::uint32_t a_bits, std::uint32_t b_bits)
{
    const float a = std::bit_cast<float>(a_bits);
    const float b = std::bit_cast<float>(b_bits);
    const bool arith = op == BitOp::Add || op == BitOp::Sub ||
                       op == BitOp::Mul || op == BitOp::Div;
    if (arith && std::isnan(a))
        return a_bits | 0x00400000u;
    float r = 0.0f;
    switch (op) {
      case BitOp::Add: r = a + b; break;
      case BitOp::Sub: r = a - b; break;
      case BitOp::Mul: r = a * b; break;
      case BitOp::Div: r = a / b; break;
      case BitOp::Max: r = a > b ? a : b; break;
      case BitOp::Min: r = a < b ? a : b; break;
      case BitOp::CmpLt: return a < b ? 1u : 0u;
      default: ADD_FAILURE() << "unexpected op"; break;
    }
    return std::bit_cast<std::uint32_t>(r);
}

/**
 * ComputeSram fp32 compute under every reachable table, checked lane by
 * lane against scalar C arithmetic: under a full and a half mask, every
 * masked lane holds the scalar result (CmpLt drives only bit 0 of the
 * destination) and every other lane keeps its old bits. Cycle costs and
 * SramOpStats must match the portable run.
 */
TEST_F(SimdPathTest, ComputeSramFp32PathsAreBitIdentical)
{
    struct Run {
        std::vector<Tick> costs;
        SramOpStats stats;
    };
    // The first corners² lanes pair every awkward corner with every
    // other one (NaN against ±0, denormal against infinity, ...); the
    // rest are random bit patterns.
    Rng rng(0x5FA3);
    const auto corners = awkwardFloats(rng, 0);
    const auto random = awkwardFloats(rng, 256);
    const std::size_t nc = corners.size();
    std::vector<std::uint32_t> a(256), b(256);
    for (std::size_t i = 0; i < a.size(); ++i) {
        const bool cross = i < nc * nc;
        a[i] = cross ? corners[i % nc] : random[i];
        b[i] = cross ? corners[i / nc] : random[(i * 7) % random.size()];
    }
    constexpr unsigned kWlA = 0, kWlB = 32, kWlDst = 64;

    auto run_with = [&](SimdIsa isa) -> Run {
        simd::setActive(isa);
        Run run;
        for (bool half : {false, true}) {
            for (BitOp op : {BitOp::Add, BitOp::Sub, BitOp::Mul, BitOp::Div,
                             BitOp::Max, BitOp::Min, BitOp::CmpLt}) {
                SCOPED_TRACE(std::string(bitOpName(op)) +
                             (half ? " half mask" : " full mask"));
                ComputeSram sram(256, 128);
                BitRow mask = sram.fullMask();
                if (half)
                    for (unsigned i = 0; i < sram.bitlines(); i += 2)
                        mask.set(i, false);
                auto old_dst = [](unsigned i) {
                    return 0xA5C3F00Du ^ (i * 0x9E3779B9u);
                };
                for (unsigned i = 0; i < sram.bitlines(); ++i) {
                    sram.writeElement(i, kWlA, DType::Fp32, a[i]);
                    sram.writeElement(i, kWlB, DType::Fp32, b[i]);
                    sram.writeElement(i, kWlDst, DType::Fp32, old_dst(i));
                }
                run.costs.push_back(sram.execBinary(op, DType::Fp32, kWlA,
                                                    kWlB, kWlDst, mask));
                for (unsigned i = 0; i < sram.bitlines(); ++i) {
                    std::uint32_t want = old_dst(i);
                    if (mask.get(i)) {
                        const std::uint32_t r = scalarLane(op, a[i], b[i]);
                        want = op == BitOp::CmpLt ? (want & ~1u) | r : r;
                    }
                    const std::uint64_t got =
                        sram.readElement(i, kWlDst, DType::Fp32);
                    if (got != want) {
                        ADD_FAILURE() << "lane " << i << ": got " << got
                                      << ", want " << want;
                        break;
                    }
                }
                run.stats += sram.stats();
            }
        }
        return run;
    };

    const Run ref = run_with(SimdIsa::Portable);
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        Run got = run_with(isa);
        EXPECT_EQ(got.costs, ref.costs);
        expectStatsEqual(got.stats, ref.stats);
    }
}

/**
 * Whole-job differential: lowered scenario programs run on the fabric
 * backend under every reachable ISA must reproduce the portable
 * checksum byte for byte and the same sim_cycles (timing never depends
 * on the host ISA).
 */
TEST_F(SimdPathTest, FabricJobChecksumsIsaInvariant)
{
    constexpr std::int64_t kVolumeCap = 1 << 16;
    SystemConfig cfg = testSystemConfig();
    for (const char *name : {"vec_add", "array_sum", "dwt2d"}) {
        SCOPED_TRACE(name);
        const BenchScenario *sc = findScenario(name);
        ASSERT_NE(sc, nullptr);
        auto job = planPrimaryJob(sc->quick(), cfg, nullptr, kVolumeCap);
        if (!job)
            continue;
        simd::setActive(SimdIsa::Portable);
        BackendResult ref =
            makeBackend(ExecBackendKind::Fabric, cfg)->runJob(*job);
        for (SimdIsa isa : reachableIsas()) {
            SCOPED_TRACE(simdIsaName(isa));
            simd::setActive(isa);
            BackendResult got =
                makeBackend(ExecBackendKind::Fabric, cfg)->runJob(*job);
            EXPECT_EQ(got.checksum, ref.checksum);
            EXPECT_EQ(got.simCycles, ref.simCycles);
        }
    }
}

} // namespace
} // namespace infs
