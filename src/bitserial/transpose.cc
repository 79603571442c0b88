#include "bitserial/transpose.hh"

#include <algorithm>

#include "bitserial/simd.hh"

namespace infs {

Tick
TensorTransposeUnit::loadTransposed(ComputeSram &sram,
                                    std::span<const std::uint64_t> elems,
                                    DType t, unsigned wl,
                                    unsigned first_bitline) const
{
    infs_assert(first_bitline + elems.size() <= sram.bitlines(),
                "transpose overflows bitlines: %zu elems at %u",
                elems.size(), first_bitline);
    if (dtypeBits(t) == 32) {
        // Chunked bit transpose (DESIGN.md §14): 64 elements become 32
        // bit planes via two 32x32 transposes, then one depositFrom per
        // plane instead of one writeElement per element.
        const simd::SimdKernels &k = simd::active();
        BitMatrix &bm = sram.bits();
        std::uint32_t lanes[64];
        std::uint64_t planes[32];
        std::size_t i = 0;
        while (i < elems.size()) {
            const unsigned clen = static_cast<unsigned>(
                std::min<std::size_t>(elems.size() - i, 64));
            if (clen < 64)
                std::fill(lanes + clen, lanes + 64, 0u);
            for (unsigned e = 0; e < clen; ++e)
                lanes[e] = static_cast<std::uint32_t>(elems[i + e]);
            simd::lanesToPlanes(k, lanes, planes);
            const unsigned pos =
                first_bitline + static_cast<unsigned>(i);
            for (unsigned b = 0; b < 32; ++b)
                bm.row(wl + b).depositFrom(&planes[b], pos, clen);
            i += clen;
        }
        return conversionCycles(elems.size(), t);
    }
    for (std::size_t i = 0; i < elems.size(); ++i)
        sram.writeElement(first_bitline + static_cast<unsigned>(i), wl, t,
                          elems[i]);
    return conversionCycles(elems.size(), t);
}

Tick
TensorTransposeUnit::storeFromTransposed(const ComputeSram &sram,
                                         std::span<std::uint64_t> elems,
                                         DType t, unsigned wl,
                                         unsigned first_bitline) const
{
    infs_assert(first_bitline + elems.size() <= sram.bitlines(),
                "transpose overflows bitlines: %zu elems at %u",
                elems.size(), first_bitline);
    if (dtypeBits(t) == 32) {
        const simd::SimdKernels &k = simd::active();
        const BitMatrix &bm = sram.bits();
        std::uint32_t lanes[64];
        std::uint64_t planes[32];
        std::size_t i = 0;
        while (i < elems.size()) {
            const unsigned clen = static_cast<unsigned>(
                std::min<std::size_t>(elems.size() - i, 64));
            const unsigned pos =
                first_bitline + static_cast<unsigned>(i);
            for (unsigned b = 0; b < 32; ++b)
                bm.row(wl + b).extractTo(&planes[b], pos, clen);
            simd::planesToLanes(k, planes, lanes);
            for (unsigned e = 0; e < clen; ++e)
                elems[i + e] = lanes[e];
            i += clen;
        }
        return conversionCycles(elems.size(), t);
    }
    for (std::size_t i = 0; i < elems.size(); ++i)
        elems[i] = sram.readElement(first_bitline + static_cast<unsigned>(i),
                                    wl, t);
    return conversionCycles(elems.size(), t);
}

} // namespace infs
