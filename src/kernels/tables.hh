/**
 * @file
 * Internal lookup tables and the scalar reference kernels shared by
 * every backend TU. Not part of the public kernels API.
 *
 * The loops live here (and in the backend TUs); the *semantic* tables
 * — gf256's log/alog used by the codec math and checksum's widened-tag
 * constants — stay with their owning modules. These copies exist so
 * the kernels module is self-contained and sits below checksum/ in the
 * layering DAG.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hh"

namespace tvarak::kernels::detail {

/** CRC-32C (Castagnoli) slicing-by-eight tables. */
struct CrcTables {
    std::uint32_t t[8][256];
    CrcTables();
};

const CrcTables &crcTables();

/**
 * GF(2^8) / 0x11D multiplication tables: log/alog for the scalar
 * backend (alog doubled so exponent sums skip the mod-255), plus
 * per-coefficient nibble product rows for the AVX2 pshufb kernels —
 * mulLo[c][x] = c*x and mulHi[c][x] = c*(x<<4), so by linearity of
 * GF(2^8) multiplication over XOR,
 * c*b == mulLo[c][b & 0xf] ^ mulHi[c][b >> 4].
 */
struct GfTables {
    std::uint8_t logt[256];
    std::uint8_t alog[510];
    alignas(16) std::uint8_t mulLo[256][16];
    alignas(16) std::uint8_t mulHi[256][16];
    GfTables();
};

const GfTables &gfTables();

/** Advance a CRC-32C state (already inverted) by one 8-byte word. */
inline std::uint32_t
crcWordStep(const CrcTables &tb, std::uint32_t crc, std::uint64_t word)
{
    word ^= crc;
    return tb.t[7][word & 0xff] ^
           tb.t[6][(word >> 8) & 0xff] ^
           tb.t[5][(word >> 16) & 0xff] ^
           tb.t[4][(word >> 24) & 0xff] ^
           tb.t[3][(word >> 32) & 0xff] ^
           tb.t[2][(word >> 40) & 0xff] ^
           tb.t[1][(word >> 48) & 0xff] ^
           tb.t[0][(word >> 56) & 0xff];
}

// The scalar backend's kernels, shared so the AVX2 TU can finish
// ragged tails with them (and so non-x86 builds can alias its table
// to scalar).
std::uint32_t scalarCrc32c(const void *data, std::size_t n,
                           std::uint32_t seed);
void scalarXorInto(void *dst, const void *src, std::size_t n);
bool scalarXorDiff3(void *diff, const void *a, const void *b,
                    std::size_t n);
bool scalarIsZero(const void *data, std::size_t n);
void scalarGfMulAcc(void *dst, const void *src, std::uint8_t c,
                    std::size_t n);
void scalarCopyLine(void *dst, const void *src);
std::size_t scalarFindTag(const std::uint64_t *tags, std::size_t n,
                          std::uint64_t key);
bool scalarSequence(const SeqDesc &d);

/** Apply the parity roles of @p d from the (nonzero) src line. */
void scalarApplyRoles(const SeqDesc &d);

}  // namespace tvarak::kernels::detail

namespace tvarak::kernels {

// One dispatch table per backend TU. Declared extern here so the
// namespace-scope const definitions keep external linkage for
// dispatch.cc to reference.
extern const KernelOps kScalarOps;
extern const KernelOps kAvx2Ops;

}  // namespace tvarak::kernels
