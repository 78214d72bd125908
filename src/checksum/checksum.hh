/**
 * @file
 * Checksum and parity kernels.
 *
 * All redundancy information in the system is *real*: DAX-CL-checksums
 * are CRC-32C values of actual 64-byte lines, page system-checksums are
 * CRC-32C over 4 KB, and cross-DIMM parity is the actual XOR of the
 * data pages in a RAID-5 stripe. Fault-injection tests rely on this:
 * a corrupted line really fails verification and is really rebuilt.
 *
 * The byte loops themselves live in src/kernels/ behind the
 * runtime-dispatched KernelOps table (scalar slicing-by-eight, or AVX2
 * with the hardware CRC32 instruction); this header is the
 * line/page-semantic facade the rest of the system uses. CRC-32C is
 * both the functional checksum and the model behind the software
 * schemes' compute-cost (SimConfig::swChecksumBytesPerCycle).
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace tvarak {

/** High-byte tag of a widened DAX-CL line checksum ('L'). */
constexpr std::uint64_t kDaxClCsumTag = std::uint64_t{0x4c} << 56;

/** High-byte tag of a widened page system-checksum ('P'). */
constexpr std::uint64_t kPageCsumTag = std::uint64_t{0x50} << 56;

/** High-byte tag of a widened object checksum ('O'). */
constexpr std::uint64_t kObjectCsumTag = std::uint64_t{0x4f} << 56;

/** CRC-32C of @p len bytes at @p data, seeded with @p crc (0 start). */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t crc = 0);

/** Checksum of one 64 B cache line, widened to the packed 8 B format. */
std::uint64_t lineChecksum(const void *line);

/** Page (4 KB) system-checksum. */
std::uint64_t pageChecksum(const void *page);

/** dst[i] ^= src[i] over one cache line. */
void xorLine(void *dst, const void *src);

/** dst[i] = a[i] ^ b[i] over one cache line. */
void xorLineInto(void *dst, const void *a, const void *b);

/** True iff the 64 B line is all zero. */
bool lineIsZero(const void *line);

}  // namespace tvarak

