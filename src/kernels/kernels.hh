/**
 * @file
 * Runtime-dispatched data-plane kernels.
 *
 * Every byte loop the simulator's data plane runs — CRC-32C, XOR
 * parity/diff application, GF(2^8) multiply-accumulate for the
 * Reed-Solomon designs, cache tag scans — lives behind the KernelOps
 * function-pointer table defined here. Two backends implement the
 * table: portable scalar (the reference, and the fallback on any CPU
 * without AVX2) and AVX2. The backend is chosen once at startup by
 * CPUID; the hot path pays one indirect call and stays branch-free.
 * Tests and benches reach a specific backend's table with opsFor() or
 * route ops() to it with selectBackend().
 *
 * The AVX2 backend is bit-identical to scalar by construction —
 * CRC-32C is a pure function, XOR is XOR, and GF(2^8) multiplication
 * distributes over XOR so the nibble-table SIMD formulation equals the
 * log/alog scalar one. tests/test_kernels.cc pins this property on
 * random buffers, and the golden-trace replay tests pin that simulated
 * Stats do not depend on the backend.
 *
 * KernelSequence chains {capture-diff, k parity-role updates,
 * checksum} over one cache line into a single pass, modeled on SPDK's
 * chained accel sequences (spdk_accel_append_*): callers append the
 * ops they need and run() executes the fused loop.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace tvarak::kernels {

/** Kernel backend tiers, in ascending preference order. */
enum class Backend { Scalar = 0, Avx2 = 1 };

constexpr std::size_t kBackendCount = 2;

/** Parity roles a single sequence can update (max supported k). */
constexpr std::size_t kSeqMaxRoles = 8;

/**
 * One fused pass over a single cache line, built by KernelSequence.
 *
 * Modes:
 *   - capture: diffOut = oldData ^ newData (src == diffOut after the
 *     builder runs); the checksum, if requested, covers newData.
 *   - source:  src supplied directly (no capture); the checksum, if
 *     requested, covers src.
 *
 * Parity roles apply parity[r] ^= coeff[r] * src over GF(2^8) (a
 * coefficient of 1 degenerates to plain XOR). Roles are skipped when
 * the src line is all zero — the update would be the identity.
 */
struct SeqDesc {
    const std::uint8_t *src = nullptr;      //!< diff source (kLineBytes)
    const std::uint8_t *oldData = nullptr;  //!< capture mode only
    const std::uint8_t *newData = nullptr;  //!< capture mode only
    std::uint8_t *diffOut = nullptr;        //!< capture mode only
    std::uint64_t *csumOut = nullptr;       //!< widened checksum out
    std::uint64_t csumTag = 0;              //!< high-byte tag to fold in
    std::uint8_t *parity[kSeqMaxRoles] = {};
    std::uint8_t coeff[kSeqMaxRoles] = {};
    std::size_t roles = 0;
};

/**
 * The per-backend kernel table. All buffer kernels accept arbitrary
 * lengths and alignments; `sequence` operates on whole cache lines.
 */
struct KernelOps {
    const char *name;

    /** CRC-32C (Castagnoli), incremental over @p seed. */
    std::uint32_t (*crc32c)(const void *data, std::size_t n,
                            std::uint32_t seed);

    /** dst ^= src over @p n bytes. */
    void (*xorInto)(void *dst, const void *src, std::size_t n);

    /** diff = a ^ b over @p n bytes; true iff any diff byte is set. */
    bool (*xorDiff3)(void *diff, const void *a, const void *b,
                     std::size_t n);

    /** True iff all @p n bytes are zero. */
    bool (*isZero)(const void *data, std::size_t n);

    /** dst ^= c * src over GF(2^8) / 0x11D, @p n bytes. */
    void (*gfMulAcc)(void *dst, const void *src, std::uint8_t c,
                     std::size_t n);

    /** Copy one cache line (kLineBytes). */
    void (*copyLine)(void *dst, const void *src);

    /** Index of @p key in @p tags[0..n), or @p n if absent (cache tag
     *  scan; first match wins). */
    std::size_t (*findTag)(const std::uint64_t *tags, std::size_t n,
                           std::uint64_t key);

    /** Run a fused line pass; returns true iff the src line was
     *  nonzero (capture mode: iff old and new differ). */
    bool (*sequence)(const SeqDesc &d);
};

namespace detail {
extern const KernelOps *gActive;
}  // namespace detail

/** The active backend's kernel table (hot-path accessor). */
inline const KernelOps &
ops()
{
    return *detail::gActive;
}

/** The table of a specific backend. @pre backendAvailable(b). */
const KernelOps &opsFor(Backend b);

/** Lower-case backend name ("scalar", "avx2"). */
const char *backendName(Backend b);

/** Can this CPU run backend @p b? Scalar is always available. */
bool backendAvailable(Backend b);

/** The backend ops() currently dispatches to. */
Backend activeBackend();

/** The best backend this CPU supports (the startup choice). */
Backend bestBackend();

/**
 * Route ops() to @p b.
 * @return false (and leave dispatch unchanged) if unavailable.
 */
bool selectBackend(Backend b);

/**
 * Builder for one fused pass over a cache line. Typical writeback:
 *
 *   KernelSequence seq;
 *   seq.captureDiff(diff, oldData, newData)
 *      .checksum(&csum, kTag)
 *      .parityXor(p0)
 *      .parityGfMac(p1, c1);
 *   bool dirty = seq.run();
 */
class KernelSequence
{
  public:
    /** diff = oldData ^ newData; the diff drives parity roles. */
    KernelSequence &
    captureDiff(std::uint8_t *diff, const std::uint8_t *oldData,
                const std::uint8_t *newData)
    {
        d_.diffOut = diff;
        d_.oldData = oldData;
        d_.newData = newData;
        d_.src = diff;
        return *this;
    }

    /** Use @p src directly as the parity-role source (no capture). */
    KernelSequence &
    source(const std::uint8_t *src)
    {
        d_.src = src;
        return *this;
    }

    /** Emit tag | crc32c(line) into @p out (capture mode checksums
     *  the new data; source mode checksums the source). */
    KernelSequence &
    checksum(std::uint64_t *out, std::uint64_t tag)
    {
        d_.csumOut = out;
        d_.csumTag = tag;
        return *this;
    }

    /** parity ^= src. */
    KernelSequence &
    parityXor(std::uint8_t *parity)
    {
        return parityGfMac(parity, 1);
    }

    /** parity ^= c * src over GF(2^8). */
    KernelSequence &
    parityGfMac(std::uint8_t *parity, std::uint8_t c)
    {
        d_.parity[d_.roles] = parity;
        d_.coeff[d_.roles] = c;
        d_.roles++;
        return *this;
    }

    /** Execute the fused pass on the active backend.
     *  @return true iff the src line was nonzero. */
    bool
    run() const
    {
        return ops().sequence(d_);
    }

  private:
    SeqDesc d_;
};

}  // namespace tvarak::kernels
