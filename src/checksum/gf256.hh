/**
 * @file
 * GF(2^8) arithmetic and a systematic Reed-Solomon code over cache
 * lines.
 *
 * The field is GF(2^8) with the primitive polynomial 0x11D
 * (x^8 + x^4 + x^3 + x^2 + 1, the classic Reed-Solomon choice) and
 * generator alpha = 2. Multiplication and inversion go through
 * log/antilog tables built once at first use.
 *
 * RsCode(n, k) is a systematic n+k erasure code: members 0..n-1 are
 * data, members n..n+k-1 are parity, and *any* n of the n+k members
 * suffice to recover the rest. The generator's parity block is a
 * Cauchy matrix C[j][i] = 1 / (x_j + y_i) with x_j = n + j and
 * y_i = i: every square submatrix of a Cauchy matrix is nonsingular,
 * which is exactly the MDS property the any-n-survivors guarantee
 * needs. The matrix is then column-normalized so that parity row
 * 0 is all ones — parity member 0 is the plain XOR of the data
 * members, i.e. the RAID-5 "P" parity. RsCode(n, 1) is therefore
 * RAID-5 itself, and a single erasure decodes without elimination:
 * a lost data member is parity 0 XOR the other data members, and a
 * lost parity member is re-encoded from the data.
 *
 * Parity maintenance is incremental, matching TVARAK's diff-based
 * updates: when data member i changes by diff (old ^ new),
 * parity_j ^= coeff(j, i) * diff for every j. Full encode is just the
 * incremental update applied from an all-zero state.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tvarak {

namespace gf256 {

/** Product a*b in GF(2^8) / 0x11D. */
std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/** Multiplicative inverse (panics on 0). */
std::uint8_t inv(std::uint8_t a);

/** dst[i] ^= c * src[i] over one 64 B cache line (c==0 is a no-op,
 *  c==1 degenerates to xorLine). */
void mulLineInto(void *dst, const void *src, std::uint8_t c);

}  // namespace gf256

/**
 * Systematic Reed-Solomon n+k erasure code over 64 B cache lines.
 * Member indexing: 0..n-1 data, n..n+k-1 parity. Requires
 * 2 <= n, 1 <= k, n + k <= kMaxMembers.
 */
class RsCode
{
  public:
    /** Largest stripe (n + k) the field supports. */
    static constexpr std::size_t kMaxMembers = 255;

    RsCode(std::size_t n, std::size_t k);

    std::size_t n() const { return n_; }
    std::size_t k() const { return k_; }

    /**
     * Process-wide count of RsCode constructions. Building the Cauchy
     * matrix costs O(n*k) field inversions, so every user shares the
     * machine's one codec (MemorySystem::rsCodec()); regression tests
     * pin one construction per machine and none per line.
     */
    static std::uint64_t constructions()
    {
        return constructions_.load(std::memory_order_relaxed);
    }

    /** Generator coefficient of data member @p i in parity member
     *  @p j (j in [0, k)). Row 0 is all ones (XOR parity). */
    std::uint8_t coeff(std::size_t j, std::size_t i) const
    {
        return coeff_[j * n_ + i];
    }

    /** Apply a data diff to one parity line:
     *  parity ^= coeff(j, i) * diff. */
    void updateParity(void *parity, const void *diff, std::size_t j,
                      std::size_t i) const
    {
        gf256::mulLineInto(parity, diff, coeff(j, i));
    }

    /**
     * Full encode: compute all k parity lines from the n data lines.
     * @p members holds n+k line pointers; data members are read,
     * parity members are overwritten.
     */
    void encode(std::uint8_t *const members[]) const;

    /**
     * Recover every missing member from any n survivors. One missing
     * member takes the XOR (data) or re-encode (parity) path; more
     * take a Gauss-Jordan solve.
     *
     * @p members   n+k line pointers; present members are read,
     *              missing ones are overwritten with their recovered
     *              content.
     * @p present   per-member survival flags.
     * @return false iff more than k members are missing (the stripe is
     *         unrecoverable; missing buffers are left untouched).
     */
    bool decode(std::uint8_t *const members[],
                const bool present[]) const;

  private:
    /** Overwrite @p parity with parity role @p j of the data
     *  members in @p members. */
    void encodeRole(std::uint8_t *parity, std::size_t j,
                    const std::uint8_t *const members[]) const;

    static std::atomic<std::uint64_t> constructions_;

    std::size_t n_;
    std::size_t k_;
    std::vector<std::uint8_t> coeff_;  //!< k x n generator parity block
};

}  // namespace tvarak
