/**
 * @file
 * Division by a divisor fixed at run time, as a multiply and a shift.
 *
 * Bank, set and core interleaves divide a line number (or a thread
 * id) by a count that is fixed when the machine is built: 12 LLC
 * banks, 12 cores. A 64-bit divide costs tens of host cycles on every
 * access; Reciprocal replaces it with one 64x64->128-bit multiply and
 * a shift. With N = 58, l = ceil(log2 d) and m = floor(2^(N+l) / d) + 1,
 * floor(n / d) = floor(n * m / 2^(N+l)) for every n < 2^N (Granlund
 * and Montgomery, "Division by invariant integers using
 * multiplication", PLDI 1994, Theorem 4.2): exact for every line
 * number of a 64-bit address.
 */

#pragma once

#include <cstdint>

#include "sim/log.hh"

namespace tvarak {

class Reciprocal
{
  public:
    /** Numerators must be below 2^kNumeratorBits. */
    static constexpr unsigned kNumeratorBits = 58;

    explicit Reciprocal(std::uint64_t divisor) : d_(divisor)
    {
        panic_if(divisor == 0, "reciprocal of zero");
        unsigned l = 0;
        while (l < 64 && (std::uint64_t{1} << l) < divisor)
            l++;
        shift_ = kNumeratorBits + l;
        m_ = static_cast<std::uint64_t>((U128{1} << shift_) / divisor) + 1;
    }

    std::uint64_t divisor() const { return d_; }

    /** @p n / divisor(). @pre n < 2^kNumeratorBits. */
    std::uint64_t div(std::uint64_t n) const
    {
        return static_cast<std::uint64_t>((U128{n} * m_) >> shift_);
    }

    /** @p n % divisor(). @pre n < 2^kNumeratorBits. */
    std::uint64_t mod(std::uint64_t n) const { return n - div(n) * d_; }

  private:
    __extension__ typedef unsigned __int128 U128;

    std::uint64_t d_;
    std::uint64_t m_;  //!< floor(2^shift_ / d_) + 1, at most 2^59
    unsigned shift_;   //!< kNumeratorBits + ceil(log2 d_)
};

}  // namespace tvarak
