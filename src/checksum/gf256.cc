/**
 * @file
 * GF(2^8) tables and the Cauchy-matrix Reed-Solomon codec.
 */

#include "checksum/gf256.hh"

#include <cstring>

#include "checksum/checksum.hh"
#include "kernels/kernels.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace tvarak {

namespace gf256 {
namespace {

constexpr unsigned kPoly = 0x11D;  //!< x^8 + x^4 + x^3 + x^2 + 1

/** Log/antilog tables for alpha = 2. alog is doubled so that
 *  mul can skip the mod-255 reduction of the exponent sum. */
struct Tables {
    std::uint8_t logt[256];
    std::uint8_t alog[510];

    Tables()
    {
        unsigned v = 1;
        for (unsigned e = 0; e < 255; e++) {
            alog[e] = static_cast<std::uint8_t>(v);
            alog[e + 255] = static_cast<std::uint8_t>(v);
            logt[v] = static_cast<std::uint8_t>(e);
            v <<= 1;
            if (v & 0x100)
                v ^= kPoly;
        }
        logt[0] = 0;  // never consulted: mul/inv special-case 0
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

}  // namespace

std::uint8_t
mul(std::uint8_t a, std::uint8_t b)
{
    if (a == 0 || b == 0)
        return 0;
    const Tables &t = tables();
    return t.alog[t.logt[a] + t.logt[b]];
}

std::uint8_t
inv(std::uint8_t a)
{
    panic_if(a == 0, "gf256: inverse of 0");
    const Tables &t = tables();
    return t.alog[255 - t.logt[a]];
}

void
mulLineInto(void *dst, const void *src, std::uint8_t c)
{
    // The byte loop lives in the kernel layer (scalar log/alog walk,
    // or pshufb nibble tables on the SIMD backends).
    kernels::ops().gfMulAcc(dst, src, c, kLineBytes);
}

}  // namespace gf256

std::atomic<std::uint64_t> RsCode::constructions_{0};

RsCode::RsCode(std::size_t n, std::size_t k)
    : n_(n), k_(k), coeff_(k * n)
{
    panic_if(n < 2 || k < 1 || n + k > kMaxMembers,
             "RsCode: bad geometry %zu+%zu", n, k);
    constructions_.fetch_add(1, std::memory_order_relaxed);

    // Cauchy block C[j][i] = 1 / (x_j + y_i), x_j = n + j, y_i = i.
    // x and y are disjoint (i < n <= x_j), so x_j + y_i != 0 in
    // GF(2^8) and every entry is well defined.
    for (std::size_t j = 0; j < k_; j++) {
        for (std::size_t i = 0; i < n_; i++) {
            coeff_[j * n_ + i] = gf256::inv(
                static_cast<std::uint8_t>((n_ + j) ^ i));
        }
    }
    // Column-normalize so parity row 0 is all ones (XOR parity).
    // Diagonal scalings keep every square submatrix nonsingular, so
    // the MDS property survives the normalization.
    for (std::size_t i = 0; i < n_; i++) {
        std::uint8_t ci = gf256::inv(coeff_[i]);
        for (std::size_t j = 0; j < k_; j++)
            coeff_[j * n_ + i] = gf256::mul(coeff_[j * n_ + i], ci);
    }
}

void
RsCode::encodeRole(std::uint8_t *parity, std::size_t j,
                   const std::uint8_t *const members[]) const
{
    std::memset(parity, 0, kLineBytes);
    for (std::size_t i = 0; i < n_; i++)
        updateParity(parity, members[i], j, i);
}

void
RsCode::encode(std::uint8_t *const members[]) const
{
    for (std::size_t j = 0; j < k_; j++)
        encodeRole(members[n_ + j], j, members);
}

bool
RsCode::decode(std::uint8_t *const members[],
               const bool present[]) const
{
    const std::size_t total = n_ + k_;
    std::size_t missing = 0;
    std::size_t lost = total;
    for (std::size_t m = 0; m < total; m++) {
        if (!present[m]) {
            missing++;
            lost = m;
        }
    }
    if (missing == 0)
        return true;
    if (missing > k_)
        return false;
    if (missing == 1) {
        // Every other member survives. Parity 0 is the XOR of the
        // data, so a lost data member is parity 0 XOR the others; a
        // lost parity member is re-encoded from the data.
        std::uint8_t *out = members[lost];
        if (lost >= n_) {
            encodeRole(out, lost - n_, members);
            return true;
        }
        std::memcpy(out, members[n_], kLineBytes);
        for (std::size_t i = 0; i < n_; i++) {
            if (i != lost)
                xorLine(out, members[i]);
        }
        return true;
    }

    // Solve for the data vector from n surviving generator rows.
    // Generator G is (n+k) x n: rows 0..n-1 identity, rows n..n+k-1
    // the Cauchy parity block. Pick the first n surviving members,
    // Gauss-Jordan invert their rows as the square system
    // [rows | survivor values] -> [I | data].
    std::size_t rows[kMaxMembers];
    std::size_t nrows = 0;
    for (std::size_t m = 0; m < total && nrows < n_; m++) {
        if (present[m])
            rows[nrows++] = m;
    }
    panic_if(nrows < n_, "RsCode: survivor count inconsistent");

    // a: n x n coefficient matrix; rhs: the surviving line per row.
    std::vector<std::uint8_t> a(n_ * n_, 0);
    std::vector<std::uint8_t> rhs(n_ * kLineBytes);
    for (std::size_t r = 0; r < n_; r++) {
        std::size_t m = rows[r];
        if (m < n_) {
            a[r * n_ + m] = 1;
        } else {
            std::memcpy(&a[r * n_],
                        &coeff_[(m - n_) * n_], n_);
        }
        std::memcpy(&rhs[r * kLineBytes], members[m], kLineBytes);
    }

    // Gauss-Jordan elimination over GF(2^8); the matrix is
    // nonsingular by the MDS property, so a pivot always exists.
    for (std::size_t col = 0; col < n_; col++) {
        std::size_t piv = col;
        while (piv < n_ && a[piv * n_ + col] == 0)
            piv++;
        panic_if(piv == n_, "RsCode: singular survivor matrix");
        if (piv != col) {
            for (std::size_t c = 0; c < n_; c++)
                std::swap(a[piv * n_ + c], a[col * n_ + c]);
            for (std::size_t b = 0; b < kLineBytes; b++)
                std::swap(rhs[piv * kLineBytes + b],
                          rhs[col * kLineBytes + b]);
        }
        std::uint8_t pinv = gf256::inv(a[col * n_ + col]);
        for (std::size_t c = 0; c < n_; c++)
            a[col * n_ + c] = gf256::mul(a[col * n_ + c], pinv);
        for (std::size_t b = 0; b < kLineBytes; b++) {
            std::uint8_t &v = rhs[col * kLineBytes + b];
            v = gf256::mul(v, pinv);
        }
        for (std::size_t r = 0; r < n_; r++) {
            if (r == col)
                continue;
            std::uint8_t f = a[r * n_ + col];
            if (f == 0)
                continue;
            for (std::size_t c = 0; c < n_; c++)
                a[r * n_ + c] = static_cast<std::uint8_t>(
                    a[r * n_ + c] ^ gf256::mul(f, a[col * n_ + c]));
            gf256::mulLineInto(&rhs[r * kLineBytes],
                               &rhs[col * kLineBytes], f);
        }
    }

    // rhs now holds the data members; restore missing data...
    for (std::size_t i = 0; i < n_; i++) {
        if (!present[i])
            std::memcpy(members[i], &rhs[i * kLineBytes], kLineBytes);
    }
    // ...and re-encode missing parity from the now complete data.
    for (std::size_t j = 0; j < k_; j++) {
        if (!present[n_ + j])
            encodeRole(members[n_ + j], j, members);
    }
    return true;
}

}  // namespace tvarak
