/**
 * @file
 * Known-answer and property tests for the GF(2^8) Reed-Solomon codec.
 *
 * The field tests pin the log/antilog tables against a bit-by-bit
 * reference (carry-less multiply reduced mod 0x11D) so a table-build
 * bug cannot hide; the codec tests exhaustively erase every k-subset
 * of members for the shipped geometries and require bit-exact
 * recovery from the survivors.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "checksum/checksum.hh"
#include "checksum/gf256.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace tvarak {
namespace {

/** Bit-by-bit reference multiply in GF(2^8) / 0x11D. */
std::uint8_t
refMul(std::uint8_t a, std::uint8_t b)
{
    unsigned r = 0;
    unsigned aa = a;
    for (unsigned bit = 0; bit < 8; bit++) {
        if (b & (1u << bit))
            r ^= aa << bit;
    }
    for (int bit = 15; bit >= 8; bit--) {
        if (r & (1u << bit))
            r ^= 0x11Du << (bit - 8);
    }
    return static_cast<std::uint8_t>(r);
}

TEST(Gf256, KnownVectors)
{
    // alpha = 2, poly 0x11D: 2^8 = 0x1D, and a classic spot product.
    EXPECT_EQ(gf256::mul(2, 128), 0x1D);
    EXPECT_EQ(gf256::mul(0x53, 0xCA), refMul(0x53, 0xCA));
    EXPECT_EQ(gf256::mul(0, 0x7F), 0);
    EXPECT_EQ(gf256::mul(1, 0x7F), 0x7F);
}

TEST(Gf256, MulMatchesReferenceExhaustively)
{
    for (unsigned a = 0; a < 256; a++) {
        for (unsigned b = 0; b < 256; b++) {
            ASSERT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                                 static_cast<std::uint8_t>(b)),
                      refMul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)))
                << a << " * " << b;
        }
    }
}

TEST(Gf256, InverseRoundTrips)
{
    for (unsigned a = 1; a < 256; a++) {
        std::uint8_t ai = gf256::inv(static_cast<std::uint8_t>(a));
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), ai), 1)
            << "a = " << a;
    }
}

TEST(Gf256, MulLineIntoMatchesScalar)
{
    Rng rng(11);
    std::array<std::uint8_t, kLineBytes> src, dst, expect;
    for (std::size_t i = 0; i < kLineBytes; i++) {
        src[i] = static_cast<std::uint8_t>(rng.next());
        dst[i] = static_cast<std::uint8_t>(rng.next());
    }
    for (unsigned c : {0u, 1u, 2u, 0x1Du, 0xFFu}) {
        expect = dst;
        for (std::size_t i = 0; i < kLineBytes; i++)
            expect[i] ^= refMul(src[i], static_cast<std::uint8_t>(c));
        std::array<std::uint8_t, kLineBytes> got = dst;
        gf256::mulLineInto(got.data(), src.data(),
                           static_cast<std::uint8_t>(c));
        EXPECT_EQ(got, expect) << "c = " << c;
    }
}

class RsGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{};

/** Fill an n+k stripe with seeded data and encoded parity. */
std::vector<std::array<std::uint8_t, kLineBytes>>
makeStripe(const RsCode &rs, std::uint64_t seed)
{
    std::vector<std::array<std::uint8_t, kLineBytes>> stripe(
        rs.n() + rs.k());
    Rng rng(seed);
    for (std::size_t i = 0; i < rs.n(); i++)
        for (auto &b : stripe[i])
            b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t *> ptrs;
    for (auto &m : stripe)
        ptrs.push_back(m.data());
    rs.encode(ptrs.data());
    return stripe;
}

TEST_P(RsGeometry, ParityRowZeroIsXor)
{
    RsCode rs(GetParam().first, GetParam().second);
    auto stripe = makeStripe(rs, 42);
    std::array<std::uint8_t, kLineBytes> x{};
    for (std::size_t i = 0; i < rs.n(); i++)
        xorLine(x.data(), stripe[i].data());
    EXPECT_EQ(x, stripe[rs.n()]);
}

TEST_P(RsGeometry, DecodeFromEveryTwoEraseSubset)
{
    RsCode rs(GetParam().first, GetParam().second);
    const std::size_t total = rs.n() + rs.k();
    auto pristine = makeStripe(rs, 7);
    for (std::size_t e1 = 0; e1 < total; e1++) {
        for (std::size_t e2 = e1; e2 < total; e2++) {
            auto stripe = pristine;
            std::vector<std::uint8_t *> ptrs;
            std::vector<char> present(total, 1);
            for (auto &m : stripe)
                ptrs.push_back(m.data());
            std::memset(stripe[e1].data(), 0xDB, kLineBytes);
            present[e1] = 0;
            std::size_t erased = 1;
            if (e2 != e1) {
                std::memset(stripe[e2].data(), 0xDB, kLineBytes);
                present[e2] = 0;
                erased = 2;
            }
            bool presArr[255];
            for (std::size_t m = 0; m < total; m++)
                presArr[m] = present[m] != 0;
            bool ok = rs.decode(ptrs.data(), presArr);
            if (erased <= rs.k()) {
                ASSERT_TRUE(ok) << "erased " << e1 << "," << e2;
                for (std::size_t m = 0; m < total; m++)
                    ASSERT_EQ(stripe[m], pristine[m])
                        << "member " << m << " after erasing " << e1
                        << "," << e2;
            } else {
                EXPECT_FALSE(ok);
            }
        }
    }
}

TEST_P(RsGeometry, IncrementalUpdateMatchesFullEncode)
{
    RsCode rs(GetParam().first, GetParam().second);
    auto stripe = makeStripe(rs, 99);
    Rng rng(100);
    // Mutate data member 1, maintain parity via diffs only.
    std::array<std::uint8_t, kLineBytes> neu, diff;
    for (std::size_t i = 0; i < kLineBytes; i++) {
        neu[i] = static_cast<std::uint8_t>(rng.next());
        diff[i] = static_cast<std::uint8_t>(stripe[1][i] ^ neu[i]);
    }
    for (std::size_t j = 0; j < rs.k(); j++)
        rs.updateParity(stripe[rs.n() + j].data(), diff.data(), j, 1);
    stripe[1] = neu;

    auto full = stripe;
    std::vector<std::uint8_t *> ptrs;
    for (auto &m : full)
        ptrs.push_back(m.data());
    rs.encode(ptrs.data());
    for (std::size_t j = 0; j < rs.k(); j++)
        EXPECT_EQ(stripe[rs.n() + j], full[rs.n() + j]) << "parity " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsGeometry,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(4, 2),
                      std::make_pair<std::size_t, std::size_t>(6, 2),
                      std::make_pair<std::size_t, std::size_t>(3, 1),
                      std::make_pair<std::size_t, std::size_t>(7, 1),
                      std::make_pair<std::size_t, std::size_t>(8, 3)));

}  // namespace
}  // namespace tvarak
