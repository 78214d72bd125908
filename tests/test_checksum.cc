/**
 * @file
 * Unit and property tests for the checksum/parity kernels.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "checksum/checksum.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace tvarak {
namespace {

TEST(Crc32c, KnownVectors)
{
    // RFC 3720 test vectors for CRC-32C.
    std::array<std::uint8_t, 32> zeros{};
    EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8a9136aau);

    std::array<std::uint8_t, 32> ones;
    ones.fill(0xff);
    EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62a8ab43u);

    std::array<std::uint8_t, 32> incr;
    for (std::size_t i = 0; i < incr.size(); i++)
        incr[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(crc32c(incr.data(), incr.size()), 0x46dd794eu);
}

TEST(Crc32c, EmptyIsZero)
{
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, UnalignedTailMatchesBytewise)
{
    // Slicing path (>= 8 bytes) and byte path must agree with a
    // byte-at-a-time reference fold.
    Rng rng(7);
    std::array<std::uint8_t, 61> buf;
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t whole = crc32c(buf.data(), buf.size());
    std::uint32_t split = crc32c(buf.data(), 13);
    split = crc32c(buf.data() + 13, buf.size() - 13, split);
    EXPECT_EQ(whole, split);
}

TEST(LineChecksum, DistinguishesLineFromPageTag)
{
    std::array<std::uint8_t, kPageBytes> page{};
    std::uint64_t lc = lineChecksum(page.data());
    std::uint64_t pc = pageChecksum(page.data());
    EXPECT_NE(lc >> 56, pc >> 56);
}

class BitFlipProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitFlipProperty, SingleBitFlipChangesLineChecksum)
{
    Rng rng(GetParam());
    std::array<std::uint8_t, kLineBytes> line;
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t before = lineChecksum(line.data());
    std::size_t byte = rng.nextBounded(kLineBytes);
    unsigned bit = static_cast<unsigned>(rng.nextBounded(8));
    line[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_NE(before, lineChecksum(line.data()))
        << "flip at byte " << byte << " bit " << bit;
}

TEST_P(BitFlipProperty, SingleBitFlipChangesPageChecksum)
{
    Rng rng(GetParam() + 1000);
    std::array<std::uint8_t, kPageBytes> page;
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t before = pageChecksum(page.data());
    page[rng.nextBounded(kPageBytes)] ^=
        static_cast<std::uint8_t>(1u << rng.nextBounded(8));
    EXPECT_NE(before, pageChecksum(page.data()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitFlipProperty,
                         ::testing::Range(0u, 32u));

TEST(XorLine, SelfInverse)
{
    Rng rng(3);
    std::array<std::uint8_t, kLineBytes> a, b, saved;
    for (std::size_t i = 0; i < kLineBytes; i++) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
    }
    saved = a;
    xorLine(a.data(), b.data());
    xorLine(a.data(), b.data());
    EXPECT_EQ(a, saved);
}

TEST(XorLine, IntoMatchesInPlace)
{
    Rng rng(4);
    std::array<std::uint8_t, kLineBytes> a, b, out, inplace;
    for (std::size_t i = 0; i < kLineBytes; i++) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
    }
    inplace = a;
    xorLine(inplace.data(), b.data());
    xorLineInto(out.data(), a.data(), b.data());
    EXPECT_EQ(out, inplace);
}

TEST(XorLine, AliasedDestination)
{
    // xorLineInto must tolerate dst == a (used in parity rebuild).
    Rng rng(5);
    std::array<std::uint8_t, kLineBytes> a, b, expect;
    for (std::size_t i = 0; i < kLineBytes; i++) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
        expect[i] = a[i] ^ b[i];
    }
    xorLineInto(a.data(), a.data(), b.data());
    EXPECT_EQ(a, expect);
}

TEST(LineIsZero, Works)
{
    std::array<std::uint8_t, kLineBytes> line{};
    EXPECT_TRUE(lineIsZero(line.data()));
    line[63] = 1;
    EXPECT_FALSE(lineIsZero(line.data()));
}

}  // namespace
}  // namespace tvarak
