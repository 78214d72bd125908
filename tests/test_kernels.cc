/**
 * @file
 * The kernels module's contract: the AVX2 backend is bit-identical to
 * the scalar reference on random inputs (aligned, unaligned, ragged
 * tails), and backend dispatch honours explicit selection.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "checksum/checksum.hh"
#include "checksum/gf256.hh"
#include "kernels/kernels.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace tvarak {
namespace {

using kernels::Backend;
using kernels::KernelOps;
using kernels::SeqDesc;

/** Every backend whose CPU requirements this host meets. */
std::vector<Backend>
availableBackends()
{
    std::vector<Backend> out;
    for (std::size_t i = 0; i < kernels::kBackendCount; i++) {
        Backend b = static_cast<Backend>(i);
        if (kernels::backendAvailable(b))
            out.push_back(b);
    }
    return out;
}

/** Random buffer with a guard slack so unaligned views stay in
 *  bounds. */
std::vector<std::uint8_t>
randomBuf(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> buf(n);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    return buf;
}

// Lengths that exercise the word loop, the vector chunks and every
// tail size: empty, sub-word, sub-vector, one line, ragged multiples.
const std::size_t kLens[] = {0,  1,  3,   7,   8,   9,  15, 16,
                             17, 31, 32,  33,  63,  64, 65, 100,
                             127, 128, 129, 255, 256, 1000};

TEST(KernelDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernels::backendAvailable(Backend::Scalar));
    EXPECT_STREQ(kernels::backendName(Backend::Scalar), "scalar");
    EXPECT_STREQ(kernels::backendName(Backend::Avx2), "avx2");
}

TEST(KernelDispatch, ExplicitSelectionRoundTrips)
{
    Backend before = kernels::activeBackend();
    for (Backend b : availableBackends()) {
        ASSERT_TRUE(kernels::selectBackend(b));
        EXPECT_EQ(kernels::activeBackend(), b);
        EXPECT_STREQ(kernels::ops().name, kernels::backendName(b));
    }
    ASSERT_TRUE(kernels::selectBackend(before));
}

TEST(KernelDispatch, BestBackendIsAvailable)
{
    EXPECT_TRUE(kernels::backendAvailable(kernels::bestBackend()));
    // Startup dispatch picks it; every test restores the selection.
    EXPECT_EQ(kernels::activeBackend(), kernels::bestBackend());
}

class KernelBackendIdentity
    : public ::testing::TestWithParam<Backend>
{
  protected:
    const KernelOps &simd() { return kernels::opsFor(GetParam()); }
    const KernelOps &ref()
    {
        return kernels::opsFor(Backend::Scalar);
    }
};

TEST_P(KernelBackendIdentity, Crc32cMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0xc5c32c);
    for (std::size_t len : kLens) {
        for (std::size_t off = 0; off < 3; off++) {
            auto buf = randomBuf(rng, len + off);
            std::uint32_t seed =
                static_cast<std::uint32_t>(rng.next());
            EXPECT_EQ(simd().crc32c(buf.data() + off, len, seed),
                      ref().crc32c(buf.data() + off, len, seed))
                << "len " << len << " offset " << off;
        }
    }
}

TEST_P(KernelBackendIdentity, XorKernelsMatchScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0x0f0f);
    for (std::size_t len : kLens) {
        auto a = randomBuf(rng, len);
        auto b = randomBuf(rng, len);
        auto dstS = a;
        auto dstV = a;
        ref().xorInto(dstS.data(), b.data(), len);
        simd().xorInto(dstV.data(), b.data(), len);
        EXPECT_EQ(dstS, dstV) << "xorInto len " << len;

        std::vector<std::uint8_t> diffS(len), diffV(len);
        bool nzS = ref().xorDiff3(diffS.data(), a.data(), b.data(), len);
        bool nzV = simd().xorDiff3(diffV.data(), a.data(), b.data(), len);
        EXPECT_EQ(diffS, diffV) << "xorDiff3 len " << len;
        EXPECT_EQ(nzS, nzV) << "xorDiff3 nonzero flag, len " << len;

        // Identical inputs: diff must be all zero and flagged so.
        bool nzZ = simd().xorDiff3(diffV.data(), a.data(), a.data(), len);
        EXPECT_FALSE(nzZ) << "self-diff nonzero, len " << len;
    }
}

TEST_P(KernelBackendIdentity, IsZeroMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0x15ce70);
    for (std::size_t len : kLens) {
        std::vector<std::uint8_t> zeros(len, 0);
        EXPECT_EQ(simd().isZero(zeros.data(), len),
                  ref().isZero(zeros.data(), len));
        EXPECT_TRUE(simd().isZero(zeros.data(), len));
        if (len == 0)
            continue;
        // A single set bit anywhere flips the answer.
        auto buf = zeros;
        buf[rng.nextBounded(len)] = 1;
        EXPECT_FALSE(simd().isZero(buf.data(), len));
        auto rnd = randomBuf(rng, len);
        EXPECT_EQ(simd().isZero(rnd.data(), len),
                  ref().isZero(rnd.data(), len));
    }
}

TEST_P(KernelBackendIdentity, GfMulAccMatchesScalarForEveryCoeff)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0x6f256);
    auto src = randomBuf(rng, kLineBytes);
    auto base = randomBuf(rng, kLineBytes);
    for (int c = 0; c < 256; c++) {
        auto dstS = base;
        auto dstV = base;
        ref().gfMulAcc(dstS.data(), src.data(),
                       static_cast<std::uint8_t>(c), kLineBytes);
        simd().gfMulAcc(dstV.data(), src.data(),
                        static_cast<std::uint8_t>(c), kLineBytes);
        EXPECT_EQ(dstS, dstV) << "coeff " << c;
    }
    // Ragged lengths with one nontrivial coefficient.
    for (std::size_t len : kLens) {
        auto s = randomBuf(rng, len);
        std::vector<std::uint8_t> dS(len, 0xa5), dV(len, 0xa5);
        ref().gfMulAcc(dS.data(), s.data(), 0x1d, len);
        simd().gfMulAcc(dV.data(), s.data(), 0x1d, len);
        EXPECT_EQ(dS, dV) << "ragged len " << len;
    }
}

TEST_P(KernelBackendIdentity, CopyLineMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0xc09f);
    auto src = randomBuf(rng, kLineBytes);
    std::array<std::uint8_t, kLineBytes> dst{};
    simd().copyLine(dst.data(), src.data());
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), kLineBytes), 0);
}

TEST_P(KernelBackendIdentity, FindTagMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0xf1bd);
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{3}, std::size_t{4},
                          std::size_t{7}, std::size_t{8},
                          std::size_t{11}, std::size_t{16},
                          std::size_t{33}}) {
        std::vector<std::uint64_t> tags(n);
        for (auto &t : tags)
            t = rng.nextBounded(8);  // plenty of duplicates
        for (std::uint64_t key = 0; key < 9; key++) {
            EXPECT_EQ(simd().findTag(tags.data(), n, key),
                      ref().findTag(tags.data(), n, key))
                << "n " << n << " key " << key;
        }
        // First-match semantics when the key repeats.
        if (n >= 2) {
            tags[n / 2] = 99;
            tags[n - 1] = 99;
            EXPECT_EQ(simd().findTag(tags.data(), n, 99), n / 2);
        }
    }
}

TEST_P(KernelBackendIdentity, SequenceCaptureModeMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0x5e01);
    RsCode rs(6, 4);
    for (std::size_t roles = 0; roles <= 4; roles++) {
        auto oldData = randomBuf(rng, kLineBytes);
        auto newData = randomBuf(rng, kLineBytes);
        std::vector<std::array<std::uint8_t, kLineBytes>> parS(roles);
        for (auto &p : parS)
            std::memcpy(p.data(), randomBuf(rng, kLineBytes).data(),
                        kLineBytes);
        auto parV = parS;

        auto runWith = [&](const KernelOps &ops, auto &par,
                           std::uint8_t *diff, std::uint64_t *csum) {
            SeqDesc d;
            d.oldData = oldData.data();
            d.newData = newData.data();
            d.diffOut = diff;
            d.src = diff;
            d.csumOut = csum;
            d.csumTag = kDaxClCsumTag;
            for (std::size_t r = 0; r < roles; r++) {
                d.parity[r] = par[r].data();
                d.coeff[r] = rs.coeff(r % rs.k(), 2);
            }
            d.roles = roles;
            return ops.sequence(d);
        };

        std::array<std::uint8_t, kLineBytes> diffS{}, diffV{};
        std::uint64_t csumS = 0, csumV = 0;
        bool nzS = runWith(ref(), parS, diffS.data(), &csumS);
        bool nzV = runWith(simd(), parV, diffV.data(), &csumV);
        EXPECT_EQ(nzS, nzV);
        EXPECT_EQ(csumS, csumV);
        EXPECT_EQ(diffS, diffV);
        for (std::size_t r = 0; r < roles; r++)
            EXPECT_EQ(parS[r], parV[r]) << "role " << r;
        // The checksum is the widened line checksum of the new data.
        EXPECT_EQ(csumS, lineChecksum(newData.data()));
        // And the diff is old ^ new.
        for (std::size_t i = 0; i < kLineBytes; i++)
            EXPECT_EQ(diffS[i], oldData[i] ^ newData[i]);
    }
}

TEST_P(KernelBackendIdentity, SequenceSourceModeMatchesScalar)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Rng rng(0x50c1);
    RsCode rs(6, 2);
    auto src = randomBuf(rng, kLineBytes);
    for (std::size_t roles = 1; roles <= 2; roles++) {
        std::vector<std::array<std::uint8_t, kLineBytes>> parS(roles);
        for (auto &p : parS)
            p.fill(0x3c);
        auto parV = parS;
        std::uint64_t csumS = 0, csumV = 0;

        auto runWith = [&](const KernelOps &ops, auto &par,
                           std::uint64_t *csum) {
            kernels::SeqDesc d;
            d.src = src.data();
            d.csumOut = csum;
            d.csumTag = kObjectCsumTag;
            for (std::size_t r = 0; r < roles; r++) {
                d.parity[r] = par[r].data();
                d.coeff[r] = rs.coeff(r, 1);
            }
            d.roles = roles;
            return ops.sequence(d);
        };
        bool nzS = runWith(ref(), parS, &csumS);
        bool nzV = runWith(simd(), parV, &csumV);
        EXPECT_EQ(nzS, nzV);
        EXPECT_EQ(csumS, csumV);
        for (std::size_t r = 0; r < roles; r++) {
            EXPECT_EQ(parS[r], parV[r]) << "role " << r;
            // Reference semantics: parity ^= coeff * src.
            std::array<std::uint8_t, kLineBytes> expect;
            expect.fill(0x3c);
            RsCode check(6, 2);
            check.updateParity(expect.data(), src.data(), r, 1);
            EXPECT_EQ(parS[r], expect) << "role " << r;
        }
    }
    // An all-zero source line leaves parity untouched and reports it.
    std::array<std::uint8_t, kLineBytes> zeros{}, par{};
    par.fill(0x77);
    auto before = par;
    kernels::SeqDesc d;
    d.src = zeros.data();
    d.parity[0] = par.data();
    d.coeff[0] = 1;
    d.roles = 1;
    EXPECT_FALSE(simd().sequence(d));
    EXPECT_EQ(par, before);
}

TEST_P(KernelBackendIdentity, KernelSequenceBuilderMatchesFacade)
{
    if (!kernels::backendAvailable(GetParam()))
        GTEST_SKIP() << "backend not available on this host";
    Backend before = kernels::activeBackend();
    ASSERT_TRUE(kernels::selectBackend(GetParam()));
    Rng rng(0xb11d);
    auto oldData = randomBuf(rng, kLineBytes);
    auto newData = randomBuf(rng, kLineBytes);
    std::array<std::uint8_t, kLineBytes> diff{}, parity{};
    std::uint64_t csum = 0;
    kernels::KernelSequence seq;
    seq.captureDiff(diff.data(), oldData.data(), newData.data());
    seq.checksum(&csum, kDaxClCsumTag);
    seq.parityXor(parity.data());
    bool nz = seq.run();
    EXPECT_TRUE(nz);
    EXPECT_EQ(csum, lineChecksum(newData.data()));
    for (std::size_t i = 0; i < kLineBytes; i++) {
        EXPECT_EQ(diff[i], oldData[i] ^ newData[i]);
        EXPECT_EQ(parity[i], diff[i]) << "parityXor from zero";
    }
    ASSERT_TRUE(kernels::selectBackend(before));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelBackendIdentity,
    ::testing::Values(Backend::Scalar, Backend::Avx2),
    [](const ::testing::TestParamInfo<Backend> &info) {
        return kernels::backendName(info.param);
    });

// ------------------------------------------------------------------
// Facade equivalences: the checksum module's entry points are the
// kernels under the active backend.
// ------------------------------------------------------------------

TEST(KernelFacade, ChecksumModuleDelegatesToKernels)
{
    Rng rng(0xfacade);
    auto buf = randomBuf(rng, 3 * kLineBytes + 5);
    EXPECT_EQ(crc32c(buf.data(), buf.size()),
              kernels::ops().crc32c(buf.data(), buf.size(), 0));
    EXPECT_EQ(lineChecksum(buf.data()),
              kDaxClCsumTag |
                  kernels::ops().crc32c(buf.data(), kLineBytes, 0));
}

}  // namespace
}  // namespace tvarak
