/**
 * @file
 * Property tests with a shadow-memory oracle: arbitrary access
 * sequences through the full simulated hierarchy must always agree
 * with a flat reference buffer, under every paper design, every
 * design whose controller keeps its parity, and across flushes, cold
 * restarts, map/unmap cycles and FS I/O.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/scheme.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class ShadowOracle : public ::testing::TestWithParam<DesignKind>
{};

TEST_P(ShadowOracle, RandomAccessSequencesMatchReference)
{
    MemorySystem mem(test::smallConfig(), GetParam());
    DaxFs fs(mem);
    const std::size_t bytes = 32 * kPageBytes;
    int fd = fs.create("oracle", bytes);
    Addr base = fs.daxMap(fd);
    std::vector<std::uint8_t> shadow(bytes, 0);
    Rng rng(101);
    std::size_t restarts = 0;

    for (int step = 0; step < 15000; step++) {
        std::size_t off = rng.nextBounded(bytes - 16);
        std::size_t len = 1 + rng.nextBounded(16);
        int tid = static_cast<int>(rng.nextBounded(2));
        double p = rng.nextDouble();
        if (p < 0.45) {
            std::uint8_t buf[16];
            for (std::size_t i = 0; i < len; i++)
                buf[i] = static_cast<std::uint8_t>(rng.next());
            mem.write(tid, base + off, buf, len);
            std::memcpy(shadow.data() + off, buf, len);
        } else if (p < 0.9) {
            std::uint8_t buf[16];
            mem.read(tid, base + off, buf, len);
            ASSERT_EQ(std::memcmp(buf, shadow.data() + off, len), 0)
                << "step " << step << " off " << off;
        } else if (p < 0.97) {
            mem.flushAll();
        } else {
            mem.dropCaches();
            // The full-image check costs what a whole-image re-sync
            // did; every 8th cold restart keeps the suite fast.
            if (restarts++ % 8 == 0) {
                ASSERT_TRUE(test::currentMatchesMedia(mem))
                    << "step " << step;
            }
        }
    }
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));
    // Final at-rest state equals the shadow, byte for byte.
    mem.flushAll();
    std::vector<std::uint8_t> at_rest(bytes);
    for (std::size_t p = 0; p < bytes / kPageBytes; p++) {
        mem.nvmArray().rawRead(fs.filePage(fd, p),
                               at_rest.data() + p * kPageBytes,
                               kPageBytes);
    }
    EXPECT_EQ(at_rest, shadow);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ShadowOracle,
    ::testing::Values(DesignKind::Baseline, DesignKind::Tvarak,
                      DesignKind::TxBObjectCsums,
                      DesignKind::TxBPageCsums),
    [](const auto &info) {
        std::string n = designName(info.param);
        std::erase(n, '-');
        return n;
    });

class AblationOracle : public ::testing::TestWithParam<const Design *>
{};

TEST_P(AblationOracle, FunctionalUnderEveryTvarakConfig)
{
    const Design &design = *GetParam();
    const Coverage &cov = design.coverage();
    MemorySystem mem(test::smallConfig(), design);
    DaxFs fs(mem);
    const std::size_t bytes = 16 * kPageBytes;
    int fd = fs.create("oracle", bytes);
    Addr base = fs.daxMap(fd);
    std::vector<std::uint8_t> shadow(bytes, 0);
    Rng rng(7 + (cov.mappedChecksum == MappedChecksum::DaxCl ? 1 : 0) +
            (cov.redundancyCaching ? 2 : 0) + (cov.dataDiffs ? 4 : 0));

    for (int step = 0; step < 4000; step++) {
        std::size_t off = rng.nextBounded(bytes - 8);
        if (rng.nextBool(0.5)) {
            std::uint64_t v = rng.next();
            mem.write(0, base + off, &v, 8);
            std::memcpy(shadow.data() + off, &v, 8);
        } else {
            std::uint64_t v;
            mem.read(0, base + off, &v, 8);
            std::uint64_t expect;
            std::memcpy(&expect, shadow.data() + off, 8);
            ASSERT_EQ(v, expect) << "step " << step;
        }
        if (step % 1000 == 999)
            mem.dropCaches();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, AblationOracle, ::testing::ValuesIn(test::controllerDesigns()),
    [](const auto &info) { return test::paramName(info.param); });

TEST(MapUnmapProperty, RepeatedCyclesPreserveDataAndCoverage)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    constexpr std::size_t kFilePages = 8;
    const std::size_t bytes = kFilePages * kPageBytes;
    int fd = fs.create("cycling", bytes);
    std::vector<std::uint8_t> shadow(bytes, 0);
    Rng rng(55);

    for (int cycle = 0; cycle < 6; cycle++) {
        Addr base = fs.daxMap(fd);
        for (int i = 0; i < 300; i++) {
            std::size_t off = rng.nextBounded(bytes - 8);
            std::uint64_t v = rng.next();
            mem.write(0, base + off, &v, 8);
            std::memcpy(shadow.data() + off, &v, 8);
        }
        fs.daxUnmap(fd);
        // Unmapped: page checksums cover the file; FS reads verify.
        std::size_t off = rng.nextBounded(bytes - 64);
        std::uint8_t buf[64];
        ASSERT_TRUE(fs.pread(0, fd, off, buf, sizeof(buf)));
        ASSERT_EQ(std::memcmp(buf, shadow.data() + off, sizeof(buf)), 0)
            << "cycle " << cycle;
        EXPECT_EQ(fs.scrub(false), 0u) << "cycle " << cycle;
        // FS-path writes while unmapped join the shadow too.
        std::uint8_t wbuf[32];
        for (auto &b : wbuf)
            b = static_cast<std::uint8_t>(rng.next());
        std::size_t woff = rng.nextBounded(bytes - sizeof(wbuf));
        fs.pwrite(0, fd, woff, wbuf, sizeof(wbuf));
        std::memcpy(shadow.data() + woff, wbuf, sizeof(wbuf));
    }
    Addr base = fs.daxMap(fd);
    std::uint8_t buf[kLineBytes];
    for (std::size_t off = 0; off < bytes; off += 1031) {
        std::size_t len = std::min<std::size_t>(64, bytes - off);
        mem.read(0, base + off, buf, len);
        ASSERT_EQ(std::memcmp(buf, shadow.data() + off, len), 0);
    }
}

TEST(PoolProperty, TransactionAbortsNeverLeak)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    PmemPool pool(mem, fs, "p", 2ull << 20, nullptr, 1);
    Rng rng(77);
    Addr obj = pool.alloc(0, 256);
    std::vector<std::uint8_t> shadow(256, 0);
    std::uint8_t buf[64];

    for (int i = 0; i < 300; i++) {
        std::size_t off = rng.nextBounded(256 - 32);
        std::size_t len = 1 + rng.nextBounded(32);
        for (std::size_t j = 0; j < len; j++)
            buf[j] = static_cast<std::uint8_t>(rng.next());
        pool.txBegin(0);
        pool.txWrite(0, obj + off, buf, len);
        if (rng.nextBool(0.4)) {
            pool.txAbort(0);  // must restore shadow state
        } else {
            pool.txCommit(0);
            std::memcpy(shadow.data() + off, buf, len);
        }
        std::uint8_t cur[256];
        mem.read(0, obj, cur, sizeof(cur));
        ASSERT_EQ(std::memcmp(cur, shadow.data(), 256), 0)
            << "iteration " << i;
    }
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

}  // namespace
}  // namespace tvarak
