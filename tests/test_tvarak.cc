/**
 * @file
 * TVARAK engine integration tests.
 *
 * These exercise the paper's core claims end-to-end on the real
 * system: every NVM->LLC fill of a DAX line is verified, every
 * LLC->NVM writeback updates DAX-CL-checksums and cross-DIMM parity,
 * injected firmware bugs (lost write / misdirected write / misdirected
 * read) are detected on first read and repaired from parity, and the
 * at-rest invariants (checksums match lines, parity matches stripes)
 * hold after arbitrary workloads under every design whose controller
 * keeps its parity (TVARAK, its Fig 9 ablation points and the RS
 * geometries).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "checksum/checksum.hh"
#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

// Size of the DAX-backed test file, in pages.
constexpr std::size_t kFilePages = 64;

/** Verify all at-rest redundancy for a mapped file: every line's
 *  DAX-CL-checksum and every stripe's parity. */
::testing::AssertionResult
atRestConsistent(MemorySystem &mem, DaxFs &fs, int /*fd*/)
{
    mem.flushAll();
    std::size_t bad = fs.scrub(false);
    if (bad != 0) {
        return ::testing::AssertionFailure()
            << bad << " lines fail checksum verification";
    }
    std::size_t parity_bad = fs.verifyParity();
    if (parity_bad != 0) {
        return ::testing::AssertionFailure()
            << parity_bad << " stripes violate the parity invariant";
    }
    return ::testing::AssertionSuccess();
}

class TvarakTest : public ::testing::Test
{
  protected:
    void build(const char *design)
    {
        mem = std::make_unique<MemorySystem>(test::smallConfig(),
                                             *findDesign(design));
        fs = std::make_unique<DaxFs>(*mem);
        fd = fs->create("data", kFilePages * kPageBytes);
        base = fs->daxMap(fd);
    }

    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<DaxFs> fs;
    int fd = -1;
    Addr base = 0;
};

TEST_F(TvarakTest, FillsAreVerified)
{
    build("tvarak");
    mem->stats().reset();
    (void)mem->read64(0, base);  // cold fill
    EXPECT_EQ(mem->stats().readVerifications, 1u);
    (void)mem->read64(0, base);  // hit: no verification
    EXPECT_EQ(mem->stats().readVerifications, 1u);
}

TEST_F(TvarakTest, WritebacksUpdateRedundancy)
{
    build("tvarak");
    mem->stats().reset();
    mem->write64(0, base, 1234);
    EXPECT_EQ(mem->stats().redundancyUpdates, 0u);
    mem->flushAll();
    EXPECT_GE(mem->stats().redundancyUpdates, 1u);
    EXPECT_GE(mem->stats().diffCaptures, 1u);

    // The at-rest checksum now matches the new data...
    Addr line = fs->filePage(fd, 0);
    std::uint8_t data[kLineBytes];
    mem->nvmArray().rawRead(line, data, kLineBytes);
    std::uint64_t stored;
    mem->nvmArray().rawRead(mem->layout().daxClCsumAddr(line), &stored,
                            8);
    EXPECT_EQ(stored, lineChecksum(data));
}

TEST_F(TvarakTest, RandomWorkloadKeepsInvariants)
{
    build("tvarak");
    Rng rng(42);
    for (int i = 0; i < 20000; i++) {
        Addr a = base + rng.nextBounded(kFilePages * kPageBytes - 8);
        if (rng.nextBool(0.5))
            mem->write64(static_cast<int>(rng.nextBounded(2)), a,
                         rng.next());
        else
            (void)mem->read64(static_cast<int>(rng.nextBounded(2)), a);
    }
    EXPECT_TRUE(atRestConsistent(*mem, *fs, fd));
}

class TvarakAblation : public ::testing::TestWithParam<const Design *>
{};

TEST_P(TvarakAblation, InvariantsHoldInEveryConfiguration)
{
    MemorySystem mem(test::smallConfig(), *GetParam());
    DaxFs fs(mem);
    int fd = fs.create("data", 32 * kPageBytes);
    Addr base = fs.daxMap(fd);

    Rng rng(7);
    for (int i = 0; i < 5000; i++) {
        Addr a = base + rng.nextBounded(32 * kPageBytes - 8);
        if (rng.nextBool(0.6))
            mem.write64(0, a, rng.next());
        else
            (void)mem.read64(0, a);
    }
    mem.flushAll();
    // No fault was injected: no fill may claim a corruption, and the
    // scrub (DAX-CL or, in naive mode, page checksums) finds none.
    EXPECT_EQ(mem.stats().corruptionsDetected, 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
    EXPECT_EQ(fs.scrub(false), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TvarakAblation, ::testing::ValuesIn(test::controllerDesigns()),
    [](const auto &info) { return test::paramName(info.param); });

//
// Fault injection: the three firmware bug classes of Section II.
//

class TvarakFaults : public TvarakTest {};

TEST_F(TvarakFaults, LostWriteDetectedAndRecovered)
{
    build("tvarak");
    Addr target = fs->filePage(fd, 3) + 5 * kLineBytes;
    Addr vaddr = base + 3 * kPageBytes + 5 * kLineBytes;

    mem->write64(0, vaddr, 0x1111);
    mem->flushAll();  // v1 at rest
    mem->write64(0, vaddr, 0x2222);

    // The *next* writeback of this line is lost by the firmware.
    auto &dimm = mem->nvmArray().dimm(mem->nvmArray().dimmOf(target));
    dimm.injectLostWrite(mem->nvmArray().mediaAddrOf(target));
    mem->dropCaches();  // cold restart: next read must go to media
    EXPECT_EQ(dimm.bugsTriggered(), 1u);

    // Media still holds v1; device ECC is clean (blind to the bug).
    std::uint64_t at_rest = 0;
    mem->nvmArray().rawRead(target, &at_rest, 8);
    EXPECT_EQ(at_rest, 0x1111u);
    EXPECT_TRUE(dimm.eccCheck(mem->nvmArray().mediaAddrOf(target)));

    // TVARAK detects the mismatch on the next read and recovers the
    // *acknowledged* value from parity.
    mem->stats().reset();
    EXPECT_EQ(mem->read64(0, vaddr), 0x2222u);
    EXPECT_EQ(mem->stats().corruptionsDetected, 1u);
    EXPECT_EQ(mem->stats().recoveries, 1u);
    // Media repaired in place.
    mem->nvmArray().rawRead(target, &at_rest, 8);
    EXPECT_EQ(at_rest, 0x2222u);
    EXPECT_TRUE(atRestConsistent(*mem, *fs, fd));
}

TEST_F(TvarakFaults, MisdirectedWriteVictimRecovered)
{
    build("tvarak");
    // Intended target and victim: different pages on the same DIMM
    // (misdirection happens within one device's firmware).
    auto &nvm = mem->nvmArray();
    Addr intended = fs->filePage(fd, 0);
    std::size_t victim_idx = 1;
    while (nvm.dimmOf(fs->filePage(fd, victim_idx)) !=
           nvm.dimmOf(intended)) {
        victim_idx++;
    }
    Addr victim = fs->filePage(fd, victim_idx);
    Addr v_intended = base;
    Addr v_victim = base + victim_idx * kPageBytes;

    mem->write64(0, v_victim, 0xAAAA);
    mem->flushAll();

    auto &dimm = nvm.dimm(nvm.dimmOf(intended));
    dimm.injectMisdirectedWrite(nvm.mediaAddrOf(intended),
                                nvm.mediaAddrOf(victim));
    mem->write64(0, v_intended, 0xBBBB);
    mem->dropCaches();
    EXPECT_EQ(dimm.bugsTriggered(), 1u);

    // The victim's media is corrupted with the intended line's data;
    // reading the victim detects and repairs it.
    mem->stats().reset();
    EXPECT_EQ(mem->read64(1, v_victim), 0xAAAAu);
    EXPECT_GE(mem->stats().corruptionsDetected, 1u);

    // The intended line's media never got its data; reading it
    // recovers the acknowledged value from parity too.
    EXPECT_EQ(mem->read64(1, v_intended), 0xBBBBu);
    EXPECT_TRUE(atRestConsistent(*mem, *fs, fd));
}

TEST_F(TvarakFaults, MisdirectedReadDetectedViaRetry)
{
    build("tvarak");
    auto &nvm = mem->nvmArray();
    Addr a = fs->filePage(fd, 2);
    std::size_t b_idx = 3;
    while (nvm.dimmOf(fs->filePage(fd, b_idx)) != nvm.dimmOf(a))
        b_idx++;
    Addr b = fs->filePage(fd, b_idx);

    mem->write64(0, base + 2 * kPageBytes, 0xCCCC);
    mem->write64(0, base + b_idx * kPageBytes, 0xDDDD);
    mem->dropCaches();

    auto &dimm = nvm.dimm(nvm.dimmOf(a));
    dimm.injectMisdirectedRead(nvm.mediaAddrOf(a), nvm.mediaAddrOf(b));
    mem->stats().reset();
    EXPECT_EQ(mem->read64(1, base + 2 * kPageBytes), 0xCCCCu)
        << "misdirected read must be caught and retried";
    EXPECT_EQ(mem->stats().corruptionsDetected, 1u);
    EXPECT_TRUE(atRestConsistent(*mem, *fs, fd));
}

TEST_F(TvarakFaults, BaselineSilentlyConsumesCorruption)
{
    build("baseline");
    Addr vaddr = base + kPageBytes;
    Addr target = fs->filePage(fd, 1);
    mem->write64(0, vaddr, 0x1111);
    mem->flushAll();
    mem->write64(0, vaddr, 0x2222);
    auto &dimm = mem->nvmArray().dimm(mem->nvmArray().dimmOf(target));
    dimm.injectLostWrite(mem->nvmArray().mediaAddrOf(target));
    mem->dropCaches();
    mem->stats().reset();
    // Baseline returns stale data with no detection whatsoever.
    EXPECT_EQ(mem->read64(1, vaddr), 0x1111u);
    EXPECT_EQ(mem->stats().corruptionsDetected, 0u);
}

TEST_F(TvarakFaults, RecoveryUnderNaivePageChecksums)
{
    build("tvarak-naive");
    Addr vaddr = base + 2 * kPageBytes + 9 * kLineBytes;
    Addr target = fs->filePage(fd, 2) + 9 * kLineBytes;
    mem->write64(0, vaddr, 0x3333);
    mem->flushAll();
    mem->write64(0, vaddr, 0x4444);
    auto &dimm = mem->nvmArray().dimm(mem->nvmArray().dimmOf(target));
    dimm.injectLostWrite(mem->nvmArray().mediaAddrOf(target));
    mem->dropCaches();
    mem->stats().reset();
    EXPECT_EQ(mem->read64(0, vaddr), 0x4444u);
    EXPECT_GE(mem->stats().corruptionsDetected, 1u);
}

TEST(TvarakCoherence, ControllersShareOneParityLine)
{
    // A page is 64 lines, so with 12 LLC banks the same line of
    // neighbouring pages sits 4 banks apart: the lines of one stripe
    // row write back through different controllers, which all update
    // the row's one parity line. The directory must recall and
    // invalidate it from controller to controller, and the parity
    // must come out right.
    constexpr std::size_t kPages = 8;  // file size, in pages
    constexpr std::size_t kRows = 8;   // stripe rows written
    SimConfig cfg = test::smallConfig();
    cfg.cores = 4;
    cfg.llcBanks = 12;
    MemorySystem mem(cfg, DesignKind::Tvarak);
    DaxFs fs(mem);
    int fd = fs.create("row", kPages * kPageBytes);
    Addr base = fs.daxMap(fd);
    Layout &layout = mem.layout();
    std::vector<std::size_t> row;  // file pages of the first stripe
    for (std::size_t p = 0; p < kPages; p++) {
        if (layout.stripeOf(fs.filePage(fd, p)) ==
            layout.stripeOf(fs.filePage(fd, 0)))
            row.push_back(p);
    }
    ASSERT_GE(row.size(), 2u);
    mem.stats().reset();
    for (int round = 0; round < 3; round++) {
        for (std::size_t l = 0; l < kRows; l++) {
            for (std::size_t i = 0; i < row.size(); i++) {
                Addr a = base + row[i] * kPageBytes + l * kLineBytes;
                mem.write64(static_cast<int>(i), a,
                            (round + 1) * 1000 + l * 10 + i);
            }
        }
        mem.flushAll();
        EXPECT_EQ(fs.verifyParity(), 0u) << "round " << round;
    }
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(mem.stats().redundancyInvalidations, 166u);
}

//
// Structural checks
//

TEST(TvarakArea, DedicatedAreaMatchesPaper)
{
    SimConfig cfg;  // full Table III machine
    MemorySystem mem(cfg, DesignKind::Tvarak);
    double fraction =
        static_cast<double>(
            mem.tvarak().dedicatedBytesPerController()) /
        static_cast<double>(cfg.llcBank.sizeBytes);
    EXPECT_NEAR(fraction, 0.002, 0.0001)
        << "paper: 4KB per 2MB bank = 0.2% dedicated area";
}

TEST(TvarakCaching, RedundancyCachingCutsNvmTraffic)
{
    // Adjacent Fig 9 rungs: the two designs differ only in caching.
    auto run = [](const char *design) {
        MemorySystem mem(test::smallConfig(), *findDesign(design));
        DaxFs fs(mem);
        int fd = fs.create("d", 32 * kPageBytes);
        Addr base = fs.daxMap(fd);
        mem.stats().reset();
        // Sequential read sweep: high checksum-line reuse (8 data
        // lines per checksum line).
        for (Addr a = 0; a < 32 * kPageBytes; a += kLineBytes)
            (void)mem.read64(0, base + a);
        return mem.stats().nvmRedundancyReads;
    };
    std::uint64_t with_cache = run("tvarak-no-diffs");
    std::uint64_t without = run("tvarak-no-red-cache");
    EXPECT_LT(with_cache, without / 4)
        << "caching must exploit checksum-line reuse";
}

TEST(TvarakDiffs, DiffsAvoidOldDataReads)
{
    auto run = [](const char *design) {
        MemorySystem mem(test::smallConfig(), *findDesign(design));
        DaxFs fs(mem);
        int fd = fs.create("d", 16 * kPageBytes);
        Addr base = fs.daxMap(fd);
        // Warm all lines so later writes hit.
        for (Addr a = 0; a < 16 * kPageBytes; a += kLineBytes)
            (void)mem.read64(0, base + a);
        mem.stats().reset();
        for (Addr a = 0; a < 16 * kPageBytes; a += kLineBytes)
            mem.write64(0, base + a, a);
        mem.flushAll();
        return mem.stats().nvmDataReads;
    };
    EXPECT_LT(run("tvarak"), run("tvarak-no-diffs"));
}

}  // namespace
}  // namespace tvarak
