/**
 * @file
 * DaxFs tests: allocation, DAX map/unmap checksum conversion, the
 * non-DAX software-redundancy I/O path, scrub and recovery.
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

// Default test-file size, in pages.
constexpr std::size_t kFilePages = 8;

class FsTest : public ::testing::Test
{
  protected:
    FsTest() : mem(test::smallConfig(), DesignKind::Tvarak), fs(mem) {}

    MemorySystem mem;
    DaxFs fs;
};

TEST_F(FsTest, CreateOpenRoundtrip)
{
    int fd = fs.create("alpha", 10 * kPageBytes);
    EXPECT_EQ(fs.open("alpha"), fd);
    EXPECT_EQ(fs.open("missing"), -1);
    EXPECT_EQ(fs.fileBytes(fd), 10 * kPageBytes);
    EXPECT_EQ(fs.filePages(fd), 10u);
}

TEST_F(FsTest, SizesArePageRounded)
{
    int fd = fs.create("beta", kPageBytes + 1);
    EXPECT_EQ(fs.fileBytes(fd), 2 * kPageBytes);
}

TEST_F(FsTest, FilesGetDisjointPages)
{
    int a = fs.create("a", kFilePages * kPageBytes);
    int b = fs.create("b", kFilePages * kPageBytes);
    for (std::size_t i = 0; i < 8; i++) {
        for (std::size_t j = 0; j < 8; j++)
            EXPECT_NE(fs.filePage(a, i), fs.filePage(b, j));
    }
}

TEST_F(FsTest, FilePagesAreNeverParityPages)
{
    int fd = fs.create("c", 32 * kPageBytes);
    for (std::size_t i = 0; i < 32; i++)
        EXPECT_FALSE(mem.layout().isParityPage(fs.filePage(fd, i)));
}

TEST_F(FsTest, FreshFileScrubsCleanAndParityHolds)
{
    fs.create("d", 16 * kPageBytes);
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST_F(FsTest, MapInstallsClChecksums)
{
    int fd = fs.create("e", 4 * kPageBytes);
    // Pre-populate through the FS write path, then map.
    std::vector<std::uint8_t> data(kPageBytes, 0x5a);
    fs.pwrite(0, fd, 0, data.data(), data.size());
    fs.daxMap(fd);
    Addr line = fs.filePage(fd, 0);
    std::uint64_t stored;
    mem.nvmArray().rawRead(mem.layout().daxClCsumAddr(line), &stored, 8);
    std::uint8_t at_rest[kLineBytes];
    mem.nvmArray().rawRead(line, at_rest, kLineBytes);
    EXPECT_EQ(stored, lineChecksum(at_rest));
    EXPECT_EQ(at_rest[0], 0x5a);
}

TEST_F(FsTest, MapWritesEverySlotAndUnmapZeroesIt)
{
    // Every DAX-CL slot of a mapped page holds its line's checksum,
    // and unmapping returns every slot to zero; the slot lines' device
    // ECC stays consistent through both conversions.
    constexpr std::size_t kPages = 3;
    int fd = fs.create("slots", kPages * kPageBytes);
    std::vector<std::uint8_t> data(kPages * kPageBytes);
    Rng rng(11);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next() | 1);
    fs.pwrite(0, fd, 0, data.data(), data.size());
    NvmArray &nvm = mem.nvmArray();
    auto check_slots = [&](bool mapped) {
        for (std::size_t p = 0; p < kPages; p++) {
            for (std::size_t l = 0; l < kLinesPerPage; l++) {
                Addr line = fs.filePage(fd, p) + l * kLineBytes;
                Addr slot = mem.layout().daxClCsumAddr(line);
                std::uint8_t bytes[kLineBytes];
                nvm.rawRead(line, bytes, kLineBytes);
                std::uint64_t stored = 0;
                nvm.rawRead(slot, &stored, kChecksumBytes);
                EXPECT_EQ(stored, mapped ? lineChecksum(bytes) : 0u)
                    << "page " << p << " line " << l;
                EXPECT_TRUE(nvm.dimm(nvm.dimmOf(slot))
                                .eccCheck(nvm.mediaAddrOf(slot)))
                    << "page " << p << " line " << l;
            }
        }
    };
    fs.daxMap(fd);
    check_slots(true);
    fs.daxUnmap(fd);
    check_slots(false);
}

TEST_F(FsTest, UnmapRestoresPageChecksums)
{
    int fd = fs.create("f", 4 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base + 100, 0x77);
    fs.daxUnmap(fd);
    EXPECT_FALSE(fs.isMapped(fd));
    // Page checksums must now cover the new content.
    EXPECT_EQ(fs.scrub(false), 0u);
    // And TVARAK must no longer intercept accesses to these pages.
    EXPECT_FALSE(mem.tvarak().isDaxData(fs.filePage(fd, 0)));
}

TEST_F(FsTest, MapUnmapRoundtripPreservesData)
{
    int fd = fs.create("g", kFilePages * kPageBytes);
    Addr base = fs.daxMap(fd);
    Rng rng(9);
    std::vector<std::uint64_t> vals(kFilePages * kLinesPerPage);
    for (std::size_t i = 0; i < vals.size(); i++) {
        vals[i] = rng.next();
        mem.write64(0, base + i * kLineBytes, vals[i]);
    }
    fs.daxUnmap(fd);
    Addr base2 = fs.daxMap(fd);
    EXPECT_EQ(base, base2);
    for (std::size_t i = 0; i < vals.size(); i += 17)
        EXPECT_EQ(mem.read64(0, base + i * kLineBytes), vals[i]);
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST_F(FsTest, PwritePreadRoundtripUnmapped)
{
    int fd = fs.create("h", kFilePages * kPageBytes);
    std::vector<std::uint8_t> w(3000);
    Rng rng(1);
    for (auto &b : w)
        b = static_cast<std::uint8_t>(rng.next());
    fs.pwrite(0, fd, 1234, w.data(), w.size());
    std::vector<std::uint8_t> r(w.size());
    EXPECT_TRUE(fs.pread(0, fd, 1234, r.data(), r.size()));
    EXPECT_EQ(r, w);
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u)
        << "software parity path must preserve the stripe invariant";
}

TEST_F(FsTest, PreadDetectsAndRepairsLostWrite)
{
    int fd = fs.create("i", 4 * kPageBytes);
    std::uint64_t v1 = 0xAAAA, v2 = 0xBBBB;
    fs.pwrite(0, fd, 0, &v1, 8);
    mem.flushAll();
    // Lose the next writeback of the first line.
    Addr target = fs.filePage(fd, 0);
    auto &dimm = mem.nvmArray().dimm(mem.nvmArray().dimmOf(target));
    dimm.injectLostWrite(mem.nvmArray().mediaAddrOf(target));
    fs.pwrite(0, fd, 0, &v2, 8);
    mem.dropCaches();
    EXPECT_EQ(dimm.bugsTriggered(), 1u);

    std::uint64_t r = 0;
    EXPECT_TRUE(fs.pread(0, fd, 0, &r, 8));
    EXPECT_EQ(r, v2) << "FS read path must recover the lost write";
    EXPECT_GE(mem.stats().corruptionsDetected, 1u);
    EXPECT_EQ(fs.scrub(false), 0u);
}

TEST_F(FsTest, ScrubRepairsSilentCorruption)
{
    int fd = fs.create("j", 4 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base, 0x1234);
    mem.flushAll();
    // Corrupt media behind TVARAK's back via a misdirected write
    // landing from another page's update.
    Addr victim = fs.filePage(fd, 0);
    auto &nvm = mem.nvmArray();
    std::uint8_t junk[kLineBytes];
    std::memset(junk, 0xee, sizeof(junk));
    nvm.dimm(nvm.dimmOf(victim))
        .rawWrite(nvm.mediaAddrOf(victim), junk, kLineBytes);

    EXPECT_EQ(fs.scrub(false), 1u);
    EXPECT_EQ(fs.scrub(true), 1u);   // repair pass
    EXPECT_EQ(fs.scrub(false), 0u);  // now clean
    std::uint64_t at_rest = 0;
    nvm.rawRead(victim, &at_rest, 8);
    EXPECT_EQ(at_rest, 0x1234u);
}

TEST_F(FsTest, NvmFullIsFatal)
{
    EXPECT_DEATH(
        {
            // Far larger than the 64 MB test array.
            fs.create("huge", 1ull << 40);
        },
        "NVM full");
}

TEST_F(FsTest, RemoveRecyclesPages)
{
    int a = fs.create("doomed", kFilePages * kPageBytes);
    Addr first_page = fs.filePage(a, 0);
    Addr base = fs.daxMap(a);
    mem.write64(0, base + 64, 0xdead);
    fs.remove(a);

    // The namespace entry is gone and integrity holds over the zeroed
    // pages.
    EXPECT_EQ(fs.open("doomed"), -1);
    mem.flushAll();
    EXPECT_EQ(fs.verifyParity(), 0u);

    // A new file of the same size reuses the extent, reads as zero,
    // and is fully functional.
    int b = fs.create("reborn", kFilePages * kPageBytes);
    EXPECT_EQ(fs.filePage(b, 0), first_page) << "extent recycled";
    Addr base2 = fs.daxMap(b);
    EXPECT_EQ(mem.read64(0, base2 + 64), 0u)
        << "no data leaks across remove/create";
    mem.write64(0, base2, 77);
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
}

TEST_F(FsTest, RemoveSplitsAndReusesPartially)
{
    int a = fs.create("big", kFilePages * kPageBytes);
    Addr first = fs.filePage(a, 0);
    fs.remove(a);
    int b = fs.create("small1", 3 * kPageBytes);
    int c = fs.create("small2", 3 * kPageBytes);
    EXPECT_EQ(fs.filePage(b, 0), first);
    EXPECT_NE(fs.filePage(c, 0), fs.filePage(b, 0));
    EXPECT_EQ(fs.scrub(false), 0u);
}

TEST_F(FsTest, RemoveMappedFileUnmapsFirst)
{
    int a = fs.create("mapped", 4 * kPageBytes);
    Addr base = fs.daxMap(a);
    mem.write64(0, base, 5);
    fs.remove(a);  // must not panic; handles the unmap itself
    EXPECT_EQ(fs.open("mapped"), -1);
    mem.flushAll();
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST(FsDesigns, ScrubSkipsUncoveredMappedFiles)
{
    // Under Baseline, a mapped file has no maintained checksums; scrub
    // must not report garbage (Table I: no coverage while DAX mapped).
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    int fd = fs.create("k", 4 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base, 42);
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
}

TEST(FsDesigns, OnlyControllerDesignsRegisterMappedPages)
{
    // The engine's DAX registry is MemorySystem's one per-line gate
    // into the controller: a mapped page joins it only under a design
    // whose controller keeps the parity, and unmapping takes it out.
    for (const Design *d : allRegisteredDesigns()) {
        MemorySystem mem(test::smallConfig(), *d);
        DaxFs fs(mem);
        int fd = fs.create("gate", 2 * kPageBytes);
        Addr page = fs.filePage(fd, 0);
        fs.daxMap(fd);
        EXPECT_EQ(mem.tvarak().isDaxData(page),
                  d->coverage().controllerKeepsParity())
            << d->cliName();
        fs.daxUnmap(fd);
        EXPECT_FALSE(mem.tvarak().isDaxData(page)) << d->cliName();
    }
}

}  // namespace
}  // namespace tvarak
