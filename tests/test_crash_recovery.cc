/**
 * @file
 * Crash-consistency tests: NVM image checkpointing across simulator
 * "power cycles" plus PmemPool reattach recovery (undo-log rollback of
 * interrupted transactions, allocator-index rebuild). Together these
 * model the full life cycle the paper assumes: battery-backed caches
 * flush on power failure, NVM survives, software recovers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "apps/trees/pmem_map.hh"
#include "pmemlib/pmem_pool.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

// Size of the checkpointed test file, in pages.
constexpr std::size_t kFilePages = 8;

struct TempImage {
    std::string path;
    TempImage()
    {
        char buf[] = "/tmp/tvarak-img-XXXXXX";
        int fd = mkstemp(buf);
        if (fd >= 0)
            close(fd);
        path = buf;
    }
    ~TempImage() { std::remove(path.c_str()); }
};

TEST(Checkpoint, PowerCyclePreservesFlushedData)
{
    TempImage img;
    {
        MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
        DaxFs fs(mem);
        int fd = fs.create("data", 16 * kPageBytes);
        Addr base = fs.daxMap(fd);
        mem.write64(0, base + 4096, 0xfeedface);
        ASSERT_TRUE(mem.saveNvmImage(img.path));  // battery flush + save
    }
    {
        // A fresh machine boots from the image; the file system's
        // superblock brings the namespace back (unmapped, like any
        // DAX file system after reboot).
        MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
        ASSERT_TRUE(mem.loadNvmImage(img.path));
        EXPECT_TRUE(test::currentMatchesMedia(mem));
        DaxFs fs(mem);
        int fd = fs.open("data");
        ASSERT_GE(fd, 0) << "namespace persisted in the superblock";
        EXPECT_FALSE(fs.isMapped(fd));
        Addr base = fs.daxMap(fd);
        EXPECT_EQ(mem.read64(0, base + 4096), 0xfeedfaceull);
        EXPECT_EQ(fs.verifyParity(), 0u);
    }
}

TEST(Checkpoint, UnflushedDataDoesNotSurvive)
{
    TempImage img;
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    int fd = fs.create("data", kFilePages * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base, 0xAAAA);
    mem.flushAll();
    mem.write64(0, base, 0xBBBB);
    // Save WITHOUT the implicit flush: raw media only.
    ASSERT_TRUE(mem.nvmArray().saveImage(img.path));

    MemorySystem mem2(test::smallConfig(), DesignKind::Baseline);
    ASSERT_TRUE(mem2.loadNvmImage(img.path));
    EXPECT_TRUE(test::currentMatchesMedia(mem2));
    DaxFs fs2(mem2);
    int fd2 = fs2.open("data");
    ASSERT_GE(fd2, 0);
    EXPECT_EQ(mem2.read64(0, fs2.daxMap(fd2)), 0xAAAAull)
        << "cache-resident data is lost without the battery flush";
}

TEST(Checkpoint, GeometryMismatchRejected)
{
    TempImage img;
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    ASSERT_TRUE(mem.saveNvmImage(img.path));
    SimConfig other = test::smallConfig();
    other.nvm.dimmBytes *= 2;
    MemorySystem mem2(other, DesignKind::Baseline);
    EXPECT_FALSE(mem2.loadNvmImage(img.path));
}

class PoolRecovery : public ::testing::Test
{
  protected:
    PoolRecovery()
        : mem(test::smallConfig(), DesignKind::Tvarak), fs(mem)
    {}

    MemorySystem mem;
    DaxFs fs;
};

TEST_F(PoolRecovery, InterruptedTransactionRollsBack)
{
    Addr obj;
    {
        PmemPool pool(mem, fs, "p", 2ull << 20, nullptr, 1);
        obj = pool.alloc(0, 64);
        std::uint64_t committed = 0x600d;
        pool.txBegin(0);
        pool.txWrite(0, obj, &committed, 8);
        pool.txCommit(0);

        // Crash mid-transaction: data written, commit never reached.
        std::uint64_t torn = 0xbad;
        pool.txBegin(0);
        pool.txWrite(0, obj, &torn, 8);
        EXPECT_EQ(mem.read64(0, obj), 0xbadull);
        // The pool object goes away without commit/abort (process
        // death); battery flush pushes caches to NVM.
        mem.flushAll();
    }
    PmemPool again(mem, fs, "p", 2ull << 20, nullptr, 1);
    EXPECT_TRUE(again.recoveredFromCrash());
    EXPECT_EQ(mem.read64(0, obj), 0x600dull)
        << "recovery must roll the torn write back";
    // The recovered pool is fully usable.
    std::uint64_t v = 0x1234;
    again.txBegin(0);
    again.txWrite(0, obj, &v, 8);
    again.txCommit(0);
    EXPECT_EQ(mem.read64(0, obj), 0x1234ull);
}

TEST_F(PoolRecovery, CleanShutdownIsNotACrash)
{
    {
        PmemPool pool(mem, fs, "p", 2ull << 20, nullptr, 1);
        Addr obj = pool.alloc(0, 64);
        std::uint64_t v = 1;
        pool.txBegin(0);
        pool.txWrite(0, obj, &v, 8);
        pool.txCommit(0);
    }
    PmemPool again(mem, fs, "p", 2ull << 20, nullptr, 1);
    EXPECT_FALSE(again.recoveredFromCrash());
}

TEST_F(PoolRecovery, AllocatorIndexRebuiltOnReattach)
{
    Addr a, b;
    {
        PmemPool pool(mem, fs, "p", 2ull << 20, nullptr, 1);
        a = pool.alloc(0, 100);
        b = pool.alloc(0, 100);
        pool.free(0, a);  // a free slot that must be rediscovered
        EXPECT_EQ(pool.liveObjects(), 1u);
    }
    PmemPool again(mem, fs, "p", 2ull << 20, nullptr, 1);
    EXPECT_EQ(again.liveObjects(), 1u) << "index rebuilt from headers";
    EXPECT_EQ(again.objectSize(b), 100u);
    // The freed slot is recycled by the rebuilt free list.
    Addr c = again.alloc(0, 100);
    EXPECT_EQ(c, a);
}

TEST_F(PoolRecovery, TreeSurvivesCrashDuringInsert)
{
    TempImage img;
    std::uint8_t val[64];
    {
        PmemPool pool(mem, fs, "p", 4ull << 20, nullptr, 1);
        auto map = makeMap(MapKind::RBTree, mem, pool, 64);
        for (std::uint64_t k = 0; k < 200; k++) {
            std::memset(val, static_cast<int>(k & 0xff), sizeof(val));
            map->insert(0, k, val);
        }
        // Begin an insert but "crash" before commit: leave the tx
        // open with a partially linked node.
        pool.txBegin(0);
        Addr node = pool.alloc(0, 64);
        std::uint64_t junk = 0xdeadbeef;
        pool.txWrite(0, node, &junk, 8);
        mem.saveNvmImage(img.path);  // power fails here
    }
    // Reboot.
    MemorySystem mem2(test::smallConfig(), DesignKind::Tvarak);
    ASSERT_TRUE(mem2.loadNvmImage(img.path));
    DaxFs fs2(mem2);
    PmemPool pool2(mem2, fs2, "p", 4ull << 20, nullptr, 1);
    EXPECT_TRUE(pool2.recoveredFromCrash());
    auto map2 = makeMap(MapKind::RBTree, mem2, pool2, 64);
    std::uint8_t got[64];
    for (std::uint64_t k = 0; k < 200; k += 13) {
        ASSERT_TRUE(map2->get(0, k, got)) << "key " << k;
        EXPECT_EQ(got[0], static_cast<std::uint8_t>(k & 0xff));
    }
}

}  // namespace
}  // namespace tvarak
