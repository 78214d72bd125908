/**
 * @file
 * Whole-DIMM failure end to end: a TVARAK workload survives
 * failDimm() mid-run with zero incorrect reads, keeps running through
 * the online rebuild after replaceDimm(), and the rebuilt array is
 * bit-exact against a twin machine that ran the same operations with
 * no failure. Also: the unmapped (software-redundancy) I/O path under
 * degraded mode, and the incremental background scrubber.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "apps/trees/pmem_map.hh"
#include "checksum/gf256.hh"
#include "fs/scrubber.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/rebuild.hh"
#include "redundancy/registry.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

constexpr std::size_t kValueBytes = 48;
constexpr std::uint64_t kKeys = 96;
constexpr std::size_t kFilePages = 8;

void
valueFor(std::uint64_t key, std::uint64_t version, std::uint8_t *out)
{
    for (std::size_t i = 0; i < kValueBytes; i++) {
        out[i] = static_cast<std::uint8_t>(key * 131 + version * 17 + i);
    }
}

/** One machine + mapped-map workload; `atIter` runs failure-lifecycle
 *  actions on the faulty machine and nothing on the twin, so both see
 *  the identical operation stream. */
struct MapRig {
    explicit MapRig(DesignKind design)
        : mem(test::smallConfig(), design),
          fs(mem),
          pool(mem, fs, "p", 4ull << 20, nullptr, 1),
          map(makeMap(MapKind::CTree, mem, pool, kValueBytes))
    {
    }

    explicit MapRig(const Design &design)
        : mem(test::smallConfig(), design),
          fs(mem),
          pool(mem, fs, "p", 4ull << 20, nullptr, 1),
          map(makeMap(MapKind::CTree, mem, pool, kValueBytes))
    {
    }

    void
    run(const std::function<void(std::size_t)> &atIter)
    {
        std::uint8_t value[kValueBytes];
        for (std::uint64_t k = 0; k < kKeys; k++) {
            valueFor(k, 0, value);
            map->insert(0, k, value);
            version[k] = 0;
        }
        mem.flushAll();
        for (std::size_t i = 0; i < 240; i++) {
            atIter(i);
            std::uint64_t k = (i * 7) % kKeys;
            valueFor(k, i + 1, value);
            ASSERT_TRUE(map->update(0, k, value));
            version[k] = i + 1;
            // The invariant under test: every read during the
            // degraded and rebuilding windows returns exactly the
            // acknowledged data.
            std::uint64_t probe = (i * 13 + 5) % kKeys;
            std::uint8_t expect[kValueBytes];
            std::uint8_t got[kValueBytes] = {};
            valueFor(probe, version[probe], expect);
            ASSERT_TRUE(map->get(0, probe, got)) << "iter " << i;
            ASSERT_EQ(std::memcmp(expect, got, kValueBytes), 0)
                << "iter " << i;
            if (i == 100) {
                // Forces writebacks (dropped on the dead DIMM) and
                // makes every later read re-fill — i.e. reconstruct.
                mem.dropCaches();
            }
        }
        mem.flushAll();
    }

    MemorySystem mem;
    DaxFs fs;
    PmemPool pool;
    std::unique_ptr<PmemMap> map;
    std::map<std::uint64_t, std::uint64_t> version;
};

TEST(DimmFailure, TvarakSurvivesAndRebuildsBitExact)
{
    MapRig faulty(DesignKind::Tvarak);
    MapRig twin(DesignKind::Tvarak);

    std::size_t target =
        faulty.mem.nvmArray().dimmOf(faulty.fs.filePage(0, 1));
    std::unique_ptr<RebuildEngine> rebuild;
    faulty.run([&](std::size_t i) {
        if (i == 50)
            faulty.mem.failDimm(target);
        if (i == 140) {
            faulty.mem.replaceDimm(target);
            rebuild = std::make_unique<RebuildEngine>(faulty.mem,
                                                      &faulty.fs);
        }
        if (rebuild != nullptr && !rebuild->done())
            rebuild->step(512);  // online: interleaved with the workload
    });
    ASSERT_NE(rebuild, nullptr);
    std::uint64_t ctors = RsCode::constructions();
    rebuild->runToCompletion();
    EXPECT_EQ(RsCode::constructions(), ctors)
        << "the rebuild sweep must reuse the cached geometry codec "
           "(zero RsCode constructions per swept line)";
    EXPECT_EQ(faulty.mem.nvmArray().dimmState(target),
              NvmArray::DimmState::Healthy);

    twin.run([](std::size_t) {});

    // The campaign counters prove the windows were actually exercised.
    const Stats &stats = faulty.mem.stats();
    EXPECT_GT(stats.degradedReads, 0u);
    EXPECT_GT(stats.degradedWritesDropped, 0u);
    EXPECT_GT(stats.rebuildLines, 0u);

    // Full redundancy restored...
    faulty.mem.flushAll();
    EXPECT_EQ(faulty.fs.scrub(false), 0u);
    EXPECT_EQ(faulty.fs.verifyParity(), 0u);

    // ...and the raw media is bit-exact against the failure-free twin
    // (data, checksum metadata and parity included).
    NvmArray &a = faulty.mem.nvmArray();
    NvmArray &b = twin.mem.nvmArray();
    ASSERT_EQ(a.totalBytes(), b.totalBytes());
    std::vector<std::uint8_t> ia(a.totalBytes()), ib(b.totalBytes());
    a.rawRead(0, ia.data(), ia.size());
    b.rawRead(0, ib.data(), ib.size());
    if (ia != ib) {
        std::size_t off = 0;
        while (ia[off] == ib[off])
            off++;
        const Layout &layout = faulty.mem.layout();
        FAIL() << "images differ first at global 0x" << std::hex << off
               << (layout.isMetaAddr(off)
                       ? (off < layout.daxClBase() ? " (page csum)"
                                                   : " (dax-cl csum)")
                       : layout.isParityPage(off) ? " (parity)"
                                                  : " (data)");
    }
}

TEST(DimmFailure, RsSecondFailureMidRebuildBitExact)
{
    // The erasure-coded (k = 2) lifecycle in one run: DIMM a fails and
    // is replaced; while its rebuild is in flight, a fails *again*
    // (the sweep must restart from scratch) and then DIMM b fails too,
    // putting two DIMMs down at once. Every acknowledged read in every
    // window must be byte-correct, and the fully rebuilt array must be
    // bit-exact against a never-failed twin.
    const Design *d = findDesign("tvarak-rs4+2");
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->coverage().survivableFailures, 2u);
    MapRig faulty(*d);
    MapRig twin(*d);

    NvmArray &nvm = faulty.mem.nvmArray();
    std::size_t a = nvm.dimmOf(faulty.fs.filePage(0, 1));
    std::size_t b = (a + 1) % faulty.mem.config().nvm.dimms;
    std::unique_ptr<RebuildEngine> rebuild;
    faulty.run([&](std::size_t i) {
        if (i == 50)
            faulty.mem.failDimm(a);
        if (i == 90) {
            faulty.mem.replaceDimm(a);
            rebuild = std::make_unique<RebuildEngine>(faulty.mem,
                                                      &faulty.fs);
        }
        if (i == 110) {
            ASSERT_EQ(nvm.dimmState(a),
                      NvmArray::DimmState::Rebuilding)
                << "the restart scenario needs a's rebuild in flight";
            faulty.mem.failDimm(a);  // fail-during-rebuild: restart
            faulty.mem.failDimm(b);  // second concurrent failure
        }
        if (i == 150)
            faulty.mem.replaceDimm(a);
        if (i == 170)
            faulty.mem.replaceDimm(b);
        // Step unconditionally (even when done()): the engine's resync
        // is what adopts the re-replaced DIMMs.
        if (rebuild != nullptr)
            rebuild->step(256);
    });
    ASSERT_NE(rebuild, nullptr);
    std::uint64_t ctors = RsCode::constructions();
    rebuild->runToCompletion();
    EXPECT_EQ(RsCode::constructions(), ctors)
        << "the rebuild sweep must reuse the cached geometry codec "
           "(zero RsCode constructions per swept line)";
    EXPECT_EQ(nvm.dimmState(a), NvmArray::DimmState::Healthy);
    EXPECT_EQ(nvm.dimmState(b), NvmArray::DimmState::Healthy);

    const Stats &stats = faulty.mem.stats();
    EXPECT_GT(stats.degradedReads, 0u);
    EXPECT_GE(stats.rebuildRestarts, 1u)
        << "re-failing a rebuilding DIMM must count as a restart";
    EXPECT_GT(stats.rebuildLines, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u)
        << "a 2-of-6 schedule is inside rs4+2's budget";

    twin.run([](std::size_t) {});

    faulty.mem.flushAll();
    twin.mem.flushAll();
    EXPECT_EQ(faulty.fs.scrub(false), 0u);
    EXPECT_EQ(faulty.fs.verifyParity(), 0u);

    NvmArray &tb = twin.mem.nvmArray();
    ASSERT_EQ(nvm.totalBytes(), tb.totalBytes());
    std::vector<std::uint8_t> ia(nvm.totalBytes()), ib(tb.totalBytes());
    nvm.rawRead(0, ia.data(), ia.size());
    tb.rawRead(0, ib.data(), ib.size());
    EXPECT_EQ(ia, ib) << "rebuilt image differs from never-failed twin";
}

TEST(DimmFailure, UnmappedIoDetectsOrServesCorrect)
{
    // The software-redundancy (pread/pwrite) path under Baseline: even
    // with no hardware scheme, unmapped files carry page checksums and
    // parity, so a dead DIMM is either reconstructed around or the
    // loss is *detected* — never a silently wrong read.
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    int fd = fs.create("f", kFilePages * kPageBytes);
    std::vector<std::uint8_t> page(kPageBytes), got(kPageBytes);
    for (std::size_t p = 0; p < kFilePages; p++) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 37 + i);
        fs.pwrite(0, fd, p * kPageBytes, page.data(), kPageBytes);
    }
    mem.flushAll();

    std::size_t target = mem.nvmArray().dimmOf(fs.filePage(fd, 0));
    mem.failDimm(target);
    mem.dropCaches();  // cold reads must reconstruct, not hit SRAM

    std::size_t served = 0, detected = 0;
    for (std::size_t p = 0; p < kFilePages; p++) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 37 + i);
        if (fs.pread(0, fd, p * kPageBytes, got.data(), kPageBytes)) {
            // Acknowledged read: must be byte-correct.
            ASSERT_EQ(std::memcmp(page.data(), got.data(), kPageBytes),
                      0)
                << "page " << p;
            served++;
        } else {
            detected++;  // checksum storage lost with the DIMM
        }
    }
    EXPECT_EQ(served + detected, kFilePages);
    EXPECT_GT(served, 0u);
    EXPECT_GT(mem.stats().degradedReads, 0u);

    // Replace + rebuild restores everything, including the pages
    // whose checksum slots died with the DIMM.
    mem.replaceDimm(target);
    RebuildEngine rebuild(mem, &fs);
    rebuild.runToCompletion();
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
    for (std::size_t p = 0; p < kFilePages; p++) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 37 + i);
        ASSERT_TRUE(
            fs.pread(0, fd, p * kPageBytes, got.data(), kPageBytes));
        ASSERT_EQ(std::memcmp(page.data(), got.data(), kPageBytes), 0);
    }
}

TEST(Scrubber, IncrementalRepairAndDegradedSkip)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    int fd = fs.create("f", kFilePages * kPageBytes);
    std::vector<std::uint8_t> page(kPageBytes, 0x5a);
    for (std::size_t p = 0; p < kFilePages; p++)
        fs.pwrite(0, fd, p * kPageBytes, page.data(), kPageBytes);
    mem.flushAll();

    // Latent at-rest corruption the application never re-reads.
    Addr victim = fs.filePage(fd, 3) + 5 * kLineBytes;
    std::uint8_t junk[kLineBytes];
    std::memset(junk, 0xa7, sizeof(junk));
    mem.nvmArray().rawWrite(victim, junk, kLineBytes);

    Scrubber scrubber(fs, true);
    std::size_t steps = 0;
    while (scrubber.passes() == 0) {
        scrubber.step(2 * kLinesPerPage);
        ASSERT_LT(++steps, 100u);
    }
    EXPECT_GE(scrubber.badLinesTotal(), 1u);
    EXPECT_GE(mem.stats().scrubRepairs, 1u);
    EXPECT_GT(mem.stats().scrubLines, 0u);
    mem.refreshFromMedia(fs.vbase(fd), kFilePages * kPageBytes);
    EXPECT_EQ(fs.scrub(false), 0u);

    // With a DIMM down the scrubber keeps running and simply skips the
    // degraded pages instead of flagging reconstruction-served data.
    std::size_t target = mem.nvmArray().dimmOf(fs.filePage(fd, 0));
    mem.failDimm(target);
    Scrubber degraded_pass(fs, false);
    while (degraded_pass.passes() == 0)
        degraded_pass.step(4 * kLinesPerPage);
    EXPECT_EQ(degraded_pass.badLinesTotal(), 0u);
}

TEST(Scrubber, CursorPersistsAcrossFailureCycles)
{
    // One Scrubber object stepped across repeated failDimm/replaceDimm
    // cycles — including a k = 2 cycle with two DIMMs down at once —
    // must keep its (fd, page) cursor, keep completing passes, and
    // never flag reconstruction-served or freshly rebuilt data.
    const Design *d = findDesign("tvarak-rs4+2");
    ASSERT_NE(d, nullptr);
    MemorySystem mem(test::smallConfig(), *d);
    DaxFs fs(mem);
    int fd = fs.create("f", kFilePages * kPageBytes);
    std::vector<std::uint8_t> page(kPageBytes);
    for (std::size_t p = 0; p < kFilePages; p++) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 53 + i);
        fs.pwrite(0, fd, p * kPageBytes, page.data(), kPageBytes);
    }
    mem.flushAll();

    std::size_t dimms = mem.config().nvm.dimms;
    std::size_t a = mem.nvmArray().dimmOf(fs.filePage(fd, 0));
    std::size_t b = (a + 1) % dimms;

    Scrubber scrubber(fs, true);
    auto passUntil = [&](std::size_t target) {
        std::size_t guard = 0;
        while (scrubber.passes() < target) {
            scrubber.step(2 * kLinesPerPage);
            ASSERT_LT(++guard, 200u) << "scrubber stopped advancing";
        }
    };

    for (std::size_t cycle = 0; cycle < 2; cycle++) {
        // Scrub partway into the namespace so the cursor is mid-pass
        // when the failure hits.
        scrubber.step(kLinesPerPage);
        mem.failDimm(a);
        if (cycle == 1)
            mem.failDimm(b);  // k = 2: two DIMMs down at once
        // The scrubber keeps running degraded: it skips dead pages
        // instead of flagging reconstruction-served data.
        passUntil(2 * cycle + 1);
        mem.replaceDimm(a);
        if (cycle == 1)
            mem.replaceDimm(b);
        RebuildEngine rebuild(mem, &fs);
        rebuild.runToCompletion();
        // And a full healthy pass after each rebuild stays clean.
        passUntil(2 * cycle + 2);
    }
    EXPECT_EQ(scrubber.badLinesTotal(), 0u);
    EXPECT_GE(scrubber.passes(), 4u);
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST(Layout, DataPageIndexRoundtrip)
{
    Layout layout(64ull << 20, 4);
    for (std::size_t i = 0; i < layout.allocatableDataPages();
         i += 17) {
        EXPECT_EQ(layout.dataPageIndexOf(layout.nthDataPage(i)), i);
    }
}

}  // namespace
}  // namespace tvarak
