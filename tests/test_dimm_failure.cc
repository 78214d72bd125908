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
#include <fstream>
#include <map>
#include <memory>
#include <string>
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
                ASSERT_TRUE(test::currentMatchesMedia(mem));
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
        << "the rebuild sweep must reuse the machine's stripe code "
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
            faulty.mem.dropCaches();
            ASSERT_TRUE(test::currentMatchesMedia(faulty.mem));
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
        << "the rebuild sweep must reuse the machine's stripe code "
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
    EXPECT_TRUE(test::currentMatchesMedia(mem));

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
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));
    RebuildEngine rebuild(mem, &fs);
    rebuild.step(kLinesPerPage * kFilePages);
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));
    rebuild.runToCompletion();
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));
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

/** @p bytes of test data in which no line is all
 *  NvmDimm::kPoisonByte. */
std::vector<std::uint8_t>
filePattern(std::size_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; i++)
        out[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return out;
}

TEST(DimmFailure, OverBudgetSingleParityChargesLiveMembersOnly)
{
    // Two dead DIMMs under single parity: the stripe is past its
    // erasure budget. Reconstruction poisons, returns false, and reads
    // (so charges) exactly the stripe members on live DIMMs, in the
    // controller's at-rest world (tvarak) and in the software world
    // (txb-page-csums) alike.
    for (const char *name : {"tvarak", "txb-page-csums"}) {
        SCOPED_TRACE(name);
        const Design *d = findDesign(name);
        ASSERT_NE(d, nullptr);
        MemorySystem mem(test::smallConfig(), *d);
        DaxFs fs(mem);
        int fd = fs.create("f", kFilePages * kPageBytes);
        Addr base = fs.daxMap(fd);
        const std::vector<std::uint8_t> want =
            filePattern(kFilePages * kPageBytes);
        mem.write(0, base, want.data(), want.size());
        mem.flushAll();

        const Layout &layout = mem.layout();
        NvmArray &nvm = mem.nvmArray();
        Addr g = fs.filePage(fd, 0) + kLineBytes;
        std::vector<Addr> pages;
        layout.stripeDataPages(g, pages);
        pages.push_back(layout.parityPageOf(g));
        std::size_t a = nvm.dimmOf(g);
        std::size_t b = nvm.dimmOf(pages[0] == pageBase(g) ? pages[1]
                                                           : pages[0]);
        mem.failDimm(a);
        mem.failDimm(b);

        std::uint64_t data_reads = mem.stats().nvmDataReads;
        std::uint64_t red_reads = mem.stats().nvmRedundancyReads;
        std::vector<bool> live_member(nvm.numDimms(), false);
        for (Addr page : pages) {
            std::size_t dimm = nvm.dimmOf(page);
            if (dimm == a || dimm == b)
                continue;
            live_member[dimm] = true;
            if (layout.isParityPage(page))
                red_reads++;
            else
                data_reads++;
        }
        const std::vector<Cycles> busy = mem.stats().dimmBusyCycles;

        std::uint8_t got[kLineBytes];
        std::uint8_t poison[kLineBytes];
        std::memset(poison, NvmDimm::kPoisonByte, kLineBytes);
        EXPECT_FALSE(mem.reconstructLine(g, got, true));
        EXPECT_EQ(std::memcmp(got, poison, kLineBytes), 0);
        EXPECT_EQ(mem.stats().nvmDataReads, data_reads);
        EXPECT_EQ(mem.stats().nvmRedundancyReads, red_reads);
        for (std::size_t dimm = 0; dimm < nvm.numDimms(); dimm++) {
            EXPECT_EQ(mem.stats().dimmBusyCycles[dimm] > busy[dimm],
                      live_member[dimm])
                << "DIMM " << dimm;
        }
    }
}

TEST(DimmFailure, SingleParityEngineRecoversParityLine)
{
    // RAID-5 is RsCode(n, 1): a parity member decodes like any other,
    // by re-encoding it from the data members at rest, live or dead.
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    int fd = fs.create("f", kFilePages * kPageBytes);
    Addr base = fs.daxMap(fd);
    const std::vector<std::uint8_t> want =
        filePattern(kFilePages * kPageBytes);
    mem.write(0, base, want.data(), want.size());
    mem.flushAll();

    Addr parity = mem.layout().parityLineOf(fs.filePage(fd, 0));
    std::uint8_t expect[kLineBytes];
    std::uint8_t got[kLineBytes];
    std::uint8_t zero[kLineBytes] = {};
    mem.tvarak().peekRedLine(parity, expect);
    ASSERT_NE(std::memcmp(expect, zero, kLineBytes), 0);
    ASSERT_TRUE(mem.tvarak().reconstructFromParity(parity, got));
    EXPECT_EQ(std::memcmp(got, expect, kLineBytes), 0);

    mem.failDimm(mem.nvmArray().dimmOf(parity));
    ASSERT_TRUE(mem.tvarak().reconstructFromParity(parity, got));
    EXPECT_EQ(std::memcmp(got, expect, kLineBytes), 0);
}

TEST(DimmFailure, OneStripeCodePerMachine)
{
    // The machine builds its one codec with its layout; the DAX file
    // system (superblock parity, unmapped writes) shares it.
    for (const char *name : {"tvarak", "tvarak-rs4+2"}) {
        SCOPED_TRACE(name);
        const Design *d = findDesign(name);
        ASSERT_NE(d, nullptr);
        std::uint64_t before = RsCode::constructions();
        MemorySystem mem(test::smallConfig(), *d);
        EXPECT_EQ(RsCode::constructions(), before + 1);
        DaxFs fs(mem);
        int fd = fs.create("f", kFilePages * kPageBytes);
        const std::vector<std::uint8_t> data =
            filePattern(kFilePages * kPageBytes);
        fs.pwrite(0, fd, 0, data.data(), data.size());
        EXPECT_EQ(RsCode::constructions(), before + 1)
            << "DaxFs create and write build no codec of their own";
    }
}

TEST(DimmFailure, UncachedLinesReadAsPoisonUntilRederived)
{
    // A lost current value reads as poison until the rebuild or a cold
    // restart re-derives it, so any path that skips the reconstructing
    // fill is loudly wrong. It is also what makes a twin-image check
    // after the rebuild meaningful: a line the rebuild missed cannot
    // pass for its old bytes.
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    int fd = fs.create("f", kFilePages * kPageBytes);
    Addr base = fs.daxMap(fd);
    const std::vector<std::uint8_t> want =
        filePattern(kFilePages * kPageBytes);
    mem.write(0, base, want.data(), want.size());
    mem.dropCaches();  // written back, and no cache holds any line

    NvmArray &nvm = mem.nvmArray();
    std::size_t d = nvm.dimmOf(fs.filePage(fd, 0));
    // The LLC holds this line when the DIMM dies. It is the last of
    // its page, so the next-line prefetcher brings in no other.
    Addr held = base + kPageBytes - kLineBytes;
    std::uint8_t line[kLineBytes];
    mem.read(0, held, line, kLineBytes);
    mem.failDimm(d);

    std::uint8_t poison[kLineBytes];
    std::memset(poison, NvmDimm::kPoisonByte, kLineBytes);
    std::size_t lost = 0;
    for (std::size_t off = 0; off < want.size(); off += kLineBytes) {
        mem.peek(base + off, line, kLineBytes);
        bool dead = nvm.dimmOf(fs.filePage(fd, off / kPageBytes)) == d;
        if (dead && base + off != held) {
            ASSERT_EQ(std::memcmp(line, poison, kLineBytes), 0)
                << "uncached line at file offset " << off;
            lost++;
        } else {
            ASSERT_EQ(std::memcmp(line, want.data() + off, kLineBytes), 0)
                << (dead ? "LLC-held" : "live-DIMM") << " line at file "
                << "offset " << off << " lost its value";
        }
    }
    EXPECT_GT(lost, 0u);

    // A fill re-derives a lost line: the degraded read reconstructs
    // it, and the store holds the result until the line is written
    // back (dropped on the dead DIMM).
    Addr refilled = base + kLineBytes;
    mem.read(0, refilled, line, kLineBytes);
    EXPECT_EQ(std::memcmp(line, want.data() + kLineBytes, kLineBytes), 0);
    mem.write(0, refilled, want.data() + kLineBytes, kLineBytes);
    mem.flushAll();
    mem.peek(refilled, line, kLineBytes);
    EXPECT_EQ(std::memcmp(line, want.data() + kLineBytes, kLineBytes), 0);

    // So does a re-read of its media: the fresh device reads as zero
    // until the rebuild passes.
    mem.replaceDimm(d);
    Addr fromMedia = base + 2 * kLineBytes;
    mem.refreshFromMedia(fromMedia, kLineBytes);
    std::uint8_t zero[kLineBytes] = {};
    mem.peek(fromMedia, line, kLineBytes);
    EXPECT_EQ(std::memcmp(line, zero, kLineBytes), 0);

    std::vector<std::uint8_t> got(want.size());
    RebuildEngine(mem, &fs).runToCompletion();
    mem.peek(base, got.data(), got.size());
    EXPECT_EQ(got, want) << "the rebuild re-derives every lost line";
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));

    // A cold restart while the DIMM is down re-derives them too.
    mem.failDimm(d);
    mem.dropCaches();
    EXPECT_TRUE(test::currentMatchesMedia(mem));
    mem.peek(base, got.data(), got.size());
    EXPECT_EQ(got, want) << "the cold restart re-derives every lost line";
    mem.replaceDimm(d);
    RebuildEngine(mem, &fs).runToCompletion();
    mem.peek(base, got.data(), got.size());
    EXPECT_EQ(got, want);
}

#if defined(__linux__)
/** This process's resident set size in MiB (VmRSS). */
double
residentMib()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmRSS:") {
            long kib = 0;
            in >> kib;
            return static_cast<double>(kib) / 1024;
        }
        std::getline(in, key);
    }
    ADD_FAILURE() << "no VmRSS in /proc/self/status";
    return 0;
}
#endif

TEST(DimmFailure, LifecycleMemoryFollowsLiveData)
{
#if !defined(__linux__)
    GTEST_SKIP() << "reads VmRSS from /proc/self/status";
#else
    // A lost line only has to read as lost, and the rebuild only has
    // to restore live data: failing, replacing and rebuilding a
    // 64 MiB DIMM that holds a fraction of 1 MiB of data must not grow
    // the simulator by anything like the device's size.
    constexpr double kSlackMib = 16;
    constexpr std::size_t kBytes = 1ull << 20;
    SimConfig cfg = test::smallConfig();
    cfg.nvm.dimmBytes = 64ull << 20;
    MemorySystem mem(cfg, DesignKind::Tvarak);
    DaxFs fs(mem);
    int fd = fs.create("f", kBytes);
    Addr base = fs.daxMap(fd);
    const std::vector<std::uint8_t> want = filePattern(kBytes);
    mem.write(0, base, want.data(), want.size());
    mem.flushAll();
    std::vector<std::uint8_t> got(kBytes);
    std::size_t d = mem.nvmArray().dimmOf(fs.filePage(fd, 0));

    double before = residentMib();
    mem.failDimm(d);
    EXPECT_LE(residentMib() - before, kSlackMib) << "after failDimm";
    mem.replaceDimm(d);
    EXPECT_LE(residentMib() - before, kSlackMib) << "after replaceDimm";
    RebuildEngine(mem, &fs).runToCompletion();
    EXPECT_LE(residentMib() - before, kSlackMib) << "after the rebuild";
    mem.read(0, base, got.data(), got.size());
    EXPECT_EQ(got, want);
#endif
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
