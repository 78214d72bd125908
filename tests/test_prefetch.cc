/**
 * @file
 * Prefetcher and stats-reporting tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

// Size of the DAX-backed test file, in pages; kColdPage is an index
// whose lines no prior access has pulled into any cache.
constexpr std::size_t kFilePages = 64;
constexpr std::size_t kColdPage = 8;

class PrefetchTest : public ::testing::Test
{
  protected:
    PrefetchTest()
        : mem(test::smallConfig(), DesignKind::Baseline), fs(mem)
    {
        fd = fs.create("f", kFilePages * kPageBytes);
        base = fs.daxMap(fd);
    }

    MemorySystem mem;
    DaxFs fs;
    int fd;
    Addr base = 0;
};

TEST_F(PrefetchTest, SequentialLoadsTriggerPrefetch)
{
    mem.stats().reset();
    // Two consecutive line misses arm the next-line prefetcher.
    (void)mem.read64(0, base);
    (void)mem.read64(0, base + kLineBytes);
    std::uint64_t after_arm = mem.stats().nvmDataReads;
    EXPECT_GT(after_arm, 2u) << "prefetches issued beyond demand";

    // The prefetched lines now hit in the LLC: the demand load is
    // cheap (well under one NVM latency) even though the hit extends
    // the stream with further prefetches off the critical path.
    mem.stats().reset();
    (void)mem.read64(0, base + 2 * kLineBytes);
    EXPECT_LT(mem.stats().threadCycles[0],
              mem.config().nsToCycles(mem.config().nvm.readNs));
}

TEST_F(PrefetchTest, RandomLoadsDoNotPrefetch)
{
    mem.stats().reset();
    (void)mem.read64(0, base);
    (void)mem.read64(0, base + 17 * kLineBytes);
    (void)mem.read64(0, base + 5 * kLineBytes);
    EXPECT_EQ(mem.stats().nvmDataReads, 3u)
        << "non-sequential misses must not speculate";
}

TEST_F(PrefetchTest, PrefetchStopsAtPageBoundary)
{
    mem.stats().reset();
    // Arm at the last two lines of a page.
    (void)mem.read64(0, base + (kLinesPerPage - 2) * kLineBytes);
    (void)mem.read64(0, base + (kLinesPerPage - 1) * kLineBytes);
    // Degree-4 prefetch would cross into the next page; it must not.
    EXPECT_EQ(mem.stats().nvmDataReads, 2u);
}

TEST_F(PrefetchTest, StoresDoNotTrainThePrefetcher)
{
    mem.stats().reset();
    mem.write64(0, base + kColdPage * kPageBytes, 1);
    mem.write64(0, base + kColdPage * kPageBytes + kLineBytes, 2);
    // Write-allocate fills only; no speculative reads.
    EXPECT_EQ(mem.stats().nvmDataReads, 2u);
}

TEST_F(PrefetchTest, DisabledByConfig)
{
    SimConfig cfg = test::smallConfig();
    cfg.prefetchDegree = 0;
    MemorySystem m2(cfg, DesignKind::Baseline);
    DaxFs fs2(m2);
    Addr b2 = fs2.daxMap(fs2.create("g", 16 * kPageBytes));
    m2.stats().reset();
    for (int i = 0; i < 8; i++)
        (void)m2.read64(0, b2 + static_cast<Addr>(i) * kLineBytes);
    EXPECT_EQ(m2.stats().nvmDataReads, 8u);
}

// The dump keys of TVARAK_STATS_COUNTERS, in table order.
constexpr const char *kCounterKeys[] = {
#define TVARAK_TEST_KEY(type, member, key) key,
    TVARAK_STATS_COUNTERS(TVARAK_TEST_KEY)
#undef TVARAK_TEST_KEY
};

/** Sets row i of the counter table to i + 1 (never zero). */
void
fillCounters(Stats &s)
{
    std::uint64_t v = 0;
#define TVARAK_TEST_SET(type, member, key) s.member = static_cast<type>(++v);
    TVARAK_STATS_COUNTERS(TVARAK_TEST_SET)
#undef TVARAK_TEST_SET
}

TEST(StatsDump, ContainsEveryFigureQuantity)
{
    Stats s(2, 4);
    fillCounters(s);
    std::ostringstream os;
    s.dump(os);
    std::string out = os.str();
    for (const char *key :
         {"runtime.cycles", "cache.l1.accesses", "cache.tvarak.accesses",
          "mem.nvm.data.reads", "mem.nvm.red.writes", "energy.total.pJ",
          "red.readVerifications", "red.recoveries"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }

    // Every table row prints exactly once, in table order, with its
    // own value; the key field is 26 columns wide with at least one
    // space. Only the derived runtime.* rows and energy.total.pJ are
    // not table rows.
    std::istringstream is(out);
    std::string line;
    std::size_t row = 0;
    while (std::getline(is, line)) {
        std::string key = line.substr(0, line.find(' '));
        std::size_t valueCol = line.find_first_not_of(' ', key.size());
        EXPECT_EQ(valueCol, std::max<std::size_t>(26, key.size() + 1))
            << line;
        if (key.rfind("runtime.", 0) == 0 || key == "energy.total.pJ")
            continue;
        ASSERT_LT(row, std::size(kCounterKeys)) << "extra row " << line;
        EXPECT_EQ(key, kCounterKeys[row]);
        EXPECT_EQ(line.substr(valueCol), std::to_string(row + 1)) << key;
        row++;
    }
    EXPECT_EQ(row, std::size(kCounterKeys));
}

TEST(StatsReset, ClearsEverything)
{
    Stats s(2, 4);
    s.threadCycles[1] = 5;
    s.dimmBusyCycles[2] = 9;
    fillCounters(s);
    s.reset();
    EXPECT_EQ(s.runtimeCycles(), 0u);
    EXPECT_DOUBLE_EQ(s.totalEnergy(), 0.0);
#define TVARAK_TEST_ZERO(type, member, key) \
    EXPECT_EQ(s.member, type{0}) << #member;
    TVARAK_STATS_COUNTERS(TVARAK_TEST_ZERO)
#undef TVARAK_TEST_ZERO
    EXPECT_EQ(s.threadCycles.size(), 2u) << "geometry preserved";
}

TEST(StatsDiff, NamesTheOneDifferingMember)
{
    Stats a(2, 4);
    fillCounters(a);
    EXPECT_EQ(statsDiff(a, a), "");
#define TVARAK_TEST_DIFF(type, member, key)           \
    {                                                 \
        Stats b = a;                                  \
        b.member += 1;                                \
        std::string d = statsDiff(a, b);              \
        EXPECT_EQ(d.rfind(#member ": ", 0), 0u) << d; \
    }
    TVARAK_STATS_COUNTERS(TVARAK_TEST_DIFF)
#undef TVARAK_TEST_DIFF
}

}  // namespace
}  // namespace tvarak
