/**
 * @file
 * Cache container tests: LRU, eviction, invalidation, flush walks,
 * and the reciprocal that set and bank indexing divide with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/cache.hh"
#include "sim/reciprocal.hh"
#include "sim/rng.hh"

namespace tvarak {
namespace {

// Line index probed by the insert/probe tests.
constexpr std::size_t kProbeLine = 8;

TEST(Cache, FromSizeGeometry)
{
    Cache c = Cache::fromSize("t", 64 * 1024, 16);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.ways(), 16u);
    EXPECT_EQ(c.sizeBytes(), 64u * 1024);
}

TEST(Cache, ProbeMissOnEmpty)
{
    Cache c("t", 4, 2);
    EXPECT_EQ(c.probe(0), nullptr);
}

TEST(Cache, InsertThenProbeHits)
{
    Cache c("t", 4, 2);
    Cache::Victim v;
    Cache::Line &line = c.insert(kLineBytes * kProbeLine, v);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.addrOf(line), kLineBytes * kProbeLine);
    EXPECT_EQ(c.probe(kLineBytes * kProbeLine), &line);
}

TEST(Cache, LruEvictionOrder)
{
    Cache c("t", 1, 2);  // one set, two ways
    Cache::Victim v;
    c.insert(0 * kLineBytes, v);
    c.insert(1 * kLineBytes, v);
    // Touch line 0 so line 1 is LRU.
    c.touch(*c.probe(0));
    c.insert(2 * kLineBytes, v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 1 * kLineBytes);
    EXPECT_NE(c.probe(0), nullptr);
    EXPECT_NE(c.probe(2 * kLineBytes), nullptr);
}

TEST(Cache, VictimCarriesStateAndData)
{
    Cache c("t", 1, 1, 1, true);
    Cache::Victim v;
    Cache::Line &line = c.insert(0, v);
    line.dirty = true;
    line.sharers = 0b101;
    c.dataOf(line)[7] = 0xab;
    c.insert(kLineBytes, v);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.sharers, 0b101u);
    EXPECT_EQ(v.data[7], 0xab);
}

TEST(Cache, TagOnlyCacheRejectsDataAccess)
{
    Cache c("t", 1, 1);
    Cache::Victim v;
    Cache::Line &line = c.insert(0, v);
    EXPECT_FALSE(c.carriesData());
    EXPECT_DEATH(c.dataOf(line), "tag-only");
}

TEST(Cache, DataSurvivesUnrelatedInserts)
{
    Cache c("t", 2, 2, 1, true);
    Cache::Victim v;
    Cache::Line &a = c.insert(0, v);
    c.dataOf(a)[0] = 0x5a;
    c.insert(kLineBytes, v);      // other set
    c.insert(2 * kLineBytes, v);  // same set as a, second way
    Cache::Line *line = c.probe(0);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(c.dataOf(*line)[0], 0x5a);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c("t", 4, 1);
    Cache::Victim v;
    // Same tag bits, different sets: no eviction among them.
    for (Addr s = 0; s < 4; s++)
        c.insert(s * kLineBytes, v);
    EXPECT_EQ(c.validLines(), 4u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c("t", 4, 2);
    Cache::Victim v;
    Cache::Line &line = c.insert(0, v);
    line.dirty = true;
    c.invalidate(0);
    EXPECT_EQ(c.probe(0), nullptr);
    // Idempotent.
    c.invalidate(0);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, ForEachVisitsOnlyValid)
{
    Cache c("t", 4, 2);
    Cache::Victim v;
    c.insert(0, v);
    c.insert(kLineBytes, v);
    c.invalidate(0);
    std::size_t n = 0;
    c.forEachLine([&](Cache::Line &) { n++; });
    EXPECT_EQ(n, 1u);
}

TEST(Cache, InsertPrefersInvalidWays)
{
    Cache c("t", 1, 4);
    Cache::Victim v;
    c.insert(0, v);
    c.insert(kLineBytes, v);
    c.invalidate(0);
    c.insert(2 * kLineBytes, v);
    EXPECT_FALSE(v.valid) << "free way must be used before eviction";
    EXPECT_NE(c.probe(kLineBytes), nullptr);
}

TEST(Cache, SetDivisorSpreadsBankInterleavedLines)
{
    // Regression test: a bank that receives every 12th line (bank =
    // line % 12) must strip the interleave factor before set indexing,
    // or — because gcd(12, sets) > 1 — only 1/4 of its sets are ever
    // used and the effective capacity collapses.
    constexpr std::size_t kBanks = 12;
    Cache with_divisor("good", 8, 1, kBanks);
    Cache without("bad", 8, 1, 1);
    // Feed both caches bank 0's line stream: lines 0, 12, 24, ...
    Cache::Victim v;
    std::size_t evictions_good = 0, evictions_bad = 0;
    for (Addr n = 0; n < 8; n++) {
        with_divisor.insert(n * kBanks * kLineBytes, v);
        evictions_good += v.valid ? 1 : 0;
        without.insert(n * kBanks * kLineBytes, v);
        evictions_bad += v.valid ? 1 : 0;
    }
    EXPECT_EQ(evictions_good, 0u)
        << "8 lines fit the 8 sets when the divisor strips the bank";
    EXPECT_EQ(with_divisor.validLines(), 8u);
    EXPECT_GT(evictions_bad, 0u)
        << "without the divisor the stream collides in a subset of sets";
}

TEST(Cache, LruVictimOrderAcrossManyWays)
{
    // Pin the exact victim sequence of a 4-way set so the single-walk
    // insert rewrite is locked in by behavior, not benchmarks.
    Cache c("t", 1, 4);
    Cache::Victim v;
    for (Addr n = 0; n < 4; n++)
        c.insert(n * kLineBytes, v);
    // Recency (old -> new): 0, 1, 2, 3. Touch everything but 2.
    c.touch(*c.probe(0));
    c.touch(*c.probe(1 * kLineBytes));
    c.touch(*c.probe(3 * kLineBytes));
    // Recency now: 2, 0, 1, 3 — victims must come out in that order
    // (each inserted line becomes MRU, so it is never the next victim).
    const Addr expect[] = {2 * kLineBytes, 0, 1 * kLineBytes,
                           3 * kLineBytes};
    for (std::size_t i = 0; i < 4; i++) {
        c.insert((4 + i) * kLineBytes, v);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.addr, expect[i]) << "victim " << i;
    }
}

TEST(Cache, ReinsertionAfterInvalidateResetsState)
{
    Cache c("t", 1, 2, 1, true);
    Cache::Victim v;
    Cache::Line &a = c.insert(0, v);
    c.insert(kLineBytes, v);
    a.dirty = true;
    a.sharers = 0b11;
    a.owner = 1;
    c.dataOf(a)[3] = 0x77;
    c.invalidate(0);
    // Re-insertion must take the freed way (no eviction) and come
    // back clean: no stale dirty/sharers/owner/payload.
    Cache::Line &b = c.insert(0, v);
    EXPECT_FALSE(v.valid) << "freed way must be reused, not evicted";
    EXPECT_FALSE(b.dirty);
    EXPECT_EQ(b.sharers, 0u);
    EXPECT_EQ(b.owner, -1);
    EXPECT_EQ(c.dataOf(b)[3], 0u);
    EXPECT_NE(c.probe(kLineBytes), nullptr);
    // And it is MRU again: the untouched neighbor is the next victim.
    c.insert(2 * kLineBytes, v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, kLineBytes);
}

/**
 * A way-by-way reference model of Cache, written for clarity alone:
 * set = (line number / divisor) mod sets; an insert takes the set's
 * first free way, else its least recently used one; a walk visits
 * sets ascending and ways ascending within a set.
 */
class CacheModel
{
  public:
    struct Way {
        bool valid = false;
        Addr addr = 0;
        std::uint64_t stamp = 0;
        bool dirty = false;
        std::uint32_t sharers = 0;
        std::int8_t owner = -1;
    };

    CacheModel(std::size_t sets, std::size_t ways, std::size_t divisor)
        : sets_(sets), ways_(ways), divisor_(divisor), way_(sets * ways)
    {}

    Way *find(Addr a)
    {
        for (std::size_t w = 0; w < ways_; w++) {
            Way &way = way_[setOf(a) * ways_ + w];
            if (way.valid && way.addr == a)
                return &way;
        }
        return nullptr;
    }

    void touch(Way &way) { way.stamp = ++clock_; }

    /** Insert @p a (absent); return what its way held before. */
    Way insert(Addr a)
    {
        Way *target = nullptr;
        for (std::size_t w = 0; w < ways_ && target == nullptr; w++) {
            if (!way_[setOf(a) * ways_ + w].valid)
                target = &way_[setOf(a) * ways_ + w];
        }
        for (std::size_t w = 0; w < ways_ && target == nullptr; w++) {
            Way &way = way_[setOf(a) * ways_ + w];
            bool oldest = true;
            for (std::size_t o = 0; o < ways_; o++) {
                oldest = oldest &&
                    way.stamp <= way_[setOf(a) * ways_ + o].stamp;
            }
            if (oldest)
                target = &way;
        }
        Way gone = *target;
        *target = Way{};
        target->valid = true;
        target->addr = a;
        touch(*target);
        return gone;
    }

    void invalidate(Addr a)
    {
        if (Way *way = find(a))
            *way = Way{};
    }

    void reset()
    {
        for (Way &way : way_)
            way = Way{};
    }

    std::size_t size() const
    {
        std::size_t n = 0;
        for (const Way &way : way_)
            n += way.valid ? 1 : 0;
        return n;
    }

    /** Valid addresses in walk order. */
    std::vector<Addr> walk() const
    {
        std::vector<Addr> out;
        for (const Way &way : way_) {
            if (way.valid)
                out.push_back(way.addr);
        }
        return out;
    }

  private:
    std::size_t setOf(Addr a) const
    {
        return static_cast<std::size_t>(lineNumber(a) / divisor_) % sets_;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::size_t divisor_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
};

/** Drive @p c and a CacheModel of its geometry through a random mix
 *  of hits, inserts (evicting once a set is full), state changes,
 *  invalidations by address and of probed lines, walks and resets
 *  over the addresses of @p pool; every probe's hit or miss, every
 *  victim, every walk's order and the valid count must agree. */
void
checkAgainstModel(Cache &c, std::size_t divisor,
                  const std::vector<Addr> &pool, std::uint64_t seed)
{
    CacheModel m(c.sets(), c.ways(), divisor);
    Rng rng(seed);
    for (int i = 0; i < 6000; i++) {
        Addr a = pool[rng.nextBounded(pool.size())];
        std::uint64_t op = rng.nextBounded(100);
        Cache::Line *line = c.probe(a);
        CacheModel::Way *want = m.find(a);
        ASSERT_EQ(line != nullptr, want != nullptr) << "probe, step " << i;
        if (op < 60) {
            if (line != nullptr) {
                c.touch(*line);
                m.touch(*want);
            } else {
                Cache::Victim v;
                line = &c.insert(a, v);
                CacheModel::Way gone = m.insert(a);
                want = m.find(a);
                ASSERT_EQ(v.valid, gone.valid) << "victim, step " << i;
                if (gone.valid) {
                    EXPECT_EQ(v.addr, gone.addr) << "step " << i;
                    EXPECT_EQ(v.dirty, gone.dirty) << "step " << i;
                    EXPECT_EQ(v.sharers, gone.sharers) << "step " << i;
                    EXPECT_EQ(v.owner, gone.owner) << "step " << i;
                }
            }
            // New state on half the visits, which victims carry out.
            if (rng.nextBool(0.5)) {
                line->dirty = want->dirty = rng.nextBool(0.5);
                line->sharers = want->sharers =
                    static_cast<std::uint32_t>(rng.next());
                line->owner = want->owner = static_cast<std::int8_t>(
                    static_cast<int>(rng.nextBounded(13)) - 1);
            }
        } else if (op < 78) {
            c.invalidate(a);
            m.invalidate(a);
        } else if (op < 96) {
            if (line != nullptr) {
                c.invalidate(*line);
                m.invalidate(a);
            }
        } else if (op < 99) {
            std::vector<Addr> seen;
            c.forEachLine(
                [&](Cache::Line &l) { seen.push_back(c.addrOf(l)); });
            ASSERT_EQ(seen, m.walk()) << "walk, step " << i;
        } else {
            c.reset();
            m.reset();
        }
        ASSERT_EQ(c.validLines(), m.size()) << "step " << i;
    }
    std::vector<Addr> seen;
    c.forEachLine([&](Cache::Line &l) { seen.push_back(c.addrOf(l)); });
    EXPECT_EQ(seen, m.walk());
}

TEST(Cache, ValidLinesMatchesBruteForceCount)
{
    // Unbanked: 64 lines over 4 sets of 4 ways.
    {
        Cache c("t", 4, 4);
        std::vector<Addr> pool;
        for (Addr n = 0; n < 64; n++)
            pool.push_back(n * kLineBytes);
        checkAgainstModel(c, 1, pool, 23);
    }
    // The TVARAK machine's LLC bank: 2048 sets of 13 data ways, each
    // bank receiving every 12th line. Bank 5's lines, 18 per set in
    // a few sets spread over the index range, so sets fill and evict.
    // Without the divisor, sets 1 and 513 (and 0 and 1536) would be
    // one set.
    {
        constexpr std::size_t kBanks = 12;
        constexpr std::size_t kSets = 2048;
        Cache c("llc", kSets, 13, kBanks);
        std::vector<Addr> pool;
        for (std::size_t set : {0, 1, 513, 1000, 1536, 2047}) {
            for (Addr k = 0; k < 18; k++)
                pool.push_back(
                    ((set + k * kSets) * kBanks + 5) * kLineBytes);
        }
        checkAgainstModel(c, kBanks, pool, 7);
    }
}

TEST(Cache, ForEachLineWalksInIndexOrder)
{
    // Flushes write back in forEachLine's order, so every flush's
    // Stats depend on it: sets ascending, ways ascending within a set,
    // each valid line once, whatever order the lines arrived in.
    constexpr std::size_t kSets = 8;
    Cache c("t", kSets, 4);
    Cache::Victim v;
    Rng rng(3);
    for (int i = 0; i < 40; i++) {
        Addr a = rng.nextBounded(96) * kLineBytes;
        if (c.probe(a) == nullptr)
            c.insert(a, v);
    }
    for (Addr n = 0; n < 96; n += 5)
        c.invalidate(n * kLineBytes);  // leave holes between lines
    std::vector<const Cache::Line *> seen;
    c.forEachLine([&](Cache::Line &line) { seen.push_back(&line); });
    ASSERT_EQ(seen.size(), c.validLines());
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end(),
                               std::less<const Cache::Line *>()));
    for (std::size_t i = 1; i < seen.size(); i++) {
        EXPECT_LE(lineNumber(c.addrOf(*seen[i - 1])) % kSets,
                  lineNumber(c.addrOf(*seen[i])) % kSets);
    }
}

TEST(Cache, ResetCacheReplaysLikeFreshCache)
{
    // A reset cache must choose the same victims as a fresh one under
    // the same insert/touch/invalidate sequence, whatever state the
    // reset dropped.
    auto drive = [](Cache &c, std::uint64_t seed) {
        std::vector<Addr> victims;
        Rng rng(seed);
        for (int i = 0; i < 3000; i++) {
            Addr a = rng.nextBounded(40) * kLineBytes;
            if (rng.nextBool(0.05)) {
                c.invalidate(a);
            } else if (Cache::Line *line = c.probe(a)) {
                c.touch(*line);
            } else {
                Cache::Victim v;
                c.insert(a, v);
                victims.push_back(v.valid ? v.addr : Cache::Line::kNoTag);
            }
        }
        return victims;
    };
    Cache fresh("fresh", 2, 4);
    Cache reused("reused", 2, 4);
    drive(reused, 99);
    reused.reset();
    EXPECT_EQ(reused.validLines(), 0u);
    EXPECT_EQ(drive(reused, 5), drive(fresh, 5));
}

TEST(Reciprocal, MatchesDivideAndModulo)
{
    constexpr std::uint64_t kTop = std::uint64_t{1}
        << Reciprocal::kNumeratorBits;
    Rng rng(58);
    for (std::uint64_t d = 1; d <= 64; d++) {
        Reciprocal r(d);
        ASSERT_EQ(r.divisor(), d);
        std::vector<std::uint64_t> ns = {0, d - 1, d, d + 1, kTop - 1};
        for (unsigned k = 1; k < Reciprocal::kNumeratorBits; k++) {
            ns.push_back((std::uint64_t{1} << k) - 1);
            ns.push_back((std::uint64_t{1} << k) + 1);
        }
        for (int i = 0; i < 2000; i++)
            ns.push_back(rng.nextBounded(kTop));
        for (std::uint64_t n : ns) {
            ASSERT_EQ(r.div(n), n / d) << n << " / " << d;
            ASSERT_EQ(r.mod(n), n % d) << n << " % " << d;
        }
    }
}

TEST(CacheDeathTest, DoubleInsertPanics)
{
    Cache c("t", 4, 2);
    Cache::Victim v;
    c.insert(0, v);
    EXPECT_DEATH(c.insert(0, v), "double insert");
}

TEST(CacheDeathTest, DoubleInsertPanicsPastFreeWays)
{
    // The duplicate check must scan the whole set, not stop at the
    // first free way the victim search would settle on.
    Cache c("t", 1, 4);
    Cache::Victim v;
    c.insert(0, v);
    c.insert(kLineBytes, v);
    c.invalidate(0);  // frees way 0; duplicate sits in way 1
    EXPECT_DEATH(c.insert(kLineBytes, v), "double insert");
}

TEST(CacheDeathTest, InvalidateOfInvalidLinePanics)
{
    // A second drop of the same probed line would corrupt the count.
    Cache c("t", 4, 2);
    Cache::Victim v;
    Cache::Line &line = c.insert(0, v);
    c.invalidate(line);
    EXPECT_DEATH(c.invalidate(line), "invalid line");
}

TEST(CacheDeathTest, UnalignedProbePanics)
{
    Cache c("t", 4, 2);
    EXPECT_DEATH(c.probe(3), "unaligned");
}

}  // namespace
}  // namespace tvarak
