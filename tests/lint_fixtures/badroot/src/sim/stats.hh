#pragma once

// Fixture stats block, declared from a counter table like the real
// one. `stale` is the seeded R11 violation: nothing in src/ outside
// sim/stats.* references it, so it can only ever print 0.
#define FIXTURE_STATS_COUNTERS(X)               \
    X(unsigned long, hits, "cache.l1.hits")     \
    X(unsigned long, misses, "cache.l1.misses") \
    X(unsigned long, stale, "cache.l1.stale")

struct Stats {
#define FIXTURE_STATS_DECLARE(type, member, key) type member = 0;
    FIXTURE_STATS_COUNTERS(FIXTURE_STATS_DECLARE)
#undef FIXTURE_STATS_DECLARE
};
