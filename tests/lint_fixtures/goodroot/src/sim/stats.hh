#pragma once

// Fixture stats block: every row of the counter table is referenced
// from src/core/users.cc, so R11 stays quiet.
#define FIXTURE_STATS_COUNTERS(X)                   \
    X(unsigned long, accesses, "cache.l1.accesses") \
    X(unsigned long, misses, "cache.l1.misses")     \
    X(unsigned long, nvmReads, "mem.nvm.reads")

struct Stats {
#define FIXTURE_STATS_DECLARE(type, member, key) type member = 0;
    FIXTURE_STATS_COUNTERS(FIXTURE_STATS_DECLARE)
#undef FIXTURE_STATS_DECLARE
};
