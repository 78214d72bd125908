// Seeded violations: nondeterminism on a stats-feeding path (R10) —
// this file's include closure reaches sim/stats.hh — plus the
// counter references the stats-dataflow rule (R11) checks against
// the fixture counter table in src/sim/stats.hh.
#include <cstdlib>
#include <unordered_set>

#include "sim/stats.hh"

void
touchCounters(Stats &s)
{
    s.hits++;
    s.misses++;
}

unsigned long
badSeed()
{
    return std::rand();
}

unsigned long
allowedSeed()
{
    return std::rand();  // lint:allow(R10) suppression must hold
}

unsigned long
sumUnordered(const std::unordered_set<unsigned long> &work)
{
    unsigned long sum = 0;
    for (unsigned long v : work)
        sum += v;
    return sum;
}
