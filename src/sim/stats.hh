/**
 * @file
 * Central statistics block.
 *
 * One Stats object is owned by the MemorySystem and shared (by
 * reference) with every component. Fields map directly onto the
 * quantities plotted in the paper's Figure 8: runtime (cycles), energy
 * (pJ, by component), NVM accesses split into data vs. redundancy, and
 * cache accesses split by level including the on-TVARAK cache.
 *
 * Every scalar counter is one row of TVARAK_STATS_COUNTERS; the member
 * declarations, reset(), dump() and statsDiff() are generated from
 * that table, so adding a counter means adding one row.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

/**
 * The scalar counter table: X(type, member, "dump.key"), one row per
 * counter, in dump() order. Stats::dump() prints the three derived
 * runtime.* rows before the table and energy.total.pJ right after
 * energy.tvarak.pJ.
 */
#define TVARAK_STATS_COUNTERS(X)                                            \
    /* Cache accesses (Fig 8, fourth column) */                             \
    X(std::uint64_t, l1Accesses, "cache.l1.accesses")                       \
    X(std::uint64_t, l1Misses, "cache.l1.misses")                           \
    X(std::uint64_t, l2Accesses, "cache.l2.accesses")                       \
    X(std::uint64_t, l2Misses, "cache.l2.misses")                           \
    X(std::uint64_t, llcAccesses, "cache.llc.accesses")                     \
    X(std::uint64_t, llcMisses, "cache.llc.misses")                         \
    X(std::uint64_t, tvarakCacheAccesses, "cache.tvarak.accesses")          \
    X(std::uint64_t, tvarakCacheMisses, "cache.tvarak.misses")              \
    /* Memory accesses (Fig 8, third column) */                             \
    X(std::uint64_t, dramReads, "mem.dram.reads")                           \
    X(std::uint64_t, dramWrites, "mem.dram.writes")                         \
    X(std::uint64_t, nvmDataReads, "mem.nvm.data.reads")                    \
    X(std::uint64_t, nvmDataWrites, "mem.nvm.data.writes")                  \
    /* checksum/parity/diff traffic */                                      \
    X(std::uint64_t, nvmRedundancyReads, "mem.nvm.red.reads")               \
    X(std::uint64_t, nvmRedundancyWrites, "mem.nvm.red.writes")             \
    /* subsets of it: checksum lines, parity lines */                       \
    X(std::uint64_t, nvmCsumLineAccesses, "mem.nvm.csumLine.accesses")      \
    X(std::uint64_t, nvmParityLineAccesses, "mem.nvm.parityLine.accesses")  \
    /* Energy (pJ, by component) */                                         \
    X(PicoJoules, l1Energy, "energy.l1.pJ")                                 \
    X(PicoJoules, l2Energy, "energy.l2.pJ")                                 \
    X(PicoJoules, llcEnergy, "energy.llc.pJ")                               \
    X(PicoJoules, dramEnergy, "energy.dram.pJ")                             \
    X(PicoJoules, nvmEnergy, "energy.nvm.pJ")                               \
    X(PicoJoules, tvarakEnergy, "energy.tvarak.pJ")                         \
    /* TVARAK / redundancy events */                                        \
    /* NVM->LLC reads verified */                                           \
    X(std::uint64_t, readVerifications, "red.readVerifications")            \
    /* LLC->NVM writebacks covered */                                       \
    X(std::uint64_t, redundancyUpdates, "red.redundancyUpdates")            \
    /* data diffs stored in the LLC, diff-partition evictions */            \
    X(std::uint64_t, diffCaptures, "red.diffCaptures")                      \
    X(std::uint64_t, diffEvictions, "red.diffEvictions")                    \
    /* MESI invalidations of controller-cache lines */                      \
    X(std::uint64_t, redundancyInvalidations, "red.invalidations")          \
    X(std::uint64_t, corruptionsDetected, "red.corruptionsDetected")        \
    /* lines/pages rebuilt from parity */                                   \
    X(std::uint64_t, recoveries, "red.recoveries")                          \
    /* Degraded mode / rebuild / scrub (whole-DIMM failure) */              \
    /* fills reconstructed via parity; ...with >= 2 DIMMs down */           \
    X(std::uint64_t, degradedReads, "red.degradedReads")                    \
    X(std::uint64_t, degradedReadsMulti, "red.degradedReadsMulti")          \
    /* writebacks to a dead DIMM; csum/parity updates skipped */            \
    X(std::uint64_t, degradedWritesDropped, "red.degradedWritesDropped")    \
    X(std::uint64_t, degradedRedSkips, "red.degradedRedSkips")              \
    /* lines restored by RebuildEngine; rebuilds aborted by a new fault */  \
    X(std::uint64_t, rebuildLines, "red.rebuildLines")                      \
    X(std::uint64_t, rebuildRestarts, "red.rebuildRestarts")                \
    /* lines verified / lines or pages fixed by the scrubber */             \
    X(std::uint64_t, scrubLines, "red.scrubLines")                          \
    X(std::uint64_t, scrubRepairs, "red.scrubRepairs")                      \
    /* Software-scheme events: bytes checksummed in sw, tx commits */       \
    X(std::uint64_t, swChecksumBytes, "sw.checksumBytes")                   \
    X(std::uint64_t, txCommits, "sw.txCommits")

namespace tvarak {

struct Stats {
    explicit Stats(std::size_t threads, std::size_t dimms)
        : threadCycles(threads, 0), dimmBusyCycles(dimms, 0)
    {}

    /** @name Runtime (fixed-work methodology) */
    /**@{*/
    std::vector<Cycles> threadCycles;     //!< demand-path cycles per thread
    std::vector<Cycles> dimmBusyCycles;   //!< occupancy per NVM DIMM
    /**@}*/

#define TVARAK_STATS_DECLARE(type, member, key) type member = 0;
    TVARAK_STATS_COUNTERS(TVARAK_STATS_DECLARE)
#undef TVARAK_STATS_DECLARE

    /** Sum of all per-component energies. */
    PicoJoules totalEnergy() const
    {
        return l1Energy + l2Energy + llcEnergy + dramEnergy + nvmEnergy +
            tvarakEnergy;
    }

    std::uint64_t nvmReads() const { return nvmDataReads + nvmRedundancyReads; }
    std::uint64_t nvmWrites() const
    {
        return nvmDataWrites + nvmRedundancyWrites;
    }
    std::uint64_t nvmAccesses() const { return nvmReads() + nvmWrites(); }
    std::uint64_t cacheAccesses() const
    {
        return l1Accesses + l2Accesses + llcAccesses + tvarakCacheAccesses;
    }

    /** Max over threads of demand cycles. */
    Cycles maxThreadCycles() const;
    /** Max over DIMMs of busy cycles. */
    Cycles maxDimmBusyCycles() const;
    /**
     * Reported runtime: fixed work finishes when the slowest thread
     * retires and the most-loaded DIMM drains (bandwidth bound).
     */
    Cycles runtimeCycles() const;

    /** Human-readable dump of every counter. */
    void dump(std::ostream &os) const;

    /** Zero every counter (thread/DIMM vectors keep their size). */
    void reset();
};

/**
 * Field-by-field comparison of two Stats blocks (exact, including
 * energies: bit-identical runs must produce bit-identical doubles).
 * @return empty string when equal, otherwise a one-line description
 *         of the first differing field with both values.
 */
std::string statsDiff(const Stats &a, const Stats &b);

}  // namespace tvarak

