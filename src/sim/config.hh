/**
 * @file
 * Simulation parameters.
 *
 * Defaults reproduce Table III of the TVARAK paper (ISCA 2020):
 * 12 Westmere-like cores at 2.27 GHz, 32 KB L1s, 256 KB L2s, a 24 MB
 * shared inclusive LLC in 12 x 2 MB 16-way banks, 6 DRAM DIMMs at 15 ns
 * and 4 NVM DIMMs at 60/150 ns read/write (Lee et al. PCM parameters),
 * and a TVARAK controller per LLC bank with a 4 KB on-controller cache,
 * 2 LLC ways reserved for redundancy caching and 1 way for data diffs.
 *
 * Every leaf of SimConfig is one row X(type, member, default, "unit",
 * "doc") of the tables below; the member declarations and defaults
 * are generated from the rows, and forEachKnob() walks them with
 * their dotted paths (`group.member`). Adding a knob
 * means adding one row: the trace header's config blob and
 * bench_table3's dump follow the walk.
 */

#pragma once

#include <cstddef>
#include <string>

#include "sim/types.hh"

/**
 * One cache level per table. The three tables name the same members
 * in the same order: CacheParams is declared from the L1 rows, and
 * SimConfig initializes each level from its own rows by designated
 * initializers, which reject a misspelled or reordered member.
 */
#define TVARAK_CONFIG_L1(X)                                                 \
    X(std::size_t, sizeBytes, 32 * 1024, "B", "private L1 per core")        \
    X(std::size_t, ways, 8, "ways", "L1 associativity")                     \
    X(Cycles, latency, 4, "cycles", "L1 latency, charged on a hit")         \
    X(PicoJoules, hitEnergy, 15.0, "pJ", "L1 energy per hit")               \
    X(PicoJoules, missEnergy, 33.0, "pJ",                                   \
      "L1 energy per miss (tag probe + fill)")

#define TVARAK_CONFIG_L2(X)                                                 \
    X(std::size_t, sizeBytes, 256 * 1024, "B", "private L2 per core")       \
    X(std::size_t, ways, 8, "ways", "L2 associativity")                     \
    X(Cycles, latency, 7, "cycles", "L2 latency, charged on a hit")         \
    X(PicoJoules, hitEnergy, 46.0, "pJ", "L2 energy per hit")               \
    X(PicoJoules, missEnergy, 94.0, "pJ",                                   \
      "L2 energy per miss (tag probe + fill)")

/** One bank of the shared inclusive LLC (paper: 12 banks of 2 MB). */
#define TVARAK_CONFIG_LLC_BANK(X)                                           \
    X(std::size_t, sizeBytes, 2 * 1024 * 1024, "B",                         \
      "one bank of the shared inclusive LLC")                               \
    X(std::size_t, ways, 16, "ways",                                        \
      "LLC associativity, TVARAK's reserved ways included")                 \
    X(Cycles, latency, 27, "cycles", "LLC latency, charged on a hit")       \
    X(PicoJoules, hitEnergy, 240.0, "pJ", "LLC energy per hit")             \
    X(PicoJoules, missEnergy, 500.0, "pJ",                                  \
      "LLC energy per miss (tag probe + fill)")

/** DRAM timing and energy. The paper gives 15 ns reads/writes but no
 *  DRAM energy, so 1.3 nJ per access is a documented assumption. */
#define TVARAK_CONFIG_DRAM(X)                                               \
    X(std::size_t, sizeBytes, 512ull << 20, "B", "DRAM capacity")           \
    X(double, accessNs, 15.0, "ns", "DRAM read/write latency")              \
    X(PicoJoules, accessEnergy, 1300.0, "pJ",                               \
      "energy per DRAM access (assumed; the paper quotes none)")

/**
 * The NVM array (Table III, from Lee et al. [37]; §IV-H varies it).
 * An access occupies its DIMM for a fraction of the device latency:
 * internal banking and write buffering let a DIMM overlap parts of
 * concurrent accesses (1.0 = fully serialized), and writes overlap
 * more. The stripe geometry (parity members per stripe, the k of an
 * n+k code) is set by Design::adjustConfig (tvarak-rs4+2 etc.), not
 * by hand. A domain fault takes out all of a domain's adjacent DIMMs
 * (a riser card or power rail); page striping places a stripe's
 * members on distinct DIMMs, so a domain loss costs at most that
 * many members, survivable iff the design's survivableFailures()
 * covers it.
 */
#define TVARAK_CONFIG_NVM(X)                                                \
    X(std::size_t, dimms, 4, "", "NVM DIMMs (8 in bench_sec4h_dimms)")      \
    X(std::size_t, dimmBytes, 512ull << 20, "B", "capacity per NVM DIMM")   \
    X(double, readNs, 60.0, "ns", "NVM read latency (PCM)")                 \
    X(double, writeNs, 150.0, "ns", "NVM write latency (PCM)")              \
    X(PicoJoules, readEnergy, 1600.0, "pJ", "energy per NVM read")          \
    X(PicoJoules, writeEnergy, 9000.0, "pJ", "energy per NVM write")        \
    X(double, occupancyReadFactor, 0.02, "",                                \
      "calibration: share of the read latency a read holds its DIMM")       \
    X(double, occupancyWriteFactor, 0.01, "",                               \
      "calibration: share of the write latency a write holds its DIMM")     \
    X(std::size_t, parityDimms, 1, "",                                      \
      "parity members per stripe (n+k's k), 1 = XOR; set by the design")    \
    X(std::size_t, dimmsPerDomain, 1, "",                                   \
      "adjacent DIMMs per failure domain; divides the DIMM count")

/** One TVARAK controller per LLC bank. The Fig 9 ablation points are
 *  registered designs (`--design tvarak-naive` etc.), not knobs. */
#define TVARAK_CONFIG_TVARAK(X)                                             \
    X(std::size_t, cacheBytes, 4096, "B",                                   \
      "on-controller redundancy cache per LLC bank")                        \
    X(std::size_t, cacheWays, 8, "ways",                                    \
      "on-controller cache associativity")                                  \
    X(Cycles, cacheLatency, 1, "cycles", "on-controller cache latency")     \
    X(PicoJoules, cacheHitEnergy, 15.0, "pJ",                               \
      "on-controller cache energy per hit")                                 \
    X(PicoJoules, cacheMissEnergy, 33.0, "pJ",                              \
      "on-controller cache energy per miss")                                \
    X(Cycles, rangeMatchLatency, 2, "cycles",                               \
      "DAX address-range matching (comparators)")                           \
    X(Cycles, computeLatency, 1, "cycles",                                  \
      "per checksum/parity computation or verification")                    \
    X(std::size_t, redundancyWays, 2, "ways",                               \
      "LLC ways reserved for caching redundancy")                           \
    X(std::size_t, diffWays, 1, "ways", "LLC ways reserved for data diffs")

/**
 * The whole machine, in declaration order: X rows are SimConfig's own
 * knobs, G(type, member, table) rows its parameter groups. Stores
 * retire through the store buffer of an OOO core, so beyond the issue
 * cycle only a fraction of a store miss lands on the critical path.
 * Sequential workloads hide fill and verification latency behind
 * next-line prefetches, which is why the paper sees near-zero TVARAK
 * overhead for sequential access.
 */
#define TVARAK_CONFIG(X, G)                                                 \
    X(std::size_t, cores, 12, "",                                           \
      "Westmere-like OOO cores, one thread each")                           \
    X(double, coreGhz, 2.27, "GHz", "core clock")                           \
    G(CacheParams, l1, TVARAK_CONFIG_L1)                                    \
    G(CacheParams, l2, TVARAK_CONFIG_L2)                                    \
    G(CacheParams, llcBank, TVARAK_CONFIG_LLC_BANK)                         \
    X(std::size_t, llcBanks, 12, "",                                        \
      "LLC banks, each with its TVARAK controller")                         \
    G(DramParams, dram, TVARAK_CONFIG_DRAM)                                 \
    G(NvmParams, nvm, TVARAK_CONFIG_NVM)                                    \
    G(TvarakParams, tvarak, TVARAK_CONFIG_TVARAK)                           \
    X(Cycles, storeIssueCycles, 1, "cycles",                                \
      "calibration: issue cost charged on every store")                     \
    X(double, storeMissLatencyFactor, 0.25, "",                             \
      "calibration: share of a store miss on the critical path")            \
    X(std::size_t, prefetchDegree, 4, "lines",                              \
      "calibration: next-line LLC prefetch on strided misses, 0 = off")     \
    X(double, swChecksumBytesPerCycle, 8.0, "B/cycle",                      \
      "calibration: software CRC rate of the TxB designs (SSE4.2)")

namespace tvarak {

/**
 * Which redundancy design a simulation runs. The enum is the stable
 * on-disk/serialization identity of a design; all behavioral dispatch
 * goes through the `Design` objects in redundancy/registry.hh, which
 * is the only translation unit allowed to switch over it (lint R8).
 */
enum class DesignKind {
    /** No redundancy maintenance at all. */
    Baseline,
    /** Hardware offload at the LLC banks (the paper's contribution). */
    Tvarak,
    /** Software object-granular checksums at transaction boundary
     *  (Pangolin-like). */
    TxBObjectCsums,
    /** Software page-granular checksums at transaction boundary
     *  (Mojim/HotPot-like). */
    TxBPageCsums,
    /** Software page-granular checksums batched over epochs
     *  (Vilamb, Kateja et al. 2020). */
    Vilamb,
};

/** Printable name of a design (implemented by the design registry). */
const char *designName(DesignKind kind);

// The groups declare their members without defaults; SimConfig
// initializes each group from its rows.
#define TVARAK_CONFIG_FIELD(type, member, def, unit, doc) type member;
#define TVARAK_CONFIG_INIT(type, member, def, unit, doc) .member = def,
#define TVARAK_CONFIG_DECLARE(type, member, def, unit, doc)                 \
    type member = def;
#define TVARAK_CONFIG_DECLARE_GROUP(type, member, table)                    \
    type member{table(TVARAK_CONFIG_INIT)};

/** Parameters of one cache level (L1, L2 or one LLC bank). */
struct CacheParams {
    TVARAK_CONFIG_L1(TVARAK_CONFIG_FIELD)
};

struct DramParams {
    TVARAK_CONFIG_DRAM(TVARAK_CONFIG_FIELD)
};

struct NvmParams {
    TVARAK_CONFIG_NVM(TVARAK_CONFIG_FIELD)
};

struct TvarakParams {
    TVARAK_CONFIG_TVARAK(TVARAK_CONFIG_FIELD)
};

/** Whole-machine configuration (defaults == Table III). */
struct SimConfig {
    TVARAK_CONFIG(TVARAK_CONFIG_DECLARE, TVARAK_CONFIG_DECLARE_GROUP)

    /** Convert nanoseconds to core cycles. */
    Cycles nsToCycles(double ns) const
    {
        return static_cast<Cycles>(ns * coreGhz + 0.5);
    }

    /** Sanity-check invariants (way counts, partition sizes, ...). */
    void validate() const;
};

#undef TVARAK_CONFIG_DECLARE_GROUP
#undef TVARAK_CONFIG_DECLARE
#undef TVARAK_CONFIG_INIT
#undef TVARAK_CONFIG_FIELD

// A designated initializer may leave a member out (it is zeroed), so
// count the rows of each cache level.
#define TVARAK_CONFIG_COUNT(...) +1
static_assert(0 TVARAK_CONFIG_L2(TVARAK_CONFIG_COUNT) ==
                      0 TVARAK_CONFIG_L1(TVARAK_CONFIG_COUNT) &&
                  0 TVARAK_CONFIG_LLC_BANK(TVARAK_CONFIG_COUNT) ==
                      0 TVARAK_CONFIG_L1(TVARAK_CONFIG_COUNT),
              "every cache level sets every CacheParams member");
#undef TVARAK_CONFIG_COUNT

/** What forEachKnob() tells about one knob besides its value. */
struct ConfigKnob {
    const char *group;  //!< "nvm", "l1", ...; "" for SimConfig's own
    const char *name;   //!< member name within its group
    const char *unit;   //!< "B", "ns", "pJ", ...; "" for a count/ratio
    const char *doc;    //!< one line

    /** Dotted path: `nvm.dimms`, or `cores` for SimConfig's own. */
    std::string path() const
    {
        return *group ? std::string(group) + "." + name : name;
    }
};

#define TVARAK_CONFIG_VISIT(type, member, def, unit, doc)                   \
    f(ConfigKnob{group, #member, unit, doc}, at.member);
#define TVARAK_CONFIG_VISIT_GROUP(type, member, table)                      \
    [&f](auto &at, const char *group) {                                     \
        table(TVARAK_CONFIG_VISIT)                                          \
    }(at.member, #member);

/**
 * Call `f(const ConfigKnob &, value &)` on every knob of @p cfg in
 * declaration order (a `std::size_t`/`Cycles` or a `double`; const
 * when @p cfg is).
 */
template <typename Config, typename F>
void
forEachKnob(Config &cfg, F &&f)
{
    [&f](auto &at, const char *group) {
        TVARAK_CONFIG(TVARAK_CONFIG_VISIT, TVARAK_CONFIG_VISIT_GROUP)
    }(cfg, "");
}

#undef TVARAK_CONFIG_VISIT_GROUP
#undef TVARAK_CONFIG_VISIT

}  // namespace tvarak
