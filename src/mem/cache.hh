/**
 * @file
 * A set-associative cache container with LRU replacement.
 *
 * Cache is a *container*, not an agent: hierarchy logic (fills,
 * writebacks, inclusion, coherence) lives in MemorySystem and
 * TvarakEngine.
 *
 * Payload storage is optional: the application-data caches are
 * tag-only (functional values live in MemorySystem's current-value
 * store), while TVARAK's redundancy caches carry real checksum/parity
 * bytes. Tags live in their own compact array so a way scan touches
 * two host cache lines instead of dragging payloads around — the
 * simulator's hottest loop.
 *
 * LLC way-partitions (paper Section III-D/E) are modelled as separate
 * Cache instances with the same set count and fewer ways, which is
 * exactly way-partitioning of one physical bank: the partitions share
 * nothing and are looked up independently, as the paper specifies
 * ("completely decoupled from the application data partitions").
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tvarak {

class Cache
{
  public:
    /** Per-line metadata (payload, if any, lives in a side array). */
    struct Line {
        static constexpr Addr kNoTag = ~Addr{0};

        Addr addr = kNoTag;       //!< full line address (tag+index)
        /** Presence bit per core (LLC) or per TVARAK controller
         *  (LLC redundancy partition, whose lines are the directory). */
        std::uint32_t sharers = 0;
        bool dirty = false;
        /** Controller holding a modified copy (partition lines). */
        std::int8_t owner = -1;

        bool valid() const { return addr != kNoTag; }
    };

    /** Outcome of an insertion that displaced a valid line. */
    struct Victim {
        bool valid = false;
        Addr addr = 0;
        bool dirty = false;
        std::uint32_t sharers = 0;
        std::int8_t owner = -1;
        std::array<std::uint8_t, kLineBytes> data{};
    };

    /**
     * @param name        for diagnostics.
     * @param sets        power-of-two set count.
     * @param ways        associativity.
     * @param setDivisor  line numbers are divided by this before set
     *                    indexing. Banked caches that receive every
     *                    setDivisor-th line (bank = line % banks) must
     *                    strip the interleave factor, or — whenever
     *                    gcd(banks, sets) > 1 — whole groups of sets
     *                    go unused.
     * @param carriesData allocate payload storage (redundancy caches);
     *                    tag-only otherwise.
     */
    Cache(std::string name, std::size_t sets, std::size_t ways,
          std::size_t setDivisor = 1, bool carriesData = false);

    /** Build from a size in bytes. */
    static Cache fromSize(std::string name, std::size_t bytes,
                          std::size_t ways, std::size_t setDivisor = 1,
                          bool carriesData = false);

    /** Find @p lineAddr; nullptr on miss. Does not update LRU. */
    Line *probe(Addr lineAddr);
    const Line *probe(Addr lineAddr) const;

    /** Mark @p line most recently used. */
    void touch(Line &line) { stamps_[indexOf(line)] = ++stamp_; }

    /**
     * Insert @p lineAddr (must not be present), evicting the LRU line
     * of the set if full.
     * @return reference to the inserted line (payload zeroed, clean).
     */
    Line &insert(Addr lineAddr, Victim &victim);

    /** Drop @p lineAddr if present (no writeback). */
    void invalidate(Addr lineAddr);
    /** Drop @p line, which the caller probed (no writeback). */
    void invalidate(Line &line);

    /** Payload bytes of @p line. @pre carriesData. */
    std::uint8_t *dataOf(Line &line);
    const std::uint8_t *dataOf(const Line &line) const;

    /** Apply @p fn to every valid line in index order (flush walks),
     *  reading the dense tag mirror; free on an empty cache. Template
     *  so the visitor inlines — no std::function indirection. */
    template <typename Fn>
    void forEachLine(Fn &&fn)
    {
        if (valid_ == 0)
            return;
        for (std::size_t i = 0; i < tags_.size(); i++) {
            if (tags_[i] != Line::kNoTag)
                fn(lines_[i]);
        }
    }

    /** Drop every line; costs nothing on an empty cache. */
    void reset();

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t sizeBytes() const { return sets_ * ways_ * kLineBytes; }
    bool carriesData() const { return !data_.empty(); }
    const std::string &name() const { return name_; }

    /** Count of currently valid lines. */
    std::size_t validLines() const { return valid_; }

  private:
    std::size_t setOf(Addr lineAddr) const
    {
        auto n = lineNumber(lineAddr) / setDivisor_;
        return static_cast<std::size_t>(n) & (sets_ - 1);
    }
    std::size_t indexOf(const Line &line) const
    {
        return static_cast<std::size_t>(&line - lines_.data());
    }

    std::string name_;
    std::size_t sets_;
    std::size_t ways_;
    std::size_t setDivisor_;
    std::uint64_t stamp_ = 0;
    std::size_t valid_ = 0;  //!< count of valid lines
    /** Compact tag mirror of lines_[i].addr: the probe scan array. */
    std::vector<Addr> tags_;
    /** Compact LRU stamps, parallel to tags_: the insert() victim
     *  scan reads only these two dense arrays instead of dragging
     *  each way's full Line struct through the host cache. */
    std::vector<std::uint64_t> stamps_;
    std::vector<Line> lines_;
    /** Payloads, parallel to lines_ (empty when tag-only). */
    std::vector<std::array<std::uint8_t, kLineBytes>> data_;
};

}  // namespace tvarak

