/**
 * @file
 * The TVARAK redundancy engine (paper Section III).
 *
 * One TVARAK controller sits at each LLC bank. The engine bundles the
 * per-bank controller state and the shared structures:
 *
 *  - a DAX page registry (the software-managed part: DaxFs registers
 *    pages at dax-map time; the hardware's address-range comparators
 *    are modelled by a 2-cycle range-match charge);
 *  - per-bank 4 KB on-controller redundancy caches, kept coherent
 *    between controllers with a MESI-style directory and backed
 *    inclusively by per-bank LLC redundancy way-partitions; each
 *    line's directory entry (sharer mask, owner) lives in its home
 *    partition line;
 *  - per-bank LLC data-diff way-partitions;
 *  - the verification engine (every NVM->LLC fill of a DAX line) and
 *    the update engine (every LLC->NVM writeback of a DAX line);
 *  - line recovery from cross-DIMM parity on checksum mismatch.
 *
 * The design's Coverage fixes the Fig 9 ladder when the engine is
 * built: page checksums instead of DAX-CL checksums, and redundancy
 * caching or data diffs turned off. A rung that is off builds no
 * cache or partition for it. With all three rungs down this
 * is the naive controller of Section III (page-granular checksums
 * that read the whole page, no redundancy caching, old-data reads
 * instead of diffs).
 *
 * Timing contract: fill verification overlaps data delivery
 * (Section III-E) and charges the loading thread nothing; update
 * work happens at writeback time, off the critical path. Both
 * contribute NVM occupancy and energy only. Verifying a degraded
 * read's reconstruction is on the demand path: its cycles are
 * returned to the caller.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "checksum/gf256.hh"
#include "layout/layout.hh"
#include "mem/cache.hh"
#include "nvm/nvm.hh"
#include "redundancy/registry.hh"
#include "sim/config.hh"
#include "sim/reciprocal.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tvarak {

class TvarakEngine
{
  public:
    /** @p code is the machine's stripe code (MemorySystem builds it
     *  with the layout); the engine keeps a reference. */
    TvarakEngine(const SimConfig &cfg, const Coverage &coverage,
                 Layout &layout, const RsCode &code, NvmArray &nvm,
                 Stats &stats);

    /** @name Software management interface (used by DaxFs). */
    /**@{*/
    /** Register @p nvmPage (global, page-aligned) as DAX mapped.
     *  Ignored unless the design's controller keeps the parity: the
     *  engine acts on no line of any other design. */
    void registerDaxPage(Addr nvmPage);
    /** Unregister; caller must have flushed + downgraded checksums. */
    void unregisterDaxPage(Addr nvmPage);
    /** Is this NVM-global address inside a registered DAX page? The
     *  one per-line gate: true iff the controller keeps the line's
     *  redundancy in the at-rest (media) world. */
    bool isDaxData(Addr nvmAddr) const
    {
        return layout_.isDataAddr(nvmAddr) &&
            daxPages_[pageNumber(nvmAddr - layout_.dataBase())];
    }
    /**@}*/

    /** @name Called by MemorySystem at the LLC/NVM boundary, each
     *  (bar dropDiff) only for lines that isDaxData() admits. */
    /**@{*/
    /**
     * A DAX line was just read from NVM into the LLC: verify it
     * against its DAX-CL-checksum (or page checksum in naive mode).
     * On mismatch the line is recovered in place (both @p lineData and
     * the NVM media are repaired).
     *
     * @param bank      LLC bank of the data line (= controller index).
     * @param nvmAddr   NVM-global line address.
     * @param lineData  the 64 B just fetched; repaired on corruption.
     */
    void verifyFill(std::size_t bank, Addr nvmAddr,
                    std::uint8_t *lineData);

    /**
     * A DAX line in the LLC transitioned clean->dirty or received new
     * dirty data: capture/refresh its diff in the bank's diff
     * partition (paper Section III-D). No-op without data diffs.
     *
     * The diff's *value* is always (media XOR current-line), which the
     * engine reconstructs at writeback time; the partition models the
     * capacity/eviction behaviour. If inserting the diff evicts
     * another line's diff, that line must be written back and marked
     * clean by the caller (paper: "writes back the corresponding data
     * without evicting it from the LLC"); its address is returned.
     */
    std::optional<Addr> captureDiff(std::size_t bank, Addr nvmAddr);

    /**
     * A dirty DAX line is being written back from the LLC to NVM:
     * update its DAX-CL-checksum (or page checksum) and the
     * cross-DIMM parity. The caller writes @p newData to NVM
     * immediately afterwards. @p forcedByDiffEviction: captureDiff()
     * evicted this line's diff and handed it over, so the diff costs
     * nothing more; otherwise it comes from the diff partition, or
     * without a stored diff the old data is re-read from NVM.
     */
    void updateRedundancy(std::size_t bank, Addr nvmAddr,
                          const std::uint8_t *newData,
                          bool forcedByDiffEviction);

    /** Drop any stored diff for @p nvmAddr (line evicted/invalidated). */
    void dropDiff(std::size_t bank, Addr nvmAddr)
    {
        if (dataDiffs_)
            diffPartitions_[bank].invalidate(nvmAddr);
    }
    /**@}*/

    /**
     * Rebuild one line from parity + stripe siblings (paper: the file
     * system initiates recovery; the heavy lifting is here). Media is
     * repaired in place.
     *
     * @param verifyChecksum  check the rebuilt line against its
     *        DAX-CL-checksum (disabled by DaxFs for unmapped pages,
     *        whose cache-line checksums are not maintained).
     * @return the corrected 64 B.
     */
    std::array<std::uint8_t, kLineBytes> recoverLine(
        Addr nvmAddr, bool verifyChecksum = true);

    /** @name Whole-DIMM failure support */
    /**@{*/
    /**
     * Reconstruct the at-rest content of line @p nvmAddr, a data or a
     * parity member, from the rest of its stripe row
     * (recoverStripeLine): data members at rest on media, parity
     * through the coherent redundancy caches. Under single parity
     * this is the RAID-5 degraded read. Untimed.
     * @return false iff more members are lost than the code can
     *         tolerate; @p out is then poison (detectable loss).
     */
    bool reconstructFromParity(Addr nvmAddr, std::uint8_t *out);
    /**
     * Drop every cached redundancy line whose home is @p dimm: the
     * backing storage is gone and the rebuild engine will recompute
     * checksums and parity from data, so cached copies — dirty ones
     * included — are dead weight that writebacks could not land anyway.
     */
    void invalidateRedLinesOfDimm(std::size_t dimm);
    /**
     * True iff @p nvmAddr's fill verification cannot run because the
     * checksum storage it needs is itself degraded (checksum metadata
     * is not parity protected). Callers skip and count the skip.
     */
    bool verificationBlocked(Addr nvmAddr) const;
    /**
     * Checksum-verify a line that was served by reconstruction
     * (degraded read). Detection only: on mismatch the line is counted
     * and poisoned — there is no second redundancy copy to recover
     * from while the DIMM is down.
     * @return demand-path cycles.
     */
    Cycles verifyReconstructed(std::size_t bank, Addr nvmAddr,
                               std::uint8_t *lineData);
    /**@}*/

    /** Write back all dirty redundancy state (battery-flush / unmap). */
    void flushRedundancy();

    /** Drop all (clean) cached redundancy state and stored diffs.
     *  @pre flushRedundancy() has run; panics on dirty state. Used to
     *  model a cold restart in tests and experiments. */
    void dropCleanState();

    /** Initialize the DAX-CL-checksums for a page from its current
     *  media content (checksum "downgrade" at dax-map time; untimed,
     *  performed by software per the paper). */
    void initDaxClChecksums(Addr nvmPage);

    /** Zero a page's DAX-CL-checksum slots (dax-unmap time: coverage
     *  moved back to the page-granular checksum, so the slots return
     *  to their never-mapped state). */
    void clearDaxClChecksums(Addr nvmPage);

    /** Authoritative (cache-coherent) read of a redundancy line,
     *  untimed; used by scrub/verification utilities. */
    void peekRedLine(Addr raddr, std::uint8_t *out);

    /** Dedicated SRAM bytes per controller (area accounting). */
    std::size_t dedicatedBytesPerController() const;
    /** Those bytes as a share of the controller's LLC bank. */
    double dedicatedAreaShare() const;

  private:
    /** Home LLC bank of a redundancy line. */
    std::size_t homeBank(Addr raddr) const;

    /**
     * Access one redundancy line through the caching hierarchy
     * (on-controller cache -> LLC partition -> NVM), or straight to
     * NVM without redundancy caching.
     *
     * @param ctrl    controller performing the access.
     * @param raddr   redundancy line address (checksum/parity line).
     * @param write   if true @p buf is stored, else loaded.
     * @param demand  if true, returned cycles model the demand path.
     * @return demand-path cycles (0 when @p demand is false).
     */
    Cycles redLineAccess(std::size_t ctrl, Addr raddr, bool write,
                         std::uint8_t *buf, bool demand);

    /** Tally an NVM redundancy access as checksum- or parity-line. */
    void classifyRedNvmAccess(Addr raddr);

    /** Uncached variant (no redundancy caching). */
    Cycles redLineAccessUncached(Addr raddr, bool write, std::uint8_t *buf,
                                 bool demand);

    /** @p raddr's line in its home LLC partition, which inclusion
     *  guarantees while any controller holds it. */
    Cache::Line &homeLine(Addr raddr);
    /** Payload of @p home, @p raddr's line in its home partition. */
    std::uint8_t *homeData(Addr raddr, Cache::Line &home)
    {
        return llcRedPartitions_[homeBank(raddr)].dataOf(home);
    }
    /** Drop @p raddr from its home partition and every controller
     *  sharing it (no writeback). */
    void dropRedLine(Addr raddr);

    /** Evict handling for controller-cache and LLC-partition victims. */
    void handleCtrlVictim(std::size_t ctrl, const Cache::Victim &victim);
    void handleLlcRedVictim(const Cache::Victim &victim);

    /** MESI bookkeeping: make @p ctrl the exclusive owner of @p home,
     *  @p raddr's home line. */
    void invalidateOtherSharers(std::size_t ctrl, Addr raddr,
                                Cache::Line &home);
    /** Pull a dirty copy (if any) of @p raddr down to @p home, its
     *  line in the LLC partition. */
    void recallOwner(Addr raddr, Cache::Line &home, std::size_t exceptCtrl);

    /** Store @p slots as @p nvmPage's DAX-CL slots (untimed). */
    void writeDaxClSlots(Addr nvmPage, const std::uint8_t *slots);

    /** Compute + store the page-granular checksum (naive mode). */
    void naivePageChecksumUpdate(std::size_t bank, Addr nvmAddr,
                                 const std::uint8_t *newData);
    /** True iff @p lineData matches its page checksum (naive mode). */
    bool naivePageChecksumVerify(std::size_t bank, Addr nvmAddr,
                                 const std::uint8_t *lineData);

    /** Read the current at-rest page content with @p nvmAddr's line
     *  replaced by @p newData, charging @p chargeAccesses NVM reads. */
    std::uint64_t pageChecksumWith(Addr nvmAddr,
                                   const std::uint8_t *newData,
                                   bool chargeAccesses);

    const SimConfig &cfg_;
    TvarakParams params_;
    /** The design's controller keeps the parity (DAX registry on). */
    const bool keepsParity_;
    /** The Fig 9 ladder, fixed by the design's Coverage. */
    const bool daxClChecksums_;
    const bool redundancyCaching_;
    const bool dataDiffs_;
    Layout &layout_;
    const RsCode &code_;
    NvmArray &nvm_;
    Stats &stats_;
    /** LLC banks, one controller each: the home-bank interleave. */
    Reciprocal banks_;

    /** DAX registry: bit per data-region page. */
    std::vector<bool> daxPages_;

    /** Per-controller on-controller redundancy caches (empty without
     *  redundancy caching). */
    std::vector<Cache> ctrlCaches_;
    /** Per-bank LLC redundancy way-partitions; each line's sharers
     *  and owner are the controller caches' directory entry (empty
     *  without redundancy caching). */
    std::vector<Cache> llcRedPartitions_;
    /** Per-bank LLC data-diff way-partitions (empty without data
     *  diffs). */
    std::vector<Cache> diffPartitions_;
};

}  // namespace tvarak

