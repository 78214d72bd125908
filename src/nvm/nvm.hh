/**
 * @file
 * NVM DIMMs with a firmware model.
 *
 * Each NvmDimm holds a real byte array (the media), a per-line
 * device-level ECC that the firmware reads/writes *as an atom with the
 * data* (Section II-A of the paper), and a single-shot firmware bug
 * injection mechanism covering the paper's fault model:
 *
 *  - lost write:        the firmware acks a write without updating the
 *                       media (data AND ECC keep their old, mutually
 *                       consistent values);
 *  - misdirected write: the data (with freshly computed ECC) lands at
 *                       the wrong media line, corrupting it;
 *  - misdirected read:  the data and ECC of the wrong media line are
 *                       returned.
 *
 * In all three cases the ECC verifies clean, which is exactly why
 * system-checksums above the firmware are needed. Random bit flips
 * (which ECC *does* catch) can also be injected for contrast.
 *
 * NvmArray bundles the DIMMs with the Table III timing/energy model and
 * the per-DIMM bandwidth-occupancy accounting.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/hostmem.hh"
#include "sim/page_bitmap.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tvarak {

/** One NVM DIMM: media array + firmware with injectable bugs. */
class NvmDimm
{
  public:
    explicit NvmDimm(std::size_t bytes);

    /** @name Firmware path (used by the memory system). Line granular.
     *  Addresses are media-local and line aligned. */
    /**@{*/
    void firmwareRead(Addr mediaAddr, void *buf);
    void firmwareWrite(Addr mediaAddr, const void *buf);
    /**@}*/

    /** @name Raw media access (recovery, scrubbing, tests).
     *  Bypasses the firmware, so injected bugs do not trigger. */
    /**@{*/
    void rawRead(Addr mediaAddr, void *buf, std::size_t len) const;
    void rawWrite(Addr mediaAddr, const void *buf, std::size_t len);

    /** Host-side prefetch for a coming rawRead/firmwareRead of
     *  @p mediaAddr: the media arrays are far larger than the host
     *  caches, so the hot paths start the miss early. Functionally a
     *  no-op.
     *
     *  Implemented as a real (discarded) load, not __builtin_prefetch:
     *  x86 drops software prefetches whose address misses the TLB, and
     *  with the media far bigger than the 4K-page TLB reach that is
     *  the common case here. A demand load walks the page table and
     *  warms both the TLB and the cache; its result is unused, so
     *  out-of-order execution hides the miss behind the caller's
     *  remaining work. */
    void prefetch(Addr mediaAddr) const
    {
        // Both host lines a (possibly unaligned) 64B span can touch.
        if (!failed_ && mediaAddr + kLineBytes <= media_.size()) {
            const std::uint8_t *p = media_.data() + mediaAddr;
            std::uint8_t a = p[0];
            std::uint8_t b = p[kLineBytes - 1];
            asm volatile("" : : "r"(a), "r"(b));
        }
    }
    /**@}*/

    /**
     * Device-level ECC check of one media line.
     * @return true iff the stored ECC matches the stored data. Firmware
     * bugs never make this fail; injected bit flips do.
     */
    bool eccCheck(Addr mediaAddr) const;

    /** @name Single-shot firmware bug injection */
    /**@{*/
    /** The next firmwareWrite to @p mediaAddr is acked but dropped. */
    void injectLostWrite(Addr mediaAddr);
    /** The next firmwareWrite to @p intended lands at @p actual. */
    void injectMisdirectedWrite(Addr intended, Addr actual);
    /** The next firmwareRead of @p intended returns @p actual's line. */
    void injectMisdirectedRead(Addr intended, Addr actual);
    /** Flip one media bit *without* updating ECC (a media error). */
    void injectBitFlip(Addr mediaAddr, unsigned bit);
    /** Drop all injected-but-untriggered bugs. */
    void clearInjectedBugs();
    /**@}*/

    /** @name Whole-device failure lifecycle
     *  fail() models the DIMM dying: the media content is gone, and
     *  the device releases its host memory. Pending injected bugs are
     *  dropped, and firmware accesses panic — the memory system must
     *  route around a failed device. Until replace(), every media line
     *  reads as kPoisonByte, so a read that should have been
     *  reconstructed returns loud garbage (downstream checksum checks
     *  turn it into a *detected* loss): rawRead() returns poison, and
     *  eccCheck() fails as it does for any poison line. rawWrite(),
     *  injectBitFlip() and prefetch() do nothing. replace() installs a fresh, zeroed
     *  device in the slot; it costs host memory only as lines are
     *  written. */
    /**@{*/
    void fail();
    void replace();
    bool failed() const { return failed_; }
    /** The byte a failed device's media reads as. */
    static constexpr std::uint8_t kPoisonByte = 0xDB;
    /**@}*/

    std::size_t bytes() const { return media_.size(); }
    /** Number of firmware bugs that have fired so far. */
    std::uint64_t bugsTriggered() const { return bugsTriggered_; }

    /** @name Changed media pages
     *  Every path that changes the bytes a media read returns marks
     *  their page: firmware writes whose bytes differ from the line
     *  they land on (so a misdirected write marks its target, and a
     *  lost write or a rewrite of equal bytes marks nothing), raw
     *  writes, bit flips, and fail()/replace() (the whole device). The
     *  memory system drains the set at each cold restart (NvmArray::
     *  drainChangedPages). */
    /**@{*/
    const PageBitmap &changedPages() const { return changed_; }
    void clearChangedPages() { changed_.clear(); }
    /**@}*/

  private:
    enum class BugKind { LostWrite, MisdirectedWrite, MisdirectedRead };
    struct Bug {
        BugKind kind;
        Addr actual;  //!< redirect target for misdirected bugs
    };

    void checkAddr(Addr mediaAddr, std::size_t len) const;
    std::uint8_t computeEcc(Addr lineAddr) const;

    HostBuffer media_;  //!< huge-page backed: hot random line reads
    std::vector<std::uint8_t> ecc_;  //!< one byte per line, inline model
    PageBitmap changed_;  //!< media pages changed since last drained
    std::unordered_map<Addr, Bug> writeBugs_;
    std::unordered_map<Addr, Bug> readBugs_;
    std::uint64_t bugsTriggered_ = 0;
    bool failed_ = false;
};

/** The set of NVM DIMMs plus timing/energy/bandwidth accounting. */
class NvmArray
{
  public:
    NvmArray(const NvmParams &params, const SimConfig &cfg, Stats &stats);

    /**
     * Perform one line-granular access through the firmware.
     *
     * @param globalAddr  NVM-global physical address (line aligned).
     * @param isWrite     direction.
     * @param buf         destination (read) or source (write).
     * @param redundancy  true if this access carries checksum/parity
     *                    traffic (for the Fig 8 NVM-access split).
     * @return device latency in core cycles (for demand-path charging).
     */
    Cycles access(Addr globalAddr, bool isWrite, void *buf,
                  bool redundancy);

    /**
     * Account for one line access (energy, occupancy, counters)
     * without moving data — used when the functional bytes are
     * transferred separately via rawRead/rawWrite but the access is
     * architecturally real (e.g. whole-page reads in the naive
     * page-checksum mode).
     */
    Cycles charge(Addr globalAddr, bool isWrite, bool redundancy);

    /** Map an NVM-global address to its DIMM index (page striping). */
    std::size_t dimmOf(Addr globalAddr) const;
    /** Map an NVM-global address to its media-local address. */
    Addr mediaAddrOf(Addr globalAddr) const;
    /** Inverse mapping: NVM-global address of (@p dimm, @p mediaAddr). */
    Addr globalAddrOf(std::size_t dimm, Addr mediaAddr) const;

    /** @name Whole-DIMM failure & rebuild state
     *  The array tracks one lifecycle per DIMM:
     *  Healthy -> (failDimm) Failed -> (replaceDimm) Rebuilding ->
     *  (finishRebuild) Healthy. While Rebuilding, a watermark over the
     *  device's media addresses separates restored content (below)
     *  from not-yet-rebuilt content (above): reads of the latter must
     *  still be reconstructed from parity. Any number of simultaneous
     *  device faults is modelled — including failing a DIMM that is
     *  mid-rebuild (its partial content is lost and the watermark
     *  resets); whether the loss is recoverable is decided by the
     *  active redundancy code (k-of-n survivability), not here. */
    /**@{*/
    enum class DimmState { Healthy, Failed, Rebuilding };
    /** Take a DIMM offline; its media content is lost. Failing a
     *  Rebuilding DIMM discards the partial rebuild. */
    void failDimm(std::size_t dimm);
    /** Swap in a fresh zeroed device; rebuild starts at watermark 0. */
    void replaceDimm(std::size_t dimm);
    /** Advance the rebuild watermark (line-aligned media address). */
    void setRebuildWatermark(std::size_t dimm, Addr mediaAddr);
    /** Rebuild complete: the DIMM is Healthy again. */
    void finishRebuild(std::size_t dimm);
    DimmState dimmState(std::size_t dimm) const { return state_[dimm]; }
    Addr rebuildWatermark(std::size_t dimm) const
    {
        return watermark_[dimm];
    }
    /** Fast path check: is any DIMM not Healthy? */
    bool anyDegraded() const { return degradedDimms_ != 0; }
    /** Number of DIMMs not in the Healthy state. */
    std::size_t degradedCount() const { return degradedDimms_; }
    /** Number of DIMMs in the Failed state (no replacement yet). */
    std::size_t failedCount() const
    {
        std::size_t n = 0;
        for (DimmState s : state_)
            n += s == DimmState::Failed ? 1 : 0;
        return n;
    }
    /**
     * Read-side degradation: true iff a firmware read of this line
     * cannot return its content (device Failed, or Rebuilding and the
     * line is above the watermark) and it must be reconstructed.
     */
    bool lineDegraded(Addr globalAddr) const
    {
        if (degradedDimms_ == 0)
            return false;
        return lineDegradedSlow(globalAddr);
    }
    /** Write-side: true iff a write to this line must be dropped
     *  (device Failed; a Rebuilding device accepts writes). */
    bool writeBlocked(Addr globalAddr) const
    {
        return degradedDimms_ != 0 &&
            state_[dimmOf(globalAddr)] == DimmState::Failed;
    }
    /**@}*/

    NvmDimm &dimm(std::size_t i) { return *dimms_[i]; }
    const NvmDimm &dimm(std::size_t i) const { return *dimms_[i]; }
    std::size_t numDimms() const { return dimms_.size(); }
    std::size_t totalBytes() const { return params_.dimmBytes * dimms_.size(); }

    /** Mark in @p globalPages (over the global address space) every
     *  page some DIMM changed since the last drain, then clear the
     *  DIMMs' sets. */
    void drainChangedPages(PageBitmap &globalPages);

    /** Raw (bug-free, untimed) helpers addressed globally. */
    void rawRead(Addr globalAddr, void *buf, std::size_t len) const;
    void rawWrite(Addr globalAddr, const void *buf, std::size_t len);
    /** Host-side prefetch hint for the media backing @p globalAddr —
     *  purely a simulator-speed aid, no simulated timing or data
     *  effect. Issue it a little before the matching rawRead. */
    void prefetchRaw(Addr globalAddr) const
    {
        dimms_[dimmOf(globalAddr)]->prefetch(mediaAddrOf(globalAddr));
    }

    /** @name Image checkpointing
     *  Persist/restore the at-rest media (simulating NVM durability
     *  across simulator restarts). Only flushed state survives —
     *  exactly the semantics of real NVM across a power cycle. */
    /**@{*/
    /** Write all DIMM media to @p path. @return success. */
    bool saveImage(const std::string &path) const;
    /** Load DIMM media from @p path (geometry must match). */
    bool loadImage(const std::string &path);
    /**@}*/

    Cycles readLatency() const { return readCycles_; }
    Cycles writeLatency() const { return writeCycles_; }

  private:
    bool lineDegradedSlow(Addr globalAddr) const;

    NvmParams params_;
    Stats &stats_;
    std::vector<std::unique_ptr<NvmDimm>> dimms_;
    std::vector<DimmState> state_;
    std::vector<Addr> watermark_;
    /** Striping fast path when the DIMM count is a power of two:
     *  dimm = pageNumber & dimmMask_, media page = pageNumber >>
     *  dimmShift_. dimmMask_ 0 with >1 DIMMs = general divide path. */
    std::size_t dimmMask_ = 0;
    unsigned dimmShift_ = 0;
    std::size_t degradedDimms_ = 0;  //!< DIMMs not in Healthy state
    Cycles readCycles_;
    Cycles writeCycles_;
    Cycles readBusy_;
    Cycles writeBusy_;
};

}  // namespace tvarak

