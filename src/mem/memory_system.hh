/**
 * @file
 * MemorySystem: the execution-driven memory hierarchy all workloads
 * run against, and the integration point for TVARAK.
 *
 * Topology (Table III): per-core L1 and L2, a shared inclusive banked
 * LLC, DRAM, and the NVM array. The active redundancy design (a row
 * of the design table in redundancy/registry.hh) reserves the LLC way
 * partitions its coverage asks for. At the LLC<->NVM boundary this
 * class calls the TVARAK engine for every line of a registered DAX
 * page (TvarakEngine::isDaxData): the engine verifies each NVM->LLC
 * fill, captures a diff on each clean->dirty LLC transition and
 * updates redundancy on each LLC->NVM writeback. Only designs whose
 * controller keeps the parity register pages, so the others never
 * enter the engine and get the full LLC (software schemes issue their
 * redundancy work as ordinary timed accesses).
 *
 * Functional model: caches carry tags/state for timing; *current*
 * values live in flat per-space stores (DRAM buffer, NVM
 * current-value buffer), while the NVM media (at-rest state, where
 * firmware bugs act) is written only at writeback and read at fill
 * time. A fill therefore really observes whatever the (possibly
 * buggy) firmware returns, and TVARAK's verification really catches
 * it. Virtual addresses below kDaxBase are identity-mapped DRAM; DAX
 * addresses translate through a page table maintained by DaxFs.
 *
 * Timing model (documented in DESIGN.md): loads charge the demand
 * path latency to the issuing thread; stores charge
 * storeIssueCycles (store-buffer retirement); writebacks and
 * redundancy updates are off the critical path but consume NVM
 * occupancy and energy; reported runtime is
 * max(slowest thread, busiest DIMM).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checksum/gf256.hh"
#include "core/tvarak.hh"
#include "layout/layout.hh"
#include "mem/cache.hh"
#include "nvm/nvm.hh"
#include "redundancy/registry.hh"
#include "sim/config.hh"
#include "sim/hostmem.hh"
#include "sim/page_bitmap.hh"
#include "sim/reciprocal.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tvarak {

namespace trace {
class TraceSink;
}  // namespace trace

class MemorySystem
{
  public:
    /** Run under @p design (a registered Design drives all
     *  design-specific behaviour; see redundancy/registry.hh). */
    MemorySystem(const SimConfig &cfg, const Design &design);
    /** Convenience shim: the canonical design for @p kind. */
    MemorySystem(const SimConfig &cfg, DesignKind kind);
    ~MemorySystem();

    /** @name Timed access API (what workloads call) */
    /**@{*/
    void read(int tid, Addr vaddr, void *buf, std::size_t len);
    void write(int tid, Addr vaddr, const void *buf, std::size_t len);
    std::uint64_t read64(int tid, Addr vaddr);
    void write64(int tid, Addr vaddr, std::uint64_t value);
    std::uint32_t read32(int tid, Addr vaddr);
    void write32(int tid, Addr vaddr, std::uint32_t value);
    /** Charge pure compute cycles to a thread. */
    void compute(int tid, Cycles cycles);
    /** Charge software checksum computation over @p bytes. */
    void computeChecksum(int tid, std::size_t bytes);
    /**@}*/

    /** @name Untimed functional access (setup & assertions) */
    /**@{*/
    /** Read the authoritative current value (cache-coherent view). */
    void peek(Addr vaddr, void *buf, std::size_t len) const;
    /**
     * Write bytes functionally. Allowed for DRAM only: NVM content
     * must be produced through timed writes (or DaxFs I/O) so that
     * media, checksums and parity stay consistent.
     */
    void poke(Addr vaddr, const void *buf, std::size_t len);
    /**@}*/

    /** Bump-allocate DRAM for volatile application state. */
    Addr dramAlloc(std::size_t bytes, std::size_t align = kLineBytes);

    /** @name DAX page-table management (used by DaxFs) */
    /**@{*/
    /** Map DAX virtual page index @p vpage to NVM-global @p nvmPage. */
    void mapDaxPage(std::size_t vpage, Addr nvmPage);
    void unmapDaxPage(std::size_t vpage);
    /** Virtual address of DAX virtual page index @p vpage. */
    static Addr daxVaddr(std::size_t vpage)
    {
        return kDaxBase + static_cast<Addr>(vpage) * kPageBytes;
    }
    /** Translate; returns false if unmapped/out of range. */
    bool translate(Addr vaddr, Addr &paddr, bool &isNvm) const;
    /**@}*/

    /** @name Whole-DIMM failure lifecycle (tentpole of the fault model)
     *  failDimm() kills a device mid-workload: its media content is
     *  gone, cached lines survive in SRAM, and every subsequent fill
     *  of a lost line is reconstructed on the fly from cross-DIMM
     *  parity + surviving data (a *degraded read*, charged one device
     *  latency since the surviving DIMMs are read in parallel).
     *  replaceDimm() installs a fresh device; the RebuildEngine
     *  (src/redundancy/rebuild.*) then sweeps it back to full
     *  redundancy while the workload keeps running. */
    /**@{*/
    void failDimm(std::size_t dimm);
    void replaceDimm(std::size_t dimm);
    /**
     * Best-effort reconstruction of @p nvmAddr's content without its
     * home DIMM. Data and parity lines are decoded from the rest of
     * their stripe row (recoverStripeLine), read in whichever world
     * maintains the stripe's parity: the TVARAK engine's at-rest
     * world for stripes with a registered page, current values
     * otherwise. Metadata is not parity protected and comes back as
     * poison.
     *
     * @param charge  account each surviving member read (energy,
     *                occupancy) — true on architectural paths, false
     *                for untimed maintenance.
     * @return false iff the content is unrecoverable (metadata, or
     *         more stripe members lost than the code tolerates; then
     *         @p out is poison).
     */
    bool reconstructLine(Addr nvmAddr, std::uint8_t *out, bool charge);
    /**
     * Install @p data as the current value of @p nvmAddr unless some
     * cache still holds the line (then the cached value is newer).
     * Used by the rebuild engine as it un-degrades lines.
     */
    void refreshCurIfUncached(Addr nvmAddr, const std::uint8_t *data);
    /**
     * Degraded-aware untimed read of data line @p nvmAddr in its
     * redundancy world (at-rest media for TVARAK-registered lines,
     * current value otherwise); reconstructs if the line is degraded.
     * Used by the rebuild engine to recompute checksum metadata.
     */
    void rebuildRead(Addr nvmAddr, std::uint8_t *out);
    /**@}*/

    /** Write back every dirty line everywhere (battery flush). */
    void flushAll();

    /** flushAll() followed by dropping every (now clean) cached line
     *  everywhere — models a cold restart. Subsequent reads re-fill
     *  from the NVM media through the firmware. The current-value
     *  store is re-synced with the media page by page, copying only
     *  the pages that either side changed since the last re-sync
     *  (see curChanged_). Host cost: the changed pages plus, per
     *  non-empty cache, its per-set valid counts, the tags of its
     *  non-empty sets and its valid lines. */
    void dropCaches();

    /**
     * Re-load the current-value store from the NVM media for @p len
     * bytes at @p vaddr (used after out-of-band recovery repaired the
     * media, so cached views reflect the repaired bytes). The touched
     * lines must be clean.
     */
    void refreshFromMedia(Addr vaddr, std::size_t len);

    /** Invalidate-without-writeback is deliberately not offered:
     *  redundancy consistency requires writebacks. */

    /** The active design's serialization identity. */
    DesignKind design() const;
    /** The active design object (coverage, scheme vending). */
    const Design &designObj() const { return *design_; }
    /** The active design's coverage (paper Table I). */
    const Coverage &coverage() const { return design_->coverage(); }
    const SimConfig &config() const { return cfg_; }
    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }
    Layout &layout() { return layout_; }
    NvmArray &nvmArray() { return nvm_; }
    TvarakEngine &tvarak() { return engine_; }

    /** LLC data-partition ways actually available to applications. */
    std::size_t llcDataWays() const { return llcDataWays_; }

    /**
     * The machine's stripe code: RsCode(n, k) for the layout's n data
     * and k parity members, built with the layout. Single parity is
     * RsCode(n, 1), the RAID-5 XOR. The engine, degraded reads,
     * rebuild sweeps, DaxFs and the software schemes all share it.
     */
    const RsCode &rsCodec() const { return code_; }

    /** @name Access-trace recording (src/trace/)
     *  The sink observes the timed API; when unset (the default) the
     *  only overhead is one pointer compare per call. Components that
     *  record higher-level events (DaxFs, PmemPool, RawCoverage) reach
     *  the sink through here too. */
    /**@{*/
    void setTraceSink(trace::TraceSink *sink) { traceSink_ = sink; }
    trace::TraceSink *traceSink() const { return traceSink_; }
    /**@}*/

    /** @name Machine checkpointing
     *  Save/restore the NVM at-rest image (see NvmArray). Restore
     *  re-syncs the current-value store; caches must be cold. */
    /**@{*/
    bool saveNvmImage(const std::string &path);
    bool loadNvmImage(const std::string &path);
    /**@}*/

  private:
    struct Translation {
        Addr paddr;
        bool isNvm;
    };
    Translation translateOrDie(Addr vaddr) const;

    std::size_t bankOf(Addr paddr) const
    {
        return static_cast<std::size_t>(llcBanks_.mod(lineNumber(paddr)));
    }
    static Addr nvmGlobal(Addr paddr) { return paddr - kNvmPhysBase; }

    /** Pointer into the current-value store for @p paddr. */
    std::uint8_t *funcPtr(Addr paddr, bool isNvm);
    /** Install @p line as NVM line @p g's current value, mark its page
     *  for the next re-sync (see curChanged_) and take it out of the
     *  lost set. */
    void setCurrentLine(Addr g, const std::uint8_t *line);
    /** Copy @p len bytes of current values from NVM-global @p g, with
     *  poison in place of lines in the lost set. */
    void readCurrent(Addr g, std::uint8_t *out, std::size_t len) const;

    /** One line-granular timed access. */
    void accessLine(int tid, Addr vaddr, std::size_t offset,
                    std::size_t len, void *buf, bool isWrite);

    /**
     * Ensure @p paddr is present in the LLC, performing the fill (and
     * TVARAK verification) if needed; handles coherence with other
     * cores' private caches.
     * @return pointer to the LLC line; adds demand latency to @p lat.
     */
    Cache::Line *llcEnsure(int core, Addr paddr, bool isNvm, bool isWrite,
                           Cycles &lat);

    /** Mark an LLC line dirty (captures TVARAK diffs). */
    void markLlcDirty(std::size_t bank, Cache::Line &line);

    /** Next-line prefetch into the LLC on sequential demand misses;
     *  stops at the 4 KB page boundary. Off the demand path.
     *  @return true if any line was actually prefetched (the caller's
     *  probed Line may have been reshuffled and must be re-probed). */
    bool maybePrefetch(std::size_t core, Addr paddr, bool isNvm);
    /** Fill one line into the LLC without demand-latency charging. */
    void prefetchLine(Addr paddr, bool isNvm);
    /** Read NVM line @p g for an LLC fill of bank @p bank (degraded
     *  or verified by the engine) and install it as the current
     *  value. @return the read's demand-path cycles. */
    Cycles fillNvmLine(std::size_t bank, Addr g);

    /** Handle an eviction from an LLC data partition. */
    void llcHandleVictim(std::size_t bank, const Cache::Victim &victim);

    /** Degraded-mode fill of @p g: reconstruct instead of reading the
     *  dead DIMM. @return demand-path cycles. */
    Cycles degradedFill(std::size_t bank, Addr g, std::uint8_t *media);

    /** One stripe member's value for reconstruction (at-rest for
     *  controller-kept lines, current otherwise). */
    void memberLine(Addr nvmAddr, std::uint8_t *out, bool charge);

    /** True iff @p line's stripe has a controller-kept member, i.e.
     *  the engine maintains the stripe's parity in the at-rest world
     *  (raw superblock writes keep that invariant too). */
    bool stripeIsEngineWorld(Addr line);

    /** Re-derive current values of all degraded lines (cold caches). */
    void refreshDegradedCurrent();

    /** Write one dirty NVM line back to media, updating redundancy
     *  first for a controller-kept line. @p forcedByDiffEviction marks
     *  writebacks forced by a diff-partition eviction (the controller
     *  uses the handed-over diff instead of its stored one). */
    void writebackNvmLine(std::size_t bank, Addr paddr,
                          bool forcedByDiffEviction);

    /** Is this NVM-global address checksum/parity storage? */
    bool isRedundancyAddr(Addr nvmAddr) const;

    SimConfig cfg_;
    const Design *design_;
    Stats stats_;
    Layout layout_;
    RsCode code_;  //!< the stripe code; the engine holds a reference
    NvmArray nvm_;
    TvarakEngine engine_;

    std::vector<Cache> l1_;   //!< per core
    std::vector<Cache> l2_;   //!< per core
    /** Thread id -> core and line -> LLC bank interleaves. */
    Reciprocal cores_;
    Reciprocal llcBanks_;
    std::vector<Cache> llc_;  //!< per bank, data partition only
    std::size_t llcDataWays_;

    HostBuffer dram_;    //!< DRAM current values (huge-page backed)
    HostBuffer nvmCur_;  //!< NVM current values (huge-page backed)
    /**
     * Pages of nvmCur_ written outside the re-sync since the last
     * dropCaches(). Every such write goes through setCurrentLine():
     * NVM fills (demand and prefetch), refreshCurIfUncached() and
     * refreshDegradedCurrent(). Timed stores need no mark:
     * dropCaches() empties every cache, so a store's line was filled,
     * and its page marked, after the last re-sync. refreshFromMedia()
     * copies media in, so needs none.
     *
     * Invariant: a page that neither this set nor any DIMM's
     * changedPages() marks holds equal current value and media. It
     * holds at construction (both all zero), and dropCaches()
     * restores it by copying exactly the union of the marked pages.
     */
    PageBitmap curChanged_;
    /**
     * The lost set: NVM lines whose current value died with their
     * DIMM. failDimm() adds every line of the DIMM that no cache
     * holds; their bytes in nvmCur_ are stale, and readCurrent()
     * returns poison for them instead. A line leaves the set when a
     * new value is installed (setCurrentLine(), refreshCurIfUncached()
     * or refreshFromMedia()), and dropCaches() empties it, because
     * its re-sync re-derives every degraded line.
     *
     * Invariant: no cache holds a line in the set (a fill installs
     * the line's value first), so the timed path never reads a lost
     * value. Allocated at the first failure: fault-free runs pay
     * nothing.
     */
    std::unique_ptr<LineBitmap> lost_;
    std::vector<Addr> daxPageTable_;    //!< vpage -> NVM page | kUnmapped
    Addr dramBrk_;
    std::vector<std::uint64_t> lastMissLine_;  //!< per-core stride state
    trace::TraceSink *traceSink_ = nullptr;    //!< access-trace recorder

    static constexpr Addr kUnmapped = ~Addr{0};
};

}  // namespace tvarak

