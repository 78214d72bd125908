/**
 * @file
 * Software redundancy schemes (the paper's comparison points).
 *
 * The TxB ("transaction boundary") schemes hook PmemPool::txCommit and
 * perform their checksum/parity maintenance as ordinary timed loads,
 * stores and compute through the cache hierarchy — that is the whole
 * point of the comparison: the same logical work TVARAK does in
 * hardware at the LLC/NVM boundary costs core cycles and cache
 * traffic when done in software.
 *
 *  - TxBObjectCsums (Pangolin-like): object-granular checksums stored
 *    in the object header. No whole-page reads, but higher space
 *    overhead, and (per the paper's variant) no data copying between
 *    NVM and DRAM and no read verification.
 *  - TxBPageCsums (Mojim/HotPot + checksums): page-granular
 *    checksums; every commit re-reads the whole page per dirty page.
 *
 * Both update parity by *recomputation* over the stripe (they update
 * data in place, so no before-image diff is available), reading the
 * sibling lines and writing the parity line.
 */

#pragma once

#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/types.hh"

namespace tvarak {

/** A dirty byte range recorded by the transaction runtime. */
struct DirtyRange {
    Addr vaddr = 0;          //!< start of the modified bytes
    std::size_t len = 0;
    Addr objBase = 0;        //!< owning object payload base (0 = none)
    std::size_t objLen = 0;  //!< owning object payload length
    /** Where the object-granular checksum lives (0 = uncovered). */
    Addr csumVaddr = 0;
    /** True for application data ranges (the writes the application
     *  explicitly informs the library about); false for the library's
     *  own log/lane metadata. TxB-Page-Csums covers only the former,
     *  per the Mojim/HotPot model; Pangolin-style TxB-Object-Csums
     *  checksums its metadata too. */
    bool appData = true;
};

class RedundancyScheme
{
  public:
    virtual ~RedundancyScheme() = default;

    /** Maintain redundancy for the transaction's dirty ranges. */
    virtual void onCommit(int tid, const std::vector<DirtyRange> &dirty) = 0;

    /** Flush any deferred redundancy work (asynchronous schemes). */
    virtual void drain(int tid) { (void)tid; }

    virtual const char *name() const = 0;

  protected:
    explicit RedundancyScheme(MemorySystem &mem) : mem_(mem) {}

    /**
     * Recompute and write the parity lines covering the data line that
     * backs @p vline: reads the dirty line itself and then the
     * stripe's sibling lines through the caches, encodes every parity
     * role with the machine's stripe code, writes the parity lines.
     */
    void recomputeParityLine(int tid, Addr vline);

    MemorySystem &mem_;
};

/** Pangolin-like object-granular checksums. */
class TxBObjectCsums final : public RedundancyScheme
{
  public:
    explicit TxBObjectCsums(MemorySystem &mem) : RedundancyScheme(mem) {}
    void onCommit(int tid, const std::vector<DirtyRange> &dirty) override;
    const char *name() const override { return "TxB-Object-Csums"; }
};

/** Mojim/HotPot-like page-granular checksums. */
class TxBPageCsums final : public RedundancyScheme
{
  public:
    explicit TxBPageCsums(MemorySystem &mem) : RedundancyScheme(mem) {}
    void onCommit(int tid, const std::vector<DirtyRange> &dirty) override;
    const char *name() const override { return "TxB-Page-Csums"; }
};

/** Scheme for @p design, or nullptr (Baseline and Tvarak need none).
 *  Convenience shim over the design registry: equivalent to
 *  `designOf(design).makeScheme(mem)` (redundancy/registry.hh). */
std::unique_ptr<RedundancyScheme> makeScheme(DesignKind design,
                                             MemorySystem &mem);

}  // namespace tvarak

