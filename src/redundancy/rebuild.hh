/**
 * @file
 * RebuildEngine: online reconstruction of replaced NVM DIMMs.
 *
 * After MemorySystem::replaceDimm() installs a fresh (zeroed) device,
 * the rebuild engine sweeps its media in address order and rewrites
 * every line to the content it must hold, while the workload keeps
 * running against the array:
 *
 *  - data-region lines, data and parity alike, are decoded from the
 *    surviving members of their stripe row
 *    (MemorySystem::reconstructLine, which picks the right redundancy
 *    world per line and decodes around every concurrently-dead
 *    member);
 *  - checksum metadata is *not* parity protected and is recomputed
 *    from the (degraded-aware) data it covers: DAX-CL-checksum slots
 *    of registered pages get the line checksum, page-checksum slots of
 *    allocated unmapped pages get the page checksum, everything else
 *    returns to its canonical zero.
 *
 * Progress is published through NvmArray::setRebuildWatermark: lines
 * below the watermark are fully redundant again (reads hit the media,
 * writes land), lines above it still take the degraded path. step()
 * rebuilds a bounded number of lines so callers can interleave
 * foreground work, which is exactly how the fault campaign exercises
 * the degraded/rebuilding window.
 *
 * Multi-failure schedules: the engine tracks every DIMM that is in the
 * Rebuilding state and sweeps them lowest-index first. Each step()
 * resynchronizes with the array, so faults injected between steps are
 * honored:
 *
 *  - a tracked DIMM that failed again (state back to Failed) is
 *    dropped — its partial rebuild is gone and it cannot make progress
 *    until replaced;
 *  - a tracked DIMM whose watermark moved *behind* the sweep cursor
 *    was failed and re-replaced between steps: the sweep restarts from
 *    the watermark (Stats::rebuildRestarts) rather than trusting any
 *    line the previous pass wrote — stale media is never republished;
 *  - a Rebuilding DIMM the engine has not seen yet (a second
 *    replacement while the first rebuild is still running) is adopted.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "sim/types.hh"

namespace tvarak {

class RebuildEngine
{
  public:
    /**
     * @param fs  used to tell never-written page-checksum slots from
     *            live ones; may be null, in which case every slot of a
     *            non-registered data page is recomputed (safe, but not
     *            bit-exact for never-allocated pages).
     * @pre at least one DIMM is in the Rebuilding state.
     */
    explicit RebuildEngine(MemorySystem &mem, DaxFs *fs = nullptr);

    /** Rebuild up to @p lineBudget media lines.
     *  @return lines actually rebuilt (0 once done). */
    std::size_t step(std::size_t lineBudget);

    /** Drain the remaining sweep in one call. */
    void runToCompletion();

    /** @return true when no tracked DIMM still needs rebuilding.
     *  A DIMM that failed again and was not yet replaced does not
     *  keep the engine alive: it cannot progress until replaced. */
    bool done() const { return sweeps_.empty(); }
    /** DIMM the sweep is currently restoring (lowest index first). */
    std::size_t dimm() const;
    /** Next media address the sweep will rebuild on dimm(). */
    Addr cursor() const;

  private:
    /** One in-progress DIMM sweep. */
    struct Sweep {
        std::size_t dimm;
        Addr cursor;  //!< media address within the DIMM
    };

    /** Reconcile tracked sweeps with the array's DIMM states. */
    void resync();
    /** Rebuild one line of the checksum-metadata region. */
    void rebuildMetaLine(Addr g, std::uint8_t *out);
    /** The value an 8 B page-checksum slot must hold. */
    std::uint64_t pageCsumSlotValue(std::size_t slotIdx);
    /** The value an 8 B DAX-CL-checksum slot must hold. */
    std::uint64_t daxClSlotValue(std::size_t slotIdx);

    MemorySystem &mem_;
    DaxFs *fs_;
    Addr dimmBytes_;
    std::vector<Sweep> sweeps_;  //!< sorted by dimm index
};

}  // namespace tvarak
