/**
 * @file
 * The design table.
 *
 * A `Design` is one row: its names, the `Coverage` value (paper
 * Table I) that MemorySystem, DaxFs, the scrubber, the rebuild engine
 * and the fault tool key off, the software-side `RedundancyScheme` it
 * runs at transaction commit (if any) and the NVM array shape it pins
 * (if any). Where the coverage says the controller keeps the parity,
 * the TVARAK engine acts on every line of a DAX-mapped page; no
 * design carries code of its own.
 *
 * Designs live in a string-keyed registry that config, CLI, bench,
 * trace and fault tooling all resolve through: `--design vilamb`
 * works everywhere, and the Fig-9 ablation points are registered
 * `tvarak-*` designs whose coverage turns controller options off.
 *
 * This translation unit pair is the only place allowed to switch or
 * compare on `DesignKind` (lint rule R8): everything else reads the
 * Design object.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace tvarak {

class MemorySystem;
class RedundancyScheme;

/** How a design detects at-rest corruption (keys the fault tool's
 *  detect/repair strategy). */
enum class FaultDetection {
    None,        //!< no detection: corruption is expected to be silent
    FillVerify,  //!< per-fill checksum verification (TVARAK)
    PageScrub,   //!< page-checksum scrubbing (TxB-Page, Vilamb)
    ObjectSweep, //!< object-checksum sweep + parity scrub (TxB-Object)
};

/** The checksum that covers DAX-mapped data. */
enum class MappedChecksum {
    None,    //!< no checksum (Baseline)
    DaxCl,   //!< one checksum per cache line, kept by the controller
    Page,    //!< one checksum per page (naive controller, TxB-Page,
             //!< Vilamb)
    Object,  //!< one checksum per pmem object (TxB-Object)
};

/** Who keeps the cross-DIMM parity of mapped data current. */
enum class ParityKeeper {
    None,        //!< nobody (Baseline)
    Controller,  //!< the LLC-bank controller, at writeback
    Software,    //!< the software scheme, at transaction commit
};

/**
 * What a design's redundancy covers: paper Table I as one value.
 * Every policy question the file system, the rebuild engine, the
 * memory system and the fault tools ask is a one-line function of
 * these fields.
 */
struct Coverage {
    MappedChecksum mappedChecksum = MappedChecksum::None;
    ParityKeeper parity = ParityKeeper::None;
    /**
     * Concurrent whole-DIMM losses the design's redundancy can
     * reconstruct through without data loss: 0 without cross-DIMM
     * parity, 1 for single XOR parity, k for the Reed-Solomon n+k
     * designs. Fault schedules that fail more DIMMs at once must
     * expect *detected* loss, never silence.
     */
    std::size_t survivableFailures = 0;
    /** @name Fig 9 controller options (controller designs only) */
    /**@{*/
    /** Cache redundancy lines (on-controller cache + LLC partition);
     *  off = every redundancy access goes to NVM. */
    bool redundancyCaching = false;
    /** Keep data diffs in an LLC partition; off = re-read old data
     *  from NVM at writeback time (also the exclusive-LLC config). */
    bool dataDiffs = false;
    /**@}*/

    /** The controller keeps mapped data's checksums and parity in the
     *  at-rest (media) world; a DIMM can be rebuilt online while
     *  writes continue. */
    bool controllerKeepsParity() const
    {
        return parity == ParityKeeper::Controller;
    }
    /** Cross-DIMM parity covers mapped data (DIMM loss survivable). */
    bool hasMappedParity() const { return parity != ParityKeeper::None; }
    /** Writes proceed while a DIMM is down. Software parity is
     *  recomputed over the stripe, which needs a consistent image, so
     *  those designs pause writes instead. */
    bool writesWhileDegraded() const
    {
        return parity != ParityKeeper::Software;
    }
    /** Mapped files keep line or page checksums, so the scrubber may
     *  verify and repair them while mapped. */
    bool scrubsMappedFiles() const
    {
        return mappedChecksum == MappedChecksum::DaxCl ||
            mappedChecksum == MappedChecksum::Page;
    }
    /** Where at-rest corruption is caught. */
    FaultDetection detection() const
    {
        return controllerKeepsParity() ? FaultDetection::FillVerify
            : mappedChecksum == MappedChecksum::Object
            ? FaultDetection::ObjectSweep
            : mappedChecksum == MappedChecksum::Page
            ? FaultDetection::PageScrub
            : FaultDetection::None;
    }
    /** Corruptions are caught on the read path, so transient
     *  misdirected reads are detectable events, not silent. */
    bool checksOnRead() const
    {
        return detection() == FaultDetection::FillVerify;
    }
    /** LLC ways per bank the controller's partitions borrow. */
    std::size_t reservedLlcWays(const SimConfig &cfg) const
    {
        return (redundancyCaching ? cfg.tvarak.redundancyWays : 0) +
            (dataDiffs ? cfg.tvarak.diffWays : 0);
    }
};

/** The NVM array shape a design pins: @c dimms DIMMs, @c parityDimms
 *  of them parity per stripe row. Zero DIMMs leaves the config's
 *  shape as it is. */
struct ArrayShape {
    std::size_t dimms = 0;
    std::size_t parityDimms = 0;
};

/** Builds a design's transaction-commit scheme for one machine. */
using SchemeFactory =
    std::unique_ptr<RedundancyScheme> (*)(MemorySystem &mem);

/**
 * One redundancy design: one row of the design table, behind a
 * registry name. Immutable — a single instance serves every machine;
 * per-machine state lives in MemorySystem's TvarakEngine and in the
 * vended RedundancyScheme.
 */
class Design
{
  public:
    /** @p scheme null: no transaction-commit work. @p shape empty:
     *  the design runs on the configured array. */
    Design(DesignKind kind, std::string cliName, std::string displayName,
           const Coverage &coverage, SchemeFactory scheme = nullptr,
           ArrayShape shape = {})
        : kind_(kind), cliName_(std::move(cliName)),
          displayName_(std::move(displayName)), coverage_(coverage),
          scheme_(scheme), shape_(shape)
    {}

    Design(const Design &) = delete;
    Design &operator=(const Design &) = delete;

    /** Stable serialization identity (shared by design variants). */
    DesignKind kind() const { return kind_; }

    /** Registry key: lowercase CLI spelling, e.g. "txb-page-csums". */
    const std::string &cliName() const { return cliName_; }

    /** Report/display spelling, e.g. "TxB-Page-Csums". */
    const char *displayName() const { return displayName_.c_str(); }

    /** What the design's redundancy covers (paper Table I). */
    const Coverage &coverage() const { return coverage_; }

    /**
     * Pin the design's array shape, if it has one, in @p cfg
     * (MemorySystem's private config copy, before anything reads
     * it). The RS designs own their geometry, so every harness gets
     * a consistent n+k array just by naming the design.
     */
    void adjustConfig(SimConfig &cfg) const;

    /** Software-side scheme; nullptr = no transaction-commit work. */
    std::unique_ptr<RedundancyScheme> makeScheme(MemorySystem &mem) const;

  private:
    DesignKind kind_;
    std::string cliName_;
    std::string displayName_;
    Coverage coverage_;
    SchemeFactory scheme_;
    ArrayShape shape_;
};

/** @name The design registry */
/**@{*/

/**
 * Add @p design to the registry (appended: iteration order is
 * registration order). Fatal if the name (cliName or displayName,
 * case-insensitive) collides with a registered design. The built-in
 * designs are registered on first registry access, in this order:
 * baseline, tvarak, txb-object-csums, txb-page-csums, vilamb,
 * tvarak-naive, tvarak-no-red-cache, tvarak-no-diffs, tvarak-rs4+2,
 * tvarak-rs6+2.
 */
void registerDesign(const Design *design);

/** Every registered design, in stable registration order. */
const std::vector<const Design *> &allRegisteredDesigns();

/** The four paper designs, in paper order (Baseline, Tvarak,
 *  TxB-Object-Csums, TxB-Page-Csums). */
std::vector<const Design *> paperDesigns();

/** Case-insensitive lookup by cliName or displayName; nullptr if
 *  unknown. */
const Design *findDesign(const std::string &name);

/** The canonical design for @p kind (the first registered with it —
 *  Fig-9 variants share DesignKind::Tvarak and are never returned).
 *  Fatal on an invalid enum value. */
const Design &designOf(DesignKind kind);

/** True iff @p kind names a registered design (trace-header check). */
bool isRegisteredKind(DesignKind kind);

/** Comma-separated cliNames of every registered design (CLI errors). */
std::string registeredNameList();

/**@}*/

}  // namespace tvarak
