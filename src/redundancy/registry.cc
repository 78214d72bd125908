/**
 * @file
 * The design registry: the single translation unit allowed to switch
 * over DesignKind (lint R8), and home of the concrete Design classes
 * and TVARAK's MemController implementation.
 */

#include "redundancy/registry.hh"

#include <cctype>

#include "core/tvarak.hh"
#include "mem/memory_system.hh"
#include "redundancy/scheme.hh"
#include "redundancy/vilamb.hh"
#include "sim/log.hh"

namespace tvarak {

namespace {

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

// ------------------------------------------------ TVARAK's controller

/**
 * The hardware contribution of the paper: per-LLC-bank controllers
 * verifying DAX fills, capturing diffs on clean->dirty transitions
 * and updating checksums + parity at writeback. All heavy lifting
 * lives in TvarakEngine; this adapter scopes it to DAX lines.
 */
class TvarakMemController final : public MemController
{
  public:
    explicit TvarakMemController(MemorySystem &mem)
        : engine_(mem.tvarak())
    {}

    void fillLine(std::size_t bank, Addr nvmAddr,
                  std::uint8_t *media) override
    {
        if (engine_.isDaxData(nvmAddr))
            engine_.verifyFill(bank, nvmAddr, media);
    }

    std::optional<Addr> captureDirty(std::size_t bank,
                                     Addr nvmAddr) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return std::nullopt;
        return engine_.captureDiff(bank, nvmAddr);
    }

    void writeback(std::size_t bank, Addr nvmAddr,
                   const std::uint8_t *newData,
                   bool forcedByDiffEviction) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return;
        TvarakEngine::DiffSource source;
        if (forcedByDiffEviction)
            source = TvarakEngine::DiffSource::EvictedDiff;
        else if (engine_.hasDiff(bank, nvmAddr))
            source = TvarakEngine::DiffSource::Stored;
        else
            source = TvarakEngine::DiffSource::None;
        engine_.updateRedundancy(bank, nvmAddr, newData, source);
    }

    void dropVictim(std::size_t bank, Addr nvmAddr) override
    {
        engine_.dropDiff(bank, nvmAddr);
    }

    Cycles verifyReconstructed(std::size_t bank, Addr nvmAddr,
                               std::uint8_t *media) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return 0;
        return engine_.verifyReconstructed(bank, nvmAddr, media);
    }

  private:
    TvarakEngine &engine_;
};

// ------------------------------------------------- concrete designs

class BaselineDesign final : public Design
{
  public:
    BaselineDesign()
        : Design(DesignKind::Baseline, "baseline", "Baseline", {})
    {}
};

/** TVARAK and its Fig-9 ablation points: the controller keeps mapped
 *  data's checksums and parity; the coverage picks the rungs. */
class TvarakDesign : public Design
{
  public:
    TvarakDesign(std::string cliName, std::string displayName,
                 const Coverage &coverage)
        : Design(DesignKind::Tvarak, std::move(cliName),
                 std::move(displayName), coverage)
    {}

    std::unique_ptr<MemController>
    makeController(MemorySystem &mem) const override
    {
        return std::make_unique<TvarakMemController>(mem);
    }
};

/**
 * A Reed-Solomon n+k geometry: full TVARAK machinery over a GF(2^8)
 * erasure code. adjustConfig pins the array shape — the design owns
 * its geometry, so every harness (bench, trace, fault, service) gets
 * a consistent n+k array just by naming the design.
 */
class TvarakRsDesign final : public TvarakDesign
{
  public:
    TvarakRsDesign(std::string cliName, std::string displayName,
                   std::size_t dimms, std::size_t parityDimms)
        : TvarakDesign(std::move(cliName), std::move(displayName),
                       {MappedChecksum::DaxCl, ParityKeeper::Controller,
                        parityDimms, true, true}),
          dimms_(dimms), parityDimms_(parityDimms)
    {}

    void adjustConfig(SimConfig &cfg) const override
    {
        cfg.nvm.dimms = dimms_;
        cfg.nvm.parityDimms = parityDimms_;
    }

  private:
    std::size_t dimms_;
    std::size_t parityDimms_;
};

/** No controller hardware: the scheme that @p makeScheme vends keeps
 *  checksums and parity at transaction commit. */
class SoftwareDesign final : public Design
{
  public:
    using SchemeFactory =
        std::unique_ptr<RedundancyScheme> (*)(MemorySystem &mem);

    SoftwareDesign(DesignKind kind, std::string cliName,
                   std::string displayName, const Coverage &coverage,
                   SchemeFactory makeScheme)
        : Design(kind, std::move(cliName), std::move(displayName),
                 coverage),
          makeScheme_(makeScheme)
    {}

    std::unique_ptr<RedundancyScheme>
    makeScheme(MemorySystem &mem) const override
    {
        return makeScheme_(mem);
    }

  private:
    SchemeFactory makeScheme_;
};

// ------------------------------------------------------ the registry

std::vector<const Design *> &
registryVec()
{
    static std::vector<const Design *> designs;
    return designs;
}

void
registerLocked(const Design *design)
{
    fatal_if(design == nullptr, "registerDesign(nullptr)");
    std::string cli = toLower(design->cliName());
    std::string display = toLower(design->displayName());
    for (const Design *d : registryVec()) {
        fatal_if(toLower(d->cliName()) == cli ||
                     toLower(d->displayName()) == display,
                 "duplicate design registration: '%s' collides with "
                 "registered design '%s'",
                 design->cliName().c_str(), d->cliName().c_str());
    }
    registryVec().push_back(design);
}

/** Register the built-ins exactly once, in stable paper-then-extras
 *  order, before any lookup. */
void
ensureBuiltins()
{
    static const bool once = [] {
        static const BaselineDesign baseline;
        static const TvarakDesign tvarak(
            "tvarak", "Tvarak",
            {MappedChecksum::DaxCl, ParityKeeper::Controller, 1, true,
             true});
        // Pangolin-like object checksums, and page checksums updated
        // at every commit or (Vilamb) batched over 64-commit epochs.
        // Vilamb's coverage is TxB-Page's; the difference is *when*
        // the page work runs, which is why campaigns must drain()
        // before scrubbing.
        static const SoftwareDesign txbObject(
            DesignKind::TxBObjectCsums, "txb-object-csums",
            "TxB-Object-Csums",
            {MappedChecksum::Object, ParityKeeper::Software, 1},
            [](MemorySystem &mem) -> std::unique_ptr<RedundancyScheme> {
                return std::make_unique<TxBObjectCsums>(mem);
            });
        static const SoftwareDesign txbPage(
            DesignKind::TxBPageCsums, "txb-page-csums", "TxB-Page-Csums",
            {MappedChecksum::Page, ParityKeeper::Software, 1},
            [](MemorySystem &mem) -> std::unique_ptr<RedundancyScheme> {
                return std::make_unique<TxBPageCsums>(mem);
            });
        static const SoftwareDesign vilamb(
            DesignKind::Vilamb, "vilamb", "Vilamb",
            {MappedChecksum::Page, ParityKeeper::Software, 1},
            [](MemorySystem &mem) -> std::unique_ptr<RedundancyScheme> {
                return std::make_unique<VilambAsyncCsums>(mem, 64);
            });
        // Fig 9 cumulative ablation points (naive -> +DAX-CL-csums ->
        // +red-caching; adding +data-diffs is full "tvarak").
        static const TvarakDesign naive(
            "tvarak-naive", "Tvarak-Naive",
            {MappedChecksum::Page, ParityKeeper::Controller, 1, false,
             false});
        static const TvarakDesign noRedCache(
            "tvarak-no-red-cache", "Tvarak-No-Red-Cache",
            {MappedChecksum::DaxCl, ParityKeeper::Controller, 1, false,
             false});
        static const TvarakDesign noDiffs(
            "tvarak-no-diffs", "Tvarak-No-Diffs",
            {MappedChecksum::DaxCl, ParityKeeper::Controller, 1, true,
             false});
        // Reed-Solomon n+k geometries (double-failure survivable).
        static const TvarakRsDesign rs42("tvarak-rs4+2", "Tvarak-RS4+2",
                                         6, 2);
        static const TvarakRsDesign rs62("tvarak-rs6+2", "Tvarak-RS6+2",
                                         8, 2);
        registerLocked(&baseline);
        registerLocked(&tvarak);
        registerLocked(&txbObject);
        registerLocked(&txbPage);
        registerLocked(&vilamb);
        registerLocked(&naive);
        registerLocked(&noRedCache);
        registerLocked(&noDiffs);
        registerLocked(&rs42);
        registerLocked(&rs62);
        return true;
    }();
    (void)once;
}

}  // namespace

std::unique_ptr<MemController>
Design::makeController(MemorySystem &mem) const
{
    (void)mem;
    return std::make_unique<MemController>();
}

std::unique_ptr<RedundancyScheme>
Design::makeScheme(MemorySystem &mem) const
{
    (void)mem;
    return nullptr;
}

void
registerDesign(const Design *design)
{
    ensureBuiltins();
    registerLocked(design);
}

const std::vector<const Design *> &
allRegisteredDesigns()
{
    ensureBuiltins();
    return registryVec();
}

std::vector<const Design *>
paperDesigns()
{
    // lint:allow(R8) — registry-internal enumeration of the paper set.
    const DesignKind paper[] = {
        DesignKind::Baseline,
        DesignKind::Tvarak,
        DesignKind::TxBObjectCsums,
        DesignKind::TxBPageCsums,
    };
    std::vector<const Design *> out;
    for (DesignKind kind : paper)
        out.push_back(&designOf(kind));
    return out;
}

const Design *
findDesign(const std::string &name)
{
    ensureBuiltins();
    std::string key = toLower(name);
    for (const Design *d : allRegisteredDesigns()) {
        if (toLower(d->cliName()) == key ||
            toLower(d->displayName()) == key)
            return d;
    }
    return nullptr;
}

const Design &
designOf(DesignKind kind)
{
    for (const Design *d : allRegisteredDesigns())
        if (d->kind() == kind)
            return *d;
    fatal("designOf: invalid DesignKind %d", static_cast<int>(kind));
}

bool
isRegisteredKind(DesignKind kind)
{
    for (const Design *d : allRegisteredDesigns())
        if (d->kind() == kind)
            return true;
    return false;
}

std::string
registeredNameList()
{
    std::string out;
    for (const Design *d : allRegisteredDesigns()) {
        if (!out.empty())
            out += ", ";
        out += d->cliName();
    }
    return out;
}

const char *
designName(DesignKind kind)
{
    for (const Design *d : allRegisteredDesigns())
        if (d->kind() == kind)
            return d->displayName();
    return "?";
}

std::unique_ptr<RedundancyScheme>
makeScheme(DesignKind design, MemorySystem &mem)
{
    return designOf(design).makeScheme(mem);
}

}  // namespace tvarak
