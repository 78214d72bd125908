/**
 * @file
 * The design table and its registry: the single translation unit
 * allowed to switch over DesignKind (lint R8). Each built-in design
 * is one row of ensureBuiltins()' table.
 */

#include "redundancy/registry.hh"

#include <cctype>

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

template <class Scheme>
std::unique_ptr<RedundancyScheme>
schemeFor(MemorySystem &mem)
{
    return std::make_unique<Scheme>(mem);
}

std::unique_ptr<RedundancyScheme>
vilambScheme(MemorySystem &mem)
{
    return std::make_unique<VilambAsyncCsums>(mem, 64);
}

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
    using MC = MappedChecksum;
    using PK = ParityKeeper;
    // Coverage columns: mapped checksum, parity keeper, survivable
    // DIMM losses, redundancy caching, data diffs.
    static const Design builtins[] = {
        {DesignKind::Baseline, "baseline", "Baseline", {}},
        {DesignKind::Tvarak, "tvarak", "Tvarak",
         {MC::DaxCl, PK::Controller, 1, true, true}},
        // Pangolin-like object checksums, and page checksums updated
        // at every commit or (Vilamb) batched over 64-commit epochs.
        // Vilamb's coverage is TxB-Page's; the difference is *when*
        // the page work runs, which is why campaigns must drain()
        // before scrubbing.
        {DesignKind::TxBObjectCsums, "txb-object-csums",
         "TxB-Object-Csums", {MC::Object, PK::Software, 1},
         schemeFor<TxBObjectCsums>},
        {DesignKind::TxBPageCsums, "txb-page-csums", "TxB-Page-Csums",
         {MC::Page, PK::Software, 1}, schemeFor<TxBPageCsums>},
        {DesignKind::Vilamb, "vilamb", "Vilamb",
         {MC::Page, PK::Software, 1}, vilambScheme},
        // Fig 9 cumulative ablation points (naive -> +DAX-CL-csums ->
        // +red-caching; adding +data-diffs is full "tvarak").
        {DesignKind::Tvarak, "tvarak-naive", "Tvarak-Naive",
         {MC::Page, PK::Controller, 1, false, false}},
        {DesignKind::Tvarak, "tvarak-no-red-cache", "Tvarak-No-Red-Cache",
         {MC::DaxCl, PK::Controller, 1, false, false}},
        {DesignKind::Tvarak, "tvarak-no-diffs", "Tvarak-No-Diffs",
         {MC::DaxCl, PK::Controller, 1, true, false}},
        // Reed-Solomon n+k geometries (double-failure survivable): full
        // TVARAK over a GF(2^8) erasure code, on the array they pin.
        {DesignKind::Tvarak, "tvarak-rs4+2", "Tvarak-RS4+2",
         {MC::DaxCl, PK::Controller, 2, true, true}, nullptr, {6, 2}},
        {DesignKind::Tvarak, "tvarak-rs6+2", "Tvarak-RS6+2",
         {MC::DaxCl, PK::Controller, 2, true, true}, nullptr, {8, 2}},
    };
    static const bool once = [] {
        for (const Design &d : builtins)
            registerLocked(&d);
        return true;
    }();
    (void)once;
}

}  // namespace

void
Design::adjustConfig(SimConfig &cfg) const
{
    if (shape_.dimms == 0)
        return;
    cfg.nvm.dimms = shape_.dimms;
    cfg.nvm.parityDimms = shape_.parityDimms;
}

std::unique_ptr<RedundancyScheme>
Design::makeScheme(MemorySystem &mem) const
{
    return scheme_ != nullptr ? scheme_(mem) : nullptr;
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
