#include "mem/memory_system.hh"

#include <algorithm>
#include <cstring>

#include "core/stripe.hh"
#include "redundancy/registry.hh"
#include "sim/log.hh"
#include "trace/sink.hh"

namespace tvarak {

namespace {

/** The design's forced config fields applied to a private copy,
 *  validated before any member is built from it (Layout and RsCode
 *  would panic on a geometry the validator reports). */
SimConfig
designAdjusted(SimConfig cfg, const Design &design)
{
    design.adjustConfig(cfg);
    cfg.validate();
    return cfg;
}

}  // namespace

MemorySystem::MemorySystem(const SimConfig &cfg, const Design &design)
    : cfg_(designAdjusted(cfg, design)),
      design_(&design),
      stats_(cfg_.cores, cfg_.nvm.dimms),
      layout_(cfg_.nvm.dimms * cfg_.nvm.dimmBytes, cfg_.nvm.dimms,
              cfg_.nvm.parityDimms),
      code_(layout_.dataCount(), layout_.parityCount()),
      // cfg_ (declared first) is the object's own copy; engine_ keeps
      // a reference to its SimConfig, so it must not see the caller's
      // possibly-temporary argument.
      nvm_(cfg_.nvm, cfg_, stats_),
      engine_(cfg_, design.coverage(), layout_, code_, nvm_, stats_),
      cores_(cfg_.cores),
      llcBanks_(cfg_.llcBanks),
      dram_(cfg_.dram.sizeBytes),
      nvmCur_(cfg_.nvm.dimms * cfg_.nvm.dimmBytes),
      curChanged_(nvmCur_.size()),
      dramBrk_(kLineBytes)  // never hand out address 0
{
    // A failure-domain fault takes out dimmsPerDomain DIMMs at once;
    // grouping DIMMs into multi-DIMM domains is only meaningful when
    // the active design can decode through a whole-domain loss.
    const Coverage &cov = design.coverage();
    fatal_if(cfg_.nvm.dimmsPerDomain > 1 &&
                 cfg_.nvm.dimmsPerDomain > cov.survivableFailures,
             "nvm.dimmsPerDomain (%zu) exceeds design '%s' "
             "survivable failures (%zu)",
             cfg_.nvm.dimmsPerDomain, design.cliName().c_str(),
             cov.survivableFailures);
    // The design's hardware borrows LLC ways for its partitions;
    // designs without controller hardware (and disabled ablation
    // elements) leave those ways to application data.
    llcDataWays_ = cfg_.llcBank.ways - cov.reservedLlcWays(cfg_);
    std::size_t llc_sets =
        cfg_.llcBank.sizeBytes / (cfg_.llcBank.ways * kLineBytes);
    for (std::size_t c = 0; c < cfg_.cores; c++) {
        l1_.push_back(Cache::fromSize("l1-" + std::to_string(c),
                                      cfg_.l1.sizeBytes, cfg_.l1.ways));
        l2_.push_back(Cache::fromSize("l2-" + std::to_string(c),
                                      cfg_.l2.sizeBytes, cfg_.l2.ways));
    }
    for (std::size_t b = 0; b < cfg_.llcBanks; b++) {
        llc_.emplace_back("llc-" + std::to_string(b), llc_sets,
                          llcDataWays_, cfg_.llcBanks);
    }
    std::size_t vpages = layout_.allocatableDataPages();
    daxPageTable_.assign(vpages, kUnmapped);
    lastMissLine_.assign(cfg_.cores, ~std::uint64_t{0});
}

MemorySystem::MemorySystem(const SimConfig &cfg, DesignKind kind)
    : MemorySystem(cfg, designOf(kind))
{}

MemorySystem::~MemorySystem() = default;

DesignKind
MemorySystem::design() const
{
    return design_->kind();
}

//
// Translation & functional plumbing
//

bool
MemorySystem::translate(Addr vaddr, Addr &paddr, bool &isNvm) const
{
    if (vaddr >= kNvmDirectBase) {
        Addr g = vaddr - kNvmDirectBase;
        if (g >= nvmCur_.size())
            return false;
        paddr = kNvmPhysBase + g;
        isNvm = true;
        return true;
    }
    if (!isDaxAddr(vaddr)) {
        if (vaddr >= dram_.size())
            return false;
        paddr = vaddr;
        isNvm = false;
        return true;
    }
    std::size_t vpage =
        static_cast<std::size_t>((vaddr - kDaxBase) / kPageBytes);
    if (vpage >= daxPageTable_.size() ||
        daxPageTable_[vpage] == kUnmapped) {
        return false;
    }
    paddr = kNvmPhysBase + daxPageTable_[vpage] + pageOffset(vaddr);
    isNvm = true;
    return true;
}

MemorySystem::Translation
MemorySystem::translateOrDie(Addr vaddr) const
{
    Translation t{};
    panic_if(!translate(vaddr, t.paddr, t.isNvm),
             "access to unmapped address %llx",
             static_cast<unsigned long long>(vaddr));
    return t;
}

std::uint8_t *
MemorySystem::funcPtr(Addr paddr, bool isNvm)
{
    if (isNvm)
        return nvmCur_.data() + nvmGlobal(paddr);
    return dram_.data() + paddr;
}

void
MemorySystem::setCurrentLine(Addr g, const std::uint8_t *line)
{
    std::memcpy(nvmCur_.data() + g, line, kLineBytes);
    curChanged_.mark(g);
    if (lost_ != nullptr)
        lost_->unmark(g);
}

void
MemorySystem::readCurrent(Addr g, std::uint8_t *out, std::size_t len) const
{
    std::memcpy(out, nvmCur_.data() + g, len);
    if (lost_ == nullptr)
        return;
    for (Addr line = lineBase(g); line < g + len; line += kLineBytes) {
        if (!lost_->test(line))
            continue;
        Addr from = std::max(line, g);
        Addr to = std::min(line + kLineBytes, g + len);
        std::memset(out + (from - g), NvmDimm::kPoisonByte, to - from);
    }
}

Addr
MemorySystem::dramAlloc(std::size_t bytes, std::size_t align)
{
    dramBrk_ = (dramBrk_ + align - 1) & ~static_cast<Addr>(align - 1);
    Addr base = dramBrk_;
    fatal_if(base + bytes > dram_.size(),
             "DRAM exhausted: need %zu more bytes", bytes);
    dramBrk_ += bytes;
    return base;
}

void
MemorySystem::mapDaxPage(std::size_t vpage, Addr nvmPage)
{
    panic_if(vpage >= daxPageTable_.size(), "vpage out of range");
    panic_if(daxPageTable_[vpage] != kUnmapped, "vpage already mapped");
    daxPageTable_[vpage] = nvmPage;
}

void
MemorySystem::unmapDaxPage(std::size_t vpage)
{
    panic_if(vpage >= daxPageTable_.size() ||
                 daxPageTable_[vpage] == kUnmapped,
             "unmap of unmapped vpage");
    daxPageTable_[vpage] = kUnmapped;
}

void
MemorySystem::peek(Addr vaddr, void *buf, std::size_t len) const
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        Translation t = translateOrDie(vaddr);
        std::size_t chunk =
            std::min(len, kPageBytes - pageOffset(vaddr));
        if (t.isNvm)
            readCurrent(nvmGlobal(t.paddr), out, chunk);
        else
            std::memcpy(out, dram_.data() + t.paddr, chunk);
        vaddr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MemorySystem::poke(Addr vaddr, const void *buf, std::size_t len)
{
    panic_if(isDaxAddr(vaddr),
             "poke into NVM is forbidden; use timed writes or DaxFs");
    panic_if(vaddr + len > dram_.size(), "poke out of DRAM range");
    std::memcpy(dram_.data() + vaddr, buf, len);
}

//
// Timed access path
//

void
MemorySystem::read(int tid, Addr vaddr, void *buf, std::size_t len)
{
    if (traceSink_ != nullptr && traceSink_->active())
        traceSink_->onRead(tid, vaddr, len);
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        std::size_t off = lineOffset(vaddr);
        std::size_t chunk = std::min(len, kLineBytes - off);
        accessLine(tid, lineBase(vaddr), off, chunk, out, false);
        vaddr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MemorySystem::write(int tid, Addr vaddr, const void *buf, std::size_t len)
{
    if (traceSink_ != nullptr && traceSink_->active())
        traceSink_->onWrite(tid, vaddr, buf, len);
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        std::size_t off = lineOffset(vaddr);
        std::size_t chunk = std::min(len, kLineBytes - off);
        accessLine(tid, lineBase(vaddr), off, chunk,
                   const_cast<std::uint8_t *>(in), true);
        vaddr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::uint64_t
MemorySystem::read64(int tid, Addr vaddr)
{
    std::uint64_t v;
    read(tid, vaddr, &v, 8);
    return v;
}

void
MemorySystem::write64(int tid, Addr vaddr, std::uint64_t value)
{
    write(tid, vaddr, &value, 8);
}

std::uint32_t
MemorySystem::read32(int tid, Addr vaddr)
{
    std::uint32_t v;
    read(tid, vaddr, &v, 4);
    return v;
}

void
MemorySystem::write32(int tid, Addr vaddr, std::uint32_t value)
{
    write(tid, vaddr, &value, 4);
}

void
MemorySystem::compute(int tid, Cycles cycles)
{
    if (traceSink_ != nullptr && traceSink_->active())
        traceSink_->onCompute(tid, cycles);
    // Thread ids alias onto cores; work by two tids on one core
    // serializes, so accumulating per core is the fixed-work view.
    stats_.threadCycles[cores_.mod(static_cast<std::size_t>(tid))] +=
        cycles;
}

void
MemorySystem::computeChecksum(int tid, std::size_t bytes)
{
    bool rec = traceSink_ != nullptr && traceSink_->active();
    if (rec)
        traceSink_->onComputeChecksum(tid, bytes);
    // Suspend over the body: the internal compute() charge belongs to
    // this event and must not be recorded separately.
    trace::SinkSuspend guard(rec ? traceSink_ : nullptr);
    stats_.swChecksumBytes += bytes;
    compute(tid, static_cast<Cycles>(
                     static_cast<double>(bytes) /
                     cfg_.swChecksumBytesPerCycle));
}

void
MemorySystem::accessLine(int tid, Addr vaddr, std::size_t offset,
                         std::size_t len, void *buf, bool isWrite)
{
    Translation t = translateOrDie(vaddr);
    auto core = cores_.mod(static_cast<std::size_t>(tid));
    Cycles lat = 0;

    stats_.l1Accesses++;
    Cache &l1 = l1_[core];
    Cache::Line *l1_line = l1.probe(t.paddr);
    if (l1_line != nullptr) {
        stats_.l1Energy += cfg_.l1.hitEnergy;
        l1.touch(*l1_line);
        lat += cfg_.l1.latency;
    } else {
        stats_.l1Energy += cfg_.l1.missEnergy;
        stats_.l1Misses++;
        lat += cfg_.l1.latency;

        stats_.l2Accesses++;
        Cache &l2 = l2_[core];
        Cache::Line *l2_line = l2.probe(t.paddr);
        if (l2_line != nullptr) {
            stats_.l2Energy += cfg_.l2.hitEnergy;
            l2.touch(*l2_line);
            lat += cfg_.l2.latency;
        } else {
            stats_.l2Energy += cfg_.l2.missEnergy;
            stats_.l2Misses++;
            lat += cfg_.l2.latency;

            llcEnsure(static_cast<int>(core), t.paddr, t.isNvm, isWrite,
                      lat);

            // Fill L2 (inclusive of L1).
            Cache::Victim victim;
            l2_line = &l2.insert(t.paddr, victim);
            if (victim.valid) {
                bool dirty = victim.dirty;
                if (Cache::Line *v1 = l1.probe(victim.addr)) {
                    dirty = dirty || v1->dirty;
                    l1.invalidate(*v1);
                }
                if (dirty) {
                    std::size_t vbank = bankOf(victim.addr);
                    Cache::Line *llc_victim =
                        llc_[vbank].probe(victim.addr);
                    panic_if(llc_victim == nullptr,
                             "LLC inclusion violated (L2 victim)");
                    markLlcDirty(vbank, *llc_victim);
                }
            }
        }

        // Fill L1.
        Cache::Victim victim;
        l1_line = &l1.insert(t.paddr, victim);
        if (victim.valid && victim.dirty) {
            Cache::Line *l2_home = l2.probe(victim.addr);
            panic_if(l2_home == nullptr,
                     "L2 inclusion violated (L1 victim)");
            l2_home->dirty = true;
        }
    }

    // Functional data movement against the current-value store.
    // Cycles are charged straight to the already-resolved core —
    // going through compute(tid, ...) would redo the tid->core
    // reduction on every single access.
    std::uint8_t *cur = funcPtr(t.paddr, t.isNvm);
    if (isWrite) {
        std::memcpy(cur + offset, buf, len);
        l1_line->dirty = true;
        // Stores drain through the store queue: only a fraction of
        // the miss path stalls the thread.
        stats_.threadCycles[core] +=
            cfg_.storeIssueCycles +
            static_cast<Cycles>(cfg_.storeMissLatencyFactor *
                                static_cast<double>(lat));
    } else {
        std::memcpy(buf, cur + offset, len);
        stats_.threadCycles[core] += lat;
    }
}

bool
MemorySystem::isRedundancyAddr(Addr nvmAddr) const
{
    return layout_.isMetaAddr(nvmAddr) ||
        (layout_.isDataAddr(nvmAddr) && layout_.isParityPage(nvmAddr));
}

Cache::Line *
MemorySystem::llcEnsure(int core, Addr paddr, bool isNvm, bool isWrite,
                        Cycles &lat)
{
    std::size_t bank = bankOf(paddr);
    Cache &llc = llc_[bank];
    stats_.llcAccesses++;
    lat += cfg_.llcBank.latency;

    Cache::Line *line = llc.probe(paddr);
    if (line != nullptr) {
        stats_.llcEnergy += cfg_.llcBank.hitEnergy;
        llc.touch(*line);
        // Keep a running stream alive: demand hits on prefetched
        // lines must extend the prefetch window, or the prefetcher
        // stalls on its own success.
        if (!isWrite)
            maybePrefetch(static_cast<std::size_t>(core), paddr, isNvm);
    } else {
        stats_.llcEnergy += cfg_.llcBank.missEnergy;
        stats_.llcMisses++;
        if (isNvm) {
            lat += fillNvmLine(bank, nvmGlobal(paddr));
        } else {
            stats_.dramReads++;
            stats_.dramEnergy += cfg_.dram.accessEnergy;
            lat += cfg_.nsToCycles(cfg_.dram.accessNs);
        }
        Cache::Victim victim;
        line = &llc.insert(paddr, victim);
        llcHandleVictim(bank, victim);
        if (!isWrite &&
            // The next-line prefetcher trains on load misses only;
            // store streams drain through the store queue instead.
            maybePrefetch(static_cast<std::size_t>(core), paddr,
                          isNvm)) {
            line = llc.probe(paddr);  // prefetch reshuffled the set
            panic_if(line == nullptr, "demand line lost during prefetch");
        }
    }

    // Coherence with other cores' private copies.
    std::uint32_t others =
        line->sharers & ~(1u << static_cast<unsigned>(core));
    if (others != 0) {
        for (std::size_t c = 0; c < l1_.size(); c++) {
            if (!(others & (1u << c)))
                continue;
            bool dirty = false;
            if (Cache::Line *p = l1_[c].probe(paddr)) {
                dirty = dirty || p->dirty;
                if (isWrite)
                    l1_[c].invalidate(*p);
                else
                    p->dirty = false;
            }
            if (Cache::Line *p = l2_[c].probe(paddr)) {
                dirty = dirty || p->dirty;
                if (isWrite)
                    l2_[c].invalidate(*p);
                else
                    p->dirty = false;
            }
            if (dirty)
                markLlcDirty(bank, *line);
            if (isWrite)
                line->sharers &= ~(1u << c);
        }
    }
    line->sharers |= 1u << static_cast<unsigned>(core);
    return line;
}

bool
MemorySystem::maybePrefetch(std::size_t core, Addr paddr, bool isNvm)
{
    std::uint64_t line_no = lineNumber(paddr);
    std::uint64_t prev = lastMissLine_[core];
    lastMissLine_[core] = line_no;
    if (cfg_.prefetchDegree == 0 || line_no != prev + 1)
        return false;
    bool issued = false;
    for (std::size_t i = 1; i <= cfg_.prefetchDegree; i++) {
        Addr next = paddr + i * kLineBytes;
        if (pageBase(next) != pageBase(paddr))
            break;  // hardware prefetchers stop at page boundaries
        if (!isNvm && next >= dram_.size())
            break;
        prefetchLine(next, isNvm);
        issued = true;
    }
    return issued;
}

void
MemorySystem::prefetchLine(Addr paddr, bool isNvm)
{
    std::size_t bank = bankOf(paddr);
    Cache &llc = llc_[bank];
    if (llc.probe(paddr) != nullptr)
        return;
    stats_.llcAccesses++;
    stats_.llcEnergy += cfg_.llcBank.missEnergy;
    stats_.llcMisses++;
    if (isNvm) {
        fillNvmLine(bank, nvmGlobal(paddr));
    } else {
        stats_.dramReads++;
        stats_.dramEnergy += cfg_.dram.accessEnergy;
    }
    Cache::Victim victim;
    llc.insert(paddr, victim);
    llcHandleVictim(bank, victim);
}

Cycles
MemorySystem::fillNvmLine(std::size_t bank, Addr g)
{
    std::uint8_t media[kLineBytes];
    Cycles lat;
    if (nvm_.anyDegraded() && nvm_.lineDegraded(g)) {
        lat = degradedFill(bank, g, media);
    } else {
        lat = nvm_.access(g, false, media, isRedundancyAddr(g));
        if (engine_.isDaxData(g))
            engine_.verifyFill(bank, g, media);
    }
    // The fill's view becomes the architectural value.
    setCurrentLine(g, media);
    return lat;
}

void
MemorySystem::markLlcDirty(std::size_t bank, Cache::Line &line)
{
    line.dirty = true;
    Addr paddr = llc_[bank].addrOf(line);
    if (!isNvmPhys(paddr))
        return;
    Addr g = nvmGlobal(paddr);
    if (!engine_.isDaxData(g))
        return;
    if (auto evicted = engine_.captureDiff(bank, g)) {
        // A diff-partition eviction forces an early writeback of the
        // victim's data line; the data line itself stays cached, clean.
        Addr victim_paddr = kNvmPhysBase + *evicted;
        Cache::Line *victim_line = llc_[bank].probe(victim_paddr);
        panic_if(victim_line == nullptr || !victim_line->dirty,
                 "diff stored for a non-dirty LLC line");
        writebackNvmLine(bank, victim_paddr, true);
        victim_line->dirty = false;
    }
}

void
MemorySystem::writebackNvmLine(std::size_t bank, Addr paddr,
                               bool forcedByDiffEviction)
{
    Addr g = nvmGlobal(paddr);
    panic_if(lost_ != nullptr && lost_->test(g),
             "NVM line %llx is cached but in the lost set",
             static_cast<unsigned long long>(g));
    std::uint8_t *cur = funcPtr(paddr, true);
    if (engine_.isDaxData(g))
        engine_.updateRedundancy(bank, g, cur, forcedByDiffEviction);
    if (nvm_.anyDegraded() && nvm_.writeBlocked(g)) {
        // The home DIMM is dead: the data write is dropped — but the
        // redundancy update above already absorbed the new value into
        // parity, so a degraded read reconstructs it. The write is
        // lost only where no scheme maintains parity, and then it is
        // *detectably* lost (checksums) or pinned as unprotected
        // (Baseline).
        stats_.degradedWritesDropped++;
        return;
    }
    nvm_.access(g, true, cur, isRedundancyAddr(g));
}

void
MemorySystem::llcHandleVictim(std::size_t bank,
                              const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    // A dirty NVM victim ends in updateRedundancy's old-line media
    // read — a near-guaranteed host cache miss into the big media
    // array. Start that miss now so it overlaps the back-invalidation
    // probes and the controller dispatch (host-side only, no simulated
    // effect; spurious for clean victims, which is harmless).
    if (isNvmPhys(victim.addr))
        nvm_.prefetchRaw(nvmGlobal(victim.addr));
    bool dirty = victim.dirty;
    // Back-invalidate private copies (strict inclusion).
    if (victim.sharers != 0) {
        for (std::size_t c = 0; c < l1_.size(); c++) {
            if (!(victim.sharers & (1u << c)))
                continue;
            if (Cache::Line *p = l1_[c].probe(victim.addr)) {
                dirty = dirty || p->dirty;
                l1_[c].invalidate(*p);
            }
            if (Cache::Line *p = l2_[c].probe(victim.addr)) {
                dirty = dirty || p->dirty;
                l2_[c].invalidate(*p);
            }
        }
    }
    if (isNvmPhys(victim.addr)) {
        if (dirty)
            writebackNvmLine(bank, victim.addr, false);
        else
            engine_.dropDiff(bank, nvmGlobal(victim.addr));
    } else if (dirty) {
        stats_.dramWrites++;
        stats_.dramEnergy += cfg_.dram.accessEnergy;
    }
}

void
MemorySystem::failDimm(std::size_t dimm)
{
    // A second fault on a DIMM that was mid-rebuild throws that
    // rebuild's progress away: the sweep must start over once the
    // device is replaced again. Counted here (not in the engine's
    // resync) so the accounting does not depend on whether an engine
    // happened to observe the fail/replace transition.
    if (nvm_.dimmState(dimm) == NvmArray::DimmState::Rebuilding)
        stats_.rebuildRestarts++;
    // Order matters: the array flips the DIMM state and drops its
    // media first, so everything below sees the degraded world.
    nvm_.failDimm(dimm);
    // Cached redundancy lines homed on the dead DIMM could never be
    // written back; the rebuild engine recomputes them from data.
    engine_.invalidateRedLinesOfDimm(dimm);
    // Current values that no cache still holds are architecturally
    // lost until reconstructed: they join the lost set, which reads as
    // poison, so any path that consumes one without going through a
    // (reconstructing) fill is loudly wrong, never silently stale. LLC
    // inclusion makes the walk of the LLC banks cover the private
    // levels too.
    if (lost_ == nullptr)
        lost_ = std::make_unique<LineBitmap>(nvmCur_.size());
    for (Addr m = 0; m < cfg_.nvm.dimmBytes; m += kPageBytes)
        lost_->markRange(nvm_.globalAddrOf(dimm, m), kPageBytes);
    for (Cache &bank : llc_) {
        bank.forEachLine([&](Cache::Line &line) {
            Addr paddr = bank.addrOf(line);
            if (isNvmPhys(paddr))
                lost_->unmark(nvmGlobal(paddr));
        });
    }
}

void
MemorySystem::replaceDimm(std::size_t dimm)
{
    nvm_.replaceDimm(dimm);
}

void
MemorySystem::memberLine(Addr nvmAddr, std::uint8_t *out, bool charge)
{
    if (engine_.isDaxData(nvmAddr)) {
        // At-rest-world designs maintain parity against media values.
        nvm_.rawRead(nvmAddr, out, kLineBytes);
    } else {
        // Software schemes update parity synchronously with the data
        // write (DaxFs pwrite; TxB schemes at commit), i.e. against
        // current values.
        readCurrent(nvmAddr, out, kLineBytes);
    }
    if (charge)
        nvm_.charge(nvmAddr, false, false);
}

bool
MemorySystem::stripeIsEngineWorld(Addr line)
{
    std::vector<Addr> pages;
    layout_.stripeDataPages(line, pages);
    for (Addr p : pages) {
        if (engine_.isDaxData(p))
            return true;
    }
    return false;
}

bool
MemorySystem::reconstructLine(Addr nvmAddr, std::uint8_t *out, bool charge)
{
    Addr line = lineBase(nvmAddr);
    if (layout_.isMetaAddr(line)) {
        // Checksum metadata is not parity protected: its content is
        // gone with the DIMM. Loud poison turns every downstream
        // checksum consumer's mismatch into a *detected* loss instead
        // of a silent wrong answer; the rebuild engine recomputes the
        // slots from data.
        std::memset(out, NvmDimm::kPoisonByte, kLineBytes);
        return false;
    }
    if (!layout_.isDataAddr(line)) {
        // Capacity beyond the last full stripe is never allocated.
        std::memset(out, 0, kLineBytes);
        return true;
    }
    // Whichever world maintains the stripe's parity supplies the
    // surviving members: the engine's at-rest world (data from media,
    // parity through its coherent caches) or current values.
    bool engine_world = stripeIsEngineWorld(line);
    return recoverStripeLine(
        layout_, code_, nvm_, line, out,
        [&](Addr member, bool parity, std::uint8_t *buf) {
            if (!engine_world)
                memberLine(member, buf, false);
            else if (parity)
                engine_.peekRedLine(member, buf);
            else
                nvm_.rawRead(member, buf, kLineBytes);
            if (charge)
                nvm_.charge(member, false, parity);
        });
}

Cycles
MemorySystem::degradedFill(std::size_t bank, Addr g, std::uint8_t *media)
{
    stats_.degradedReads++;
    if (nvm_.degradedCount() >= 2)
        stats_.degradedReadsMulti++;
    if (!reconstructLine(g, media, true)) {
        // Erasure overflow is detected at decode time, independent of
        // whether this line's checksum storage survived.
        stats_.corruptionsDetected++;
    }
    // The surviving DIMMs are read in parallel: one device latency on
    // the demand path (per-member occupancy and energy are charged by
    // reconstructLine above).
    Cycles lat = nvm_.readLatency();
    if (engine_.isDaxData(g))
        lat += engine_.verifyReconstructed(bank, g, media);
    return lat;
}

void
MemorySystem::refreshCurIfUncached(Addr nvmAddr, const std::uint8_t *data)
{
    Addr g = lineBase(nvmAddr);
    Addr paddr = kNvmPhysBase + g;
    if (llc_[bankOf(paddr)].probe(paddr) != nullptr)
        return;
    // Compare first: the rebuild re-derives every line of a device,
    // most of them zero, and rewriting equal bytes would fault in
    // store pages that nothing else touches.
    if (lost_ != nullptr)
        lost_->unmark(g);
    if (std::memcmp(nvmCur_.data() + g, data, kLineBytes) != 0)
        setCurrentLine(g, data);
}

void
MemorySystem::rebuildRead(Addr nvmAddr, std::uint8_t *out)
{
    Addr line = lineBase(nvmAddr);
    if (nvm_.anyDegraded() && nvm_.lineDegraded(line))
        reconstructLine(line, out, false);
    else
        memberLine(line, out, false);
}

void
MemorySystem::refreshDegradedCurrent()
{
    std::uint8_t buf[kLineBytes];
    for (std::size_t d = 0; d < cfg_.nvm.dimms; d++) {
        if (nvm_.dimmState(d) == NvmArray::DimmState::Healthy)
            continue;
        Addr start = nvm_.dimmState(d) == NvmArray::DimmState::Rebuilding
            ? nvm_.rebuildWatermark(d)
            : 0;
        for (Addr m = start; m < cfg_.nvm.dimmBytes; m += kLineBytes) {
            Addr g = nvm_.globalAddrOf(d, m);
            reconstructLine(g, buf, false);
            setCurrentLine(g, buf);
        }
    }
}

bool
MemorySystem::saveNvmImage(const std::string &path)
{
    // Only flushed (at-rest) state survives a power cycle.
    flushAll();
    return nvm_.saveImage(path);
}

bool
MemorySystem::loadNvmImage(const std::string &path)
{
    if (!nvm_.loadImage(path))
        return false;
    dropCaches();  // cold machine; current values = media
    return true;
}

void
MemorySystem::dropCaches()
{
    if (traceSink_ != nullptr && traceSink_->active())
        traceSink_->onDropCaches();
    flushAll();
    for (auto &c : l1_)
        c.reset();
    for (auto &c : l2_)
        c.reset();
    for (auto &c : llc_)
        c.reset();
    engine_.dropCleanState();
    // Re-sync the current-value store with the media so the cold
    // state is exactly what fills will observe. By curChanged_'s
    // invariant only the pages either side marked can differ.
    nvm_.drainChangedPages(curChanged_);
    curChanged_.forEach([&](std::size_t page) {
        Addr g = static_cast<Addr>(page) * kPageBytes;
        nvm_.rawRead(g, nvmCur_.data() + g, kPageBytes);
    });
    curChanged_.clear();
    // A degraded DIMM's media reads as poison; re-derive whatever is
    // recoverable so cold fills observe the reconstructed values.
    if (nvm_.anyDegraded())
        refreshDegradedCurrent();
    // Every lost line's DIMM failed since the last re-sync, and its
    // failure marked all of the DIMM's pages: the copy above and the
    // re-derivation replaced every lost value.
    if (lost_ != nullptr)
        lost_->clear();
}

void
MemorySystem::refreshFromMedia(Addr vaddr, std::size_t len)
{
    while (len > 0) {
        Translation t = translateOrDie(vaddr);
        panic_if(!t.isNvm, "refreshFromMedia on a DRAM address");
        std::size_t chunk =
            std::min(len, kPageBytes - pageOffset(vaddr));
        // Current value := media, so the page needs no mark, and no
        // line of the chunk is lost any more.
        Addr g = nvmGlobal(t.paddr);
        nvm_.rawRead(g, funcPtr(t.paddr, true), chunk);
        if (lost_ != nullptr) {
            for (Addr line = g; line < g + chunk; line += kLineBytes)
                lost_->unmark(line);
        }
        vaddr += chunk;
        len -= chunk;
    }
}

void
MemorySystem::flushAll()
{
    // Private caches first: propagate dirty bits down to the LLC so
    // diffs are captured through the normal path.
    auto push_down = [&](Cache &cache) {
        cache.forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            Addr paddr = cache.addrOf(line);
            std::size_t bank = bankOf(paddr);
            Cache::Line *llc_line = llc_[bank].probe(paddr);
            panic_if(llc_line == nullptr, "LLC inclusion violated in flush");
            markLlcDirty(bank, *llc_line);
            line.dirty = false;
        });
    };
    for (std::size_t c = 0; c < l1_.size(); c++) {
        push_down(l1_[c]);
        push_down(l2_[c]);
    }
    for (std::size_t b = 0; b < llc_.size(); b++) {
        llc_[b].forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            Addr paddr = llc_[b].addrOf(line);
            if (isNvmPhys(paddr)) {
                writebackNvmLine(b, paddr, false);
            } else {
                stats_.dramWrites++;
                stats_.dramEnergy += cfg_.dram.accessEnergy;
            }
            line.dirty = false;
        });
    }
    engine_.flushRedundancy();
}

}  // namespace tvarak
