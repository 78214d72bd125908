#include "core/tvarak.hh"

#include <cstring>

#include "checksum/checksum.hh"
#include "core/stripe.hh"
#include "kernels/kernels.hh"
#include "sim/log.hh"

namespace tvarak {

namespace {

/** One page's DAX-CL slots, contiguous in the checksum region. */
constexpr std::size_t kDaxClSlotBytes = kLinesPerPage * kChecksumBytes;

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
store64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);
}

}  // namespace

TvarakEngine::TvarakEngine(const SimConfig &cfg, const Coverage &coverage,
                           Layout &layout, const RsCode &code,
                           NvmArray &nvm, Stats &stats)
    : cfg_(cfg),
      params_(cfg.tvarak),
      keepsParity_(coverage.controllerKeepsParity()),
      daxClChecksums_(coverage.mappedChecksum == MappedChecksum::DaxCl),
      redundancyCaching_(coverage.redundancyCaching),
      dataDiffs_(coverage.dataDiffs),
      layout_(layout),
      code_(code),
      nvm_(nvm),
      stats_(stats),
      banks_(cfg.llcBanks),
      daxPages_(layout.dataPages(), false)
{
    // Only the partitions the design's coverage reserves are built:
    // every other design keeps all of its LLC ways for data.
    std::size_t llc_sets =
        cfg.llcBank.sizeBytes / (cfg.llcBank.ways * kLineBytes);
    for (std::size_t b = 0; b < cfg.llcBanks; b++) {
        if (redundancyCaching_) {
            ctrlCaches_.push_back(Cache::fromSize(
                "tvarak-ctrl" + std::to_string(b), params_.cacheBytes,
                params_.cacheWays, 1, true));
            llcRedPartitions_.emplace_back(
                "llc-red" + std::to_string(b), llc_sets,
                params_.redundancyWays, cfg.llcBanks, true);
        }
        if (dataDiffs_) {
            diffPartitions_.emplace_back("llc-diff" + std::to_string(b),
                                         llc_sets, params_.diffWays,
                                         cfg.llcBanks);
        }
    }
}

std::size_t
TvarakEngine::dedicatedBytesPerController() const
{
    // Only the on-controller cache occupies dedicated SRAM; the LLC
    // partitions are borrowed ways (paper Section III-E: 4 KB per 2 MB
    // bank = 0.2% dedicated area).
    return params_.cacheBytes;
}

double
TvarakEngine::dedicatedAreaShare() const
{
    return static_cast<double>(dedicatedBytesPerController()) /
        static_cast<double>(cfg_.llcBank.sizeBytes);
}

void
TvarakEngine::registerDaxPage(Addr nvmPage)
{
    panic_if(!layout_.isDataAddr(nvmPage) || pageOffset(nvmPage) != 0,
             "bad DAX page registration");
    if (keepsParity_)
        daxPages_[pageNumber(nvmPage - layout_.dataBase())] = true;
}

void
TvarakEngine::unregisterDaxPage(Addr nvmPage)
{
    daxPages_[pageNumber(nvmPage - layout_.dataBase())] = false;
}

std::size_t
TvarakEngine::homeBank(Addr raddr) const
{
    return static_cast<std::size_t>(banks_.mod(lineNumber(raddr)));
}

//
// Redundancy-line access path
//

void
TvarakEngine::classifyRedNvmAccess(Addr raddr)
{
    if (layout_.isMetaAddr(raddr))
        stats_.nvmCsumLineAccesses++;
    else
        stats_.nvmParityLineAccesses++;
}

Cycles
TvarakEngine::redLineAccessUncached(Addr raddr, bool write,
                                    std::uint8_t *buf, bool demand)
{
    classifyRedNvmAccess(raddr);
    Cycles lat = write ? nvm_.access(raddr, true, buf, true)
                       : nvm_.access(raddr, false, buf, true);
    return demand ? lat : 0;
}

Cache::Line &
TvarakEngine::homeLine(Addr raddr)
{
    Cache::Line *home = llcRedPartitions_[homeBank(raddr)].probe(raddr);
    panic_if(home == nullptr, "inclusion violated for redundancy line");
    return *home;
}

void
TvarakEngine::recallOwner(Addr raddr, Cache::Line &home,
                          std::size_t exceptCtrl)
{
    if (home.owner < 0)
        return;
    auto owner = static_cast<std::size_t>(home.owner);
    if (owner == exceptCtrl)
        return;
    Cache::Line *line = ctrlCaches_[owner].probe(raddr);
    panic_if(line == nullptr, "directory owner lost the line");
    // M -> S: push the dirty data down to the (inclusive) LLC copy.
    std::memcpy(homeData(raddr, home), ctrlCaches_[owner].dataOf(*line),
                kLineBytes);
    home.dirty = home.dirty || line->dirty;
    line->dirty = false;
    home.owner = -1;
    stats_.redundancyInvalidations++;
}

void
TvarakEngine::invalidateOtherSharers(std::size_t ctrl, Addr raddr,
                                     Cache::Line &home)
{
    for (std::size_t c = 0; c < ctrlCaches_.size(); c++) {
        if (c == ctrl || !(home.sharers & (1u << c)))
            continue;
        // Owned copies were recalled before we got here.
        ctrlCaches_[c].invalidate(raddr);
        stats_.redundancyInvalidations++;
    }
    home.sharers = 1u << ctrl;
    home.owner = static_cast<std::int8_t>(ctrl);
}

void
TvarakEngine::dropRedLine(Addr raddr)
{
    if (llcRedPartitions_.empty())
        return;  // no redundancy caching: nothing is cached
    Cache &part = llcRedPartitions_[homeBank(raddr)];
    Cache::Line *home = part.probe(raddr);
    if (home == nullptr)
        return;  // inclusion: no controller holds it either
    for (std::size_t c = 0; c < ctrlCaches_.size(); c++) {
        if (home->sharers & (1u << c))
            ctrlCaches_[c].invalidate(raddr);
    }
    part.invalidate(*home);
}

void
TvarakEngine::handleCtrlVictim(std::size_t ctrl, const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    Cache::Line &home = homeLine(victim.addr);
    home.sharers &= ~(1u << ctrl);
    if (home.owner == static_cast<std::int8_t>(ctrl))
        home.owner = -1;
    if (victim.dirty) {
        std::memcpy(homeData(victim.addr, home), victim.data.data(),
                    kLineBytes);
        home.dirty = true;
    }
}

void
TvarakEngine::handleLlcRedVictim(const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    auto data = victim.data;
    bool dirty = victim.dirty;
    // Back-invalidate controller copies (inclusive hierarchy); a dirty
    // owner copy supersedes the LLC data. The victim carries the
    // line's directory entry.
    if (victim.owner >= 0) {
        auto owner = static_cast<std::size_t>(victim.owner);
        Cache::Line *line = ctrlCaches_[owner].probe(victim.addr);
        panic_if(line == nullptr, "directory owner lost the line");
        std::memcpy(data.data(), ctrlCaches_[owner].dataOf(*line),
                    kLineBytes);
        dirty = dirty || line->dirty;
    }
    for (std::size_t c = 0; c < ctrlCaches_.size(); c++) {
        if (victim.sharers & (1u << c)) {
            ctrlCaches_[c].invalidate(victim.addr);
            stats_.redundancyInvalidations++;
        }
    }
    if (dirty) {
        if (nvm_.writeBlocked(victim.addr)) {
            stats_.degradedWritesDropped++;
            return;
        }
        classifyRedNvmAccess(victim.addr);
        nvm_.access(victim.addr, true, data.data(), true);
    }
}

Cycles
TvarakEngine::redLineAccess(std::size_t ctrl, Addr raddr, bool write,
                            std::uint8_t *buf, bool demand)
{
    if (!redundancyCaching_)
        return redLineAccessUncached(raddr, write, buf, demand);

    Cycles cycles = params_.cacheLatency;
    stats_.tvarakCacheAccesses++;
    Cache &cache = ctrlCaches_[ctrl];
    Cache::Line *line = cache.probe(raddr);
    Cache::Line *home = nullptr;
    if (line != nullptr) {
        stats_.tvarakEnergy += params_.cacheHitEnergy;
    } else {
        stats_.tvarakEnergy += params_.cacheMissEnergy;
        stats_.tvarakCacheMisses++;

        // Probe the (inclusive) LLC way-partition at the home bank,
        // recalling any dirty copy from another controller first; on
        // a miss, fill it from NVM.
        stats_.llcAccesses++;
        cycles += cfg_.llcBank.latency;
        Cache &part = llcRedPartitions_[homeBank(raddr)];
        home = part.probe(raddr);
        std::uint8_t fill[kLineBytes];
        if (home != nullptr) {
            recallOwner(raddr, *home, ctrl);
            stats_.llcEnergy += cfg_.llcBank.hitEnergy;
            part.touch(*home);
            std::memcpy(fill, part.dataOf(*home), kLineBytes);
        } else {
            stats_.llcEnergy += cfg_.llcBank.missEnergy;
            stats_.llcMisses++;
            classifyRedNvmAccess(raddr);
            cycles += nvm_.access(raddr, false, fill, true);
            Cache::Victim victim;
            home = &part.insert(raddr, victim);
            handleLlcRedVictim(victim);
            std::memcpy(part.dataOf(*home), fill, kLineBytes);
        }
        // ...then the on-controller cache.
        Cache::Victim victim;
        line = &cache.insert(raddr, victim);
        handleCtrlVictim(ctrl, victim);
        std::memcpy(cache.dataOf(*line), fill, kLineBytes);
        home->sharers |= 1u << ctrl;
    }
    cache.touch(*line);

    if (write) {
        if (home == nullptr)
            home = &homeLine(raddr);
        recallOwner(raddr, *home, ctrl);
        invalidateOtherSharers(ctrl, raddr, *home);
        std::memcpy(cache.dataOf(*line), buf, kLineBytes);
        line->dirty = true;
    } else {
        std::memcpy(buf, cache.dataOf(*line), kLineBytes);
    }
    return demand ? cycles : 0;
}

void
TvarakEngine::peekRedLine(Addr raddr, std::uint8_t *out)
{
    if (redundancyCaching_) {
        // Inclusion: a line no home partition holds is uncached, and
        // a modified controller copy supersedes its home line.
        Cache &part = llcRedPartitions_[homeBank(raddr)];
        if (Cache::Line *home = part.probe(raddr)) {
            if (home->owner < 0) {
                std::memcpy(out, part.dataOf(*home), kLineBytes);
                return;
            }
            Cache &owner = ctrlCaches_[static_cast<std::size_t>(home->owner)];
            Cache::Line *line = owner.probe(raddr);
            panic_if(line == nullptr, "directory owner lost the line");
            std::memcpy(out, owner.dataOf(*line), kLineBytes);
            return;
        }
    }
    nvm_.rawRead(raddr, out, kLineBytes);
}

//
// Verification (NVM -> LLC fills)
//

void
TvarakEngine::verifyFill(std::size_t bank, Addr nvmAddr,
                         std::uint8_t *lineData)
{
    if (verificationBlocked(nvmAddr)) {
        // The checksum storage died with its DIMM; until the rebuild
        // sweep recomputes it there is nothing to verify against.
        stats_.degradedRedSkips++;
        return;
    }
    stats_.readVerifications++;

    if (daxClChecksums_) {
        Addr csum_line = layout_.daxClCsumLine(nvmAddr);
        std::uint8_t buf[kLineBytes];
        redLineAccess(bank, csum_line, false, buf, false);
        std::size_t idx = static_cast<std::size_t>(
            layout_.daxClCsumAddr(nvmAddr) - csum_line);
        if (lineChecksum(lineData) == load64(buf + idx))
            return;
    } else if (naivePageChecksumVerify(bank, nvmAddr, lineData)) {
        return;
    }
    stats_.corruptionsDetected++;
    auto corrected = recoverLine(nvmAddr);
    std::memcpy(lineData, corrected.data(), kLineBytes);
}

std::uint64_t
TvarakEngine::pageChecksumWith(Addr nvmAddr, const std::uint8_t *newData,
                               bool chargeAccesses)
{
    Addr page = pageBase(nvmAddr);
    std::uint8_t content[kPageBytes];
    nvm_.rawRead(page, content, kPageBytes);
    std::memcpy(content + lineInPage(nvmAddr) * kLineBytes, newData,
                kLineBytes);
    if (chargeAccesses) {
        // The accessed line itself is already at hand; the other 63
        // lines are real NVM reads (the naive controller's burden).
        for (std::size_t l = 0; l < kLinesPerPage; l++) {
            if (l == lineInPage(nvmAddr))
                continue;
            nvm_.charge(page + l * kLineBytes, false, true);
        }
    }
    return pageChecksum(content);
}

bool
TvarakEngine::naivePageChecksumVerify(std::size_t bank, Addr nvmAddr,
                                      const std::uint8_t *lineData)
{
    // The 63 sibling-line reads pipeline behind the demand read: they
    // cost NVM occupancy, not demand cycles.
    std::uint64_t actual = pageChecksumWith(nvmAddr, lineData, true);
    Addr entry = layout_.pageCsumAddr(nvmAddr);
    Addr csum_line = lineBase(entry);
    std::uint8_t buf[kLineBytes];
    redLineAccess(bank, csum_line, false, buf, false);
    return actual ==
        load64(buf + static_cast<std::size_t>(entry - csum_line));
}

//
// Updates (LLC -> NVM writebacks)
//

std::optional<Addr>
TvarakEngine::captureDiff(std::size_t bank, Addr nvmAddr)
{
    if (!dataDiffs_)
        return std::nullopt;

    stats_.diffCaptures++;
    // The diff partition is LLC ways: charge an LLC access.
    stats_.llcAccesses++;
    Cache &part = diffPartitions_[bank];
    if (Cache::Line *line = part.probe(nvmAddr)) {
        stats_.llcEnergy += cfg_.llcBank.hitEnergy;
        part.touch(*line);
        return std::nullopt;
    }
    stats_.llcEnergy += cfg_.llcBank.missEnergy;
    Cache::Victim victim;
    part.insert(nvmAddr, victim);
    if (victim.valid) {
        stats_.diffEvictions++;
        return victim.addr;
    }
    return std::nullopt;
}

void
TvarakEngine::updateRedundancy(std::size_t bank, Addr nvmAddr,
                               const std::uint8_t *newData,
                               bool forcedByDiffEviction)
{
    stats_.redundancyUpdates++;

    // The old-line media read below is a near-guaranteed host cache
    // miss into the big media array; start it now so it overlaps the
    // diff-source bookkeeping (host-side only, no simulated effect).
    nvm_.prefetchRaw(nvmAddr);

    // The diff value is always (old media content XOR new data); only
    // *where it comes from* differs between configurations, and that
    // is what the timing model charges for. An evicted diff was handed
    // over by captureDiff and is already accounted.
    if (!forcedByDiffEviction) {
        Cache::Line *diff = dataDiffs_
            ? diffPartitions_[bank].probe(nvmAddr)
            : nullptr;
        if (diff != nullptr) {
            stats_.llcAccesses++;
            stats_.llcEnergy += cfg_.llcBank.hitEnergy;
            diffPartitions_[bank].invalidate(*diff);
        } else {
            // No stored diff (diffs disabled / exclusive LLC): the
            // old data must be re-read from NVM at writeback time.
            nvm_.charge(nvmAddr, false, false);
        }
    }
    std::uint8_t old[kLineBytes];
    bool degraded = nvm_.anyDegraded();
    if (degraded && nvm_.lineDegraded(nvmAddr)) {
        // The old value no longer exists at rest; what reconstruction
        // *would have returned* plays its role, so that the RAID-5
        // degraded-write chain parity' = parity ^ old ^ new keeps
        // reconstructing the newest acknowledged value even though the
        // data write itself will be dropped.
        reconstructFromParity(nvmAddr, old);
    } else {
        nvm_.rawRead(nvmAddr, old, kLineBytes);
    }
    // One fused kernel pass over the line computes the diff, its
    // nonzero-ness, and (when this design stores DAX-CL checksums) the
    // new line's widened checksum.
    bool skip_red = degraded && verificationBlocked(nvmAddr);
    bool want_csum = !skip_red && daxClChecksums_;
    std::uint8_t diff[kLineBytes];
    std::uint64_t csum = 0;
    kernels::KernelSequence seq;
    seq.captureDiff(diff, old, newData);
    if (want_csum)
        seq.checksum(&csum, kDaxClCsumTag);
    bool diff_nonzero = seq.run();

    // Checksum update.
    if (skip_red) {
        stats_.degradedRedSkips++;  // rebuild will recompute the slot
    } else if (daxClChecksums_) {
        Addr csum_line = layout_.daxClCsumLine(nvmAddr);
        std::uint8_t buf[kLineBytes];
        redLineAccess(bank, csum_line, false, buf, false);
        std::size_t idx = static_cast<std::size_t>(
            layout_.daxClCsumAddr(nvmAddr) - csum_line);
        store64(buf + idx, csum);
        redLineAccess(bank, csum_line, true, buf, false);
    } else {
        naivePageChecksumUpdate(bank, nvmAddr, newData);
    }

    // Parity update: parity_j ^= coeff(j, i) * diff preserves the
    // stripe invariant (every parity role encodes the stripe's data
    // at rest) across the caller's subsequent data write. Role 0's
    // coefficient is 1 for every member (plain XOR), so the member's
    // coding index is looked up only for the roles past it.
    if (diff_nonzero) {
        std::size_t data_idx = 0;
        for (std::size_t role = 0; role < layout_.parityCount();
             role++) {
            if (role == 1)
                data_idx = layout_.dataMemberIndexOf(nvmAddr);
            Addr parity_line = layout_.parityLineOf(nvmAddr, role);
            if (degraded && nvm_.lineDegraded(parity_line)) {
                // Parity died with its DIMM; its whole stripe is
                // readable directly, and the rebuild sweep recomputes
                // the line.
                stats_.degradedRedSkips++;
                continue;
            }
            std::uint8_t pbuf[kLineBytes];
            redLineAccess(bank, parity_line, false, pbuf, false);
            code_.updateParity(pbuf, diff, role, data_idx);
            redLineAccess(bank, parity_line, true, pbuf, false);
        }
    }
}

void
TvarakEngine::naivePageChecksumUpdate(std::size_t bank, Addr nvmAddr,
                                      const std::uint8_t *newData)
{
    std::uint64_t csum = pageChecksumWith(nvmAddr, newData, true);
    Addr entry = layout_.pageCsumAddr(nvmAddr);
    Addr csum_line = lineBase(entry);
    std::uint8_t buf[kLineBytes];
    redLineAccess(bank, csum_line, false, buf, false);
    store64(buf + static_cast<std::size_t>(entry - csum_line), csum);
    redLineAccess(bank, csum_line, true, buf, false);
}

//
// Recovery
//

std::array<std::uint8_t, kLineBytes>
TvarakEngine::recoverLine(Addr nvmAddr, bool verifyChecksum)
{
    Addr line_addr = lineBase(nvmAddr);
    stats_.recoveries++;

    bool check = daxClChecksums_ && verifyChecksum;
    std::uint64_t expected = 0;
    if (check) {
        Addr csum_line = layout_.daxClCsumLine(line_addr);
        std::uint8_t buf[kLineBytes];
        peekRedLine(csum_line, buf);
        expected = load64(buf + static_cast<std::size_t>(
                              layout_.daxClCsumAddr(line_addr) - csum_line));
    }

    // First try a plain media re-read: a misdirected *read* leaves the
    // media intact, so the retry already yields the correct line.
    std::array<std::uint8_t, kLineBytes> candidate;
    nvm_.rawRead(line_addr, candidate.data(), kLineBytes);
    if (check && lineChecksum(candidate.data()) == expected)
        return candidate;

    // Rebuild from parity (the degraded read).
    bool decoded = reconstructFromParity(line_addr, candidate.data());
    if (check && decoded) {
        panic_if(lineChecksum(candidate.data()) != expected,
                 "unrecoverable corruption at %llx (double fault?)",
                 static_cast<unsigned long long>(line_addr));
    }
    // Repair the media so subsequent reads are clean; a failed decode
    // leaves poison there, so the loss stays detected, never stale.
    nvm_.rawWrite(line_addr, candidate.data(), kLineBytes);
    return candidate;
}

bool
TvarakEngine::reconstructFromParity(Addr nvmAddr, std::uint8_t *out)
{
    return recoverStripeLine(
        layout_, code_, nvm_, lineBase(nvmAddr), out,
        [&](Addr member, bool parity, std::uint8_t *buf) {
            // Authoritative parity may be dirty in the redundancy
            // caches, so it goes through the coherent peek.
            if (parity)
                peekRedLine(member, buf);
            else
                nvm_.rawRead(member, buf, kLineBytes);
        });
}

//
// Whole-DIMM failure support
//

void
TvarakEngine::invalidateRedLinesOfDimm(std::size_t dimm)
{
    // Inclusion: the home partitions hold every cached redundancy
    // line, and each home line names the controllers sharing it.
    for (auto &part : llcRedPartitions_) {
        part.forEachLine([&](Cache::Line &home) {
            Addr raddr = part.addrOf(home);
            if (nvm_.dimmOf(raddr) == dimm)
                dropRedLine(raddr);
        });
    }
}

bool
TvarakEngine::verificationBlocked(Addr nvmAddr) const
{
    if (!nvm_.anyDegraded())
        return false;
    if (daxClChecksums_)
        return nvm_.lineDegraded(layout_.daxClCsumLine(nvmAddr));
    // Naive mode re-reads the whole page: the page shares one DIMM, so
    // its last line (highest media address) degrades first under the
    // monotonic rebuild watermark.
    Addr page = pageBase(nvmAddr);
    return nvm_.lineDegraded(lineBase(layout_.pageCsumAddr(nvmAddr))) ||
        nvm_.lineDegraded(page + (kLinesPerPage - 1) * kLineBytes);
}

Cycles
TvarakEngine::verifyReconstructed(std::size_t bank, Addr nvmAddr,
                                  std::uint8_t *lineData)
{
    // Naive page-checksum mode can never verify a degraded line: the
    // line's own page is (by definition) partially lost, and the page
    // checksum needs all of it.
    if (!daxClChecksums_ || verificationBlocked(nvmAddr)) {
        stats_.degradedRedSkips++;
        return params_.rangeMatchLatency;
    }
    Cycles cycles = params_.rangeMatchLatency;
    stats_.readVerifications++;
    Addr csum_line = layout_.daxClCsumLine(nvmAddr);
    std::uint8_t buf[kLineBytes];
    cycles += redLineAccess(bank, csum_line, false, buf, true);
    std::uint64_t expected = load64(
        buf + static_cast<std::size_t>(layout_.daxClCsumAddr(nvmAddr) -
                                       csum_line));
    cycles += params_.computeLatency;
    if (lineChecksum(lineData) == expected)
        return cycles;
    // A reconstruction that fails its checksum means a second fault
    // hit the stripe while the DIMM was down: with the redundancy
    // budget exhausted the line is lost, but *detectably* so — serve
    // loud poison, never the silently-wrong reconstruction.
    stats_.corruptionsDetected++;
    std::memset(lineData, NvmDimm::kPoisonByte, kLineBytes);
    return cycles;
}

//
// Maintenance
//

void
TvarakEngine::flushRedundancy()
{
    // Recall every owned line, then write back dirty LLC-partition
    // lines. Controller caches become clean copies.
    for (std::size_t c = 0; c < ctrlCaches_.size(); c++) {
        Cache &ctrl = ctrlCaches_[c];
        ctrl.forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            Addr raddr = ctrl.addrOf(line);
            Cache::Line &home = homeLine(raddr);
            std::memcpy(homeData(raddr, home), ctrl.dataOf(line),
                        kLineBytes);
            home.dirty = true;
            line.dirty = false;
            if (home.owner == static_cast<std::int8_t>(c))
                home.owner = -1;
        });
    }
    for (auto &part : llcRedPartitions_) {
        part.forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            Addr raddr = part.addrOf(line);
            if (nvm_.writeBlocked(raddr)) {
                stats_.degradedWritesDropped++;
            } else {
                classifyRedNvmAccess(raddr);
                nvm_.access(raddr, true, part.dataOf(line), true);
            }
            line.dirty = false;
        });
    }
}

void
TvarakEngine::dropCleanState()
{
    auto assert_clean = [](Cache::Line &line) {
        panic_if(line.dirty, "dropCleanState with dirty redundancy");
    };
    for (auto &c : ctrlCaches_) {
        c.forEachLine(assert_clean);
        c.reset();
    }
    for (auto &p : llcRedPartitions_) {
        p.forEachLine(assert_clean);
        p.reset();
    }
    for (auto &p : diffPartitions_)
        p.reset();
}

void
TvarakEngine::writeDaxClSlots(Addr nvmPage, const std::uint8_t *slots)
{
    panic_if(pageOffset(nvmPage) != 0, "unaligned page");
    // One raw write covers the page's 8 checksum lines, so the device
    // computes 8 line ECCs instead of one per slot. Stale cached
    // copies of those lines must not survive.
    Addr first = layout_.daxClCsumAddr(nvmPage);
    nvm_.rawWrite(first, slots, kDaxClSlotBytes);
    for (Addr line = first; line < first + kDaxClSlotBytes;
         line += kLineBytes)
        dropRedLine(line);
}

void
TvarakEngine::initDaxClChecksums(Addr nvmPage)
{
    // Software (the file system) writes these at dax-map time; the
    // cost is part of mapping, not of steady-state execution, so the
    // writes are untimed.
    std::uint8_t page[kPageBytes];
    nvm_.rawRead(nvmPage, page, kPageBytes);
    std::uint8_t slots[kDaxClSlotBytes];
    for (std::size_t l = 0; l < kLinesPerPage; l++) {
        store64(slots + l * kChecksumBytes,
                lineChecksum(page + l * kLineBytes));
    }
    writeDaxClSlots(nvmPage, slots);
}

void
TvarakEngine::clearDaxClChecksums(Addr nvmPage)
{
    const std::uint8_t zeros[kDaxClSlotBytes] = {};
    writeDaxClSlots(nvmPage, zeros);
}

}  // namespace tvarak
