#include "core/tvarak.hh"

#include <cstring>

#include "checksum/checksum.hh"
#include "kernels/kernels.hh"
#include "sim/log.hh"

namespace tvarak {

namespace {

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
                           Layout &layout, NvmArray &nvm, Stats &stats)
    : cfg_(cfg),
      params_(cfg.tvarak),
      daxClChecksums_(coverage.mappedChecksum == MappedChecksum::DaxCl),
      redundancyCaching_(coverage.redundancyCaching),
      dataDiffs_(coverage.dataDiffs),
      layout_(layout),
      nvm_(nvm),
      stats_(stats),
      banks_(cfg.llcBanks),
      daxPages_(layout.dataPages(), false)
{
    std::size_t llc_sets =
        cfg.llcBank.sizeBytes / (cfg.llcBank.ways * kLineBytes);
    for (std::size_t b = 0; b < banks_; b++) {
        ctrlCaches_.push_back(Cache::fromSize(
            "tvarak-ctrl" + std::to_string(b), params_.cacheBytes,
            params_.cacheWays, 1, true));
        llcRedPartitions_.emplace_back(
            "llc-red" + std::to_string(b), llc_sets,
            params_.redundancyWays, banks_, true);
        diffPartitions_.emplace_back("llc-diff" + std::to_string(b),
                                     llc_sets, params_.diffWays,
                                     banks_);
    }
    if (layout_.parityCount() > 1) {
        rs_ = std::make_unique<RsCode>(layout_.dataCount(),
                                       layout_.parityCount());
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

void
TvarakEngine::registerDaxPage(Addr nvmPage)
{
    panic_if(!layout_.isDataAddr(nvmPage) || pageOffset(nvmPage) != 0,
             "bad DAX page registration");
    daxPages_[pageNumber(nvmPage - layout_.dataBase())] = true;
}

void
TvarakEngine::unregisterDaxPage(Addr nvmPage)
{
    daxPages_[pageNumber(nvmPage - layout_.dataBase())] = false;
}

bool
TvarakEngine::isDaxData(Addr nvmAddr) const
{
    if (!layout_.isDataAddr(nvmAddr))
        return false;
    return daxPages_[pageNumber(nvmAddr - layout_.dataBase())];
}

std::size_t
TvarakEngine::homeBank(Addr raddr) const
{
    return static_cast<std::size_t>(lineNumber(raddr)) % banks_;
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

void
TvarakEngine::recallOwner(Addr raddr, std::size_t exceptCtrl)
{
    auto it = directory_.find(raddr);
    if (it == directory_.end() || it->second.owner < 0)
        return;
    auto owner = static_cast<std::size_t>(it->second.owner);
    if (owner == exceptCtrl)
        return;
    Cache::Line *line = ctrlCaches_[owner].probe(raddr);
    panic_if(line == nullptr, "directory owner lost the line");
    // M -> S: push the dirty data down to the (inclusive) LLC copy.
    Cache &home_cache = llcRedPartitions_[homeBank(raddr)];
    Cache::Line *home = home_cache.probe(raddr);
    panic_if(home == nullptr, "inclusion violated for redundancy line");
    std::memcpy(home_cache.dataOf(*home),
                ctrlCaches_[owner].dataOf(*line), kLineBytes);
    home->dirty = home->dirty || line->dirty;
    line->dirty = false;
    it->second.owner = -1;
    stats_.redundancyInvalidations++;
}

void
TvarakEngine::invalidateOtherSharers(std::size_t ctrl, Addr raddr)
{
    DirEntry &e = directory_[raddr];
    for (std::size_t c = 0; c < banks_; c++) {
        if (c == ctrl || !(e.sharers & (1u << c)))
            continue;
        // Owned copies were recalled before we got here.
        ctrlCaches_[c].invalidate(raddr);
        stats_.redundancyInvalidations++;
    }
    e.sharers = 1u << ctrl;
    e.owner = static_cast<std::int8_t>(ctrl);
}

void
TvarakEngine::handleCtrlVictim(std::size_t ctrl, const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    auto it = directory_.find(victim.addr);
    if (it != directory_.end()) {
        it->second.sharers &= ~(1u << ctrl);
        if (it->second.owner == static_cast<std::int8_t>(ctrl))
            it->second.owner = -1;
        if (it->second.sharers == 0)
            directory_.erase(it);
    }
    if (victim.dirty) {
        Cache &home_cache = llcRedPartitions_[homeBank(victim.addr)];
        Cache::Line *home = home_cache.probe(victim.addr);
        panic_if(home == nullptr,
                 "inclusion violated on controller eviction");
        std::memcpy(home_cache.dataOf(*home), victim.data.data(),
                    kLineBytes);
        home->dirty = true;
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
    // owner copy supersedes the LLC data.
    auto it = directory_.find(victim.addr);
    if (it != directory_.end()) {
        if (it->second.owner >= 0) {
            auto owner = static_cast<std::size_t>(it->second.owner);
            Cache::Line *line = ctrlCaches_[owner].probe(victim.addr);
            panic_if(line == nullptr, "directory owner lost the line");
            std::memcpy(data.data(), ctrlCaches_[owner].dataOf(*line),
                        kLineBytes);
            dirty = dirty || line->dirty;
        }
        for (std::size_t c = 0; c < banks_; c++) {
            if (it->second.sharers & (1u << c)) {
                ctrlCaches_[c].invalidate(victim.addr);
                stats_.redundancyInvalidations++;
            }
        }
        directory_.erase(it);
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

Cache::Line *
TvarakEngine::fillRedLine(std::size_t ctrl, Addr raddr,
                          const std::uint8_t *data)
{
    // Fill the LLC partition first (inclusive backing)...
    Cache &home = llcRedPartitions_[homeBank(raddr)];
    if (home.probe(raddr) == nullptr) {
        Cache::Victim victim;
        Cache::Line &l = home.insert(raddr, victim);
        handleLlcRedVictim(victim);
        std::memcpy(home.dataOf(l), data, kLineBytes);
    }
    // ...then the on-controller cache.
    Cache::Victim victim;
    Cache::Line &line = ctrlCaches_[ctrl].insert(raddr, victim);
    handleCtrlVictim(ctrl, victim);
    std::memcpy(ctrlCaches_[ctrl].dataOf(line), data, kLineBytes);
    DirEntry &e = directory_[raddr];
    e.sharers |= 1u << ctrl;
    return &line;
}

Cycles
TvarakEngine::redLineAccess(std::size_t ctrl, Addr raddr, bool write,
                            std::uint8_t *buf, bool demand)
{
    if (!redundancyCaching_)
        return redLineAccessUncached(raddr, write, buf, demand);

    Cycles cycles = params_.cacheLatency;
    stats_.tvarakCacheAccesses++;
    Cache::Line *line = ctrlCaches_[ctrl].probe(raddr);
    if (line != nullptr) {
        stats_.tvarakEnergy += params_.cacheHitEnergy;
    } else {
        stats_.tvarakEnergy += params_.cacheMissEnergy;
        stats_.tvarakCacheMisses++;

        // Probe the (inclusive) LLC way-partition at the home bank,
        // recalling any dirty copy from another controller first.
        recallOwner(raddr, ctrl);
        stats_.llcAccesses++;
        cycles += cfg_.llcBank.latency;
        Cache &home = llcRedPartitions_[homeBank(raddr)];
        Cache::Line *home_line = home.probe(raddr);
        std::uint8_t fill[kLineBytes];
        if (home_line != nullptr) {
            stats_.llcEnergy += cfg_.llcBank.hitEnergy;
            home.touch(*home_line);
            std::memcpy(fill, home.dataOf(*home_line), kLineBytes);
        } else {
            stats_.llcEnergy += cfg_.llcBank.missEnergy;
            stats_.llcMisses++;
            classifyRedNvmAccess(raddr);
            Cycles lat = nvm_.access(raddr, false, fill, true);
            cycles += lat;
        }
        line = fillRedLine(ctrl, raddr, fill);
    }
    ctrlCaches_[ctrl].touch(*line);

    if (write) {
        recallOwner(raddr, ctrl);
        invalidateOtherSharers(ctrl, raddr);
        std::memcpy(ctrlCaches_[ctrl].dataOf(*line), buf, kLineBytes);
        line->dirty = true;
    } else {
        std::memcpy(buf, ctrlCaches_[ctrl].dataOf(*line), kLineBytes);
    }
    return demand ? cycles : 0;
}

void
TvarakEngine::peekRedLine(Addr raddr, std::uint8_t *out)
{
    if (redundancyCaching_) {
        auto it = directory_.find(raddr);
        if (it != directory_.end() && it->second.owner >= 0) {
            auto owner = static_cast<std::size_t>(it->second.owner);
            Cache::Line *line = ctrlCaches_[owner].probe(raddr);
            panic_if(line == nullptr, "directory owner lost the line");
            std::memcpy(out, ctrlCaches_[owner].dataOf(*line),
                        kLineBytes);
            return;
        }
        Cache &home_cache = llcRedPartitions_[homeBank(raddr)];
        if (Cache::Line *home = home_cache.probe(raddr)) {
            std::memcpy(out, home_cache.dataOf(*home), kLineBytes);
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
    if (onRecovery)
        onRecovery(nvmAddr);
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

bool
TvarakEngine::hasDiff(std::size_t bank, Addr nvmAddr) const
{
    return dataDiffs_ && diffPartitions_[bank].probe(nvmAddr) != nullptr;
}

void
TvarakEngine::dropDiff(std::size_t bank, Addr nvmAddr)
{
    if (dataDiffs_)
        diffPartitions_[bank].invalidate(nvmAddr);
}

void
TvarakEngine::updateRedundancy(std::size_t bank, Addr nvmAddr,
                               const std::uint8_t *newData,
                               DiffSource source)
{
    stats_.redundancyUpdates++;

    // The old-line media read below is a near-guaranteed host cache
    // miss into the big media array; start it now so it overlaps the
    // diff-source bookkeeping (host-side only, no simulated effect).
    nvm_.prefetchRaw(nvmAddr);

    // The diff value is always (old media content XOR new data); only
    // *where it comes from* differs between configurations, and that
    // is what the timing model charges for.
    switch (source) {
      case DiffSource::Stored: {
        Cache &part = diffPartitions_[bank];
        if (part.probe(nvmAddr) != nullptr) {
            stats_.llcAccesses++;
            stats_.llcEnergy += cfg_.llcBank.hitEnergy;
            part.invalidate(nvmAddr);
        } else {
            // Diffs enabled but this line's diff is gone (races with
            // map-time invalidation); model the old-data re-read.
            nvm_.charge(nvmAddr, false, false);
        }
        break;
      }
      case DiffSource::EvictedDiff:
        // Handed to us by captureDiff's eviction; already accounted.
        break;
      case DiffSource::None:
        // No diff storage (diffs disabled / exclusive LLC): the old
        // data must be re-read from NVM at writeback time.
        nvm_.charge(nvmAddr, false, false);
        break;
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

    // Parity update: parity ^= diff preserves the stripe invariant
    // (parity == XOR of the stripe's data pages at rest) across the
    // caller's subsequent data write.
    if (diff_nonzero) {
        std::size_t data_idx =
            rs_ ? layout_.dataMemberIndexOf(nvmAddr) : 0;
        for (std::size_t role = 0; role < layout_.parityCount();
             role++) {
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
            if (rs_)
                rs_->updateParity(pbuf, diff, role, data_idx);
            else
                xorLine(pbuf, diff);
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
    Addr line_addr = lineBase(nvmAddr);
    if (rs_)
        return reconstructRs(line_addr, out);
    panic_if(layout_.isParityPage(line_addr),
             "parity lines are recomputed from members, not from parity");
    std::vector<Addr> pages;
    layout_.stripeDataPages(line_addr, pages);
    std::size_t offset = lineInPage(line_addr) * kLineBytes;
    // Erasure overflow is known at decode time: single parity needs
    // every other stripe member, so a second dead member makes the
    // stripe undecodable. Loud poison, never an XOR of garbage.
    if (nvm_.anyDegraded()) {
        bool overflow =
            nvm_.lineDegraded(layout_.parityLineOf(line_addr));
        for (Addr page : pages) {
            if (page != pageBase(line_addr))
                overflow = overflow ||
                    nvm_.lineDegraded(page + offset);
        }
        if (overflow) {
            std::memset(out, NvmDimm::kPoisonByte, kLineBytes);
            return false;
        }
    }
    // The authoritative parity line (which may be dirty in the
    // redundancy caches) XOR the sibling lines at rest.
    peekRedLine(layout_.parityLineOf(line_addr), out);
    for (Addr page : pages) {
        if (page == pageBase(line_addr))
            continue;
        std::uint8_t sib[kLineBytes];
        nvm_.rawRead(page + offset, sib, kLineBytes);
        xorLine(out, sib);
    }
    return true;
}

bool
TvarakEngine::reconstructRs(Addr lineAddr, std::uint8_t *out)
{
    const std::size_t n = layout_.dataCount();
    const std::size_t k = layout_.parityCount();
    std::size_t offset = lineInPage(lineAddr) * kLineBytes;
    std::vector<Addr> pages;
    layout_.stripeDataPages(lineAddr, pages);  // coding-index order

    std::vector<std::array<std::uint8_t, kLineBytes>> bufs(n + k);
    std::vector<std::uint8_t *> ptrs(n + k);
    bool present[255];
    std::size_t target = n + k;
    // The target itself is always treated as an erasure, even when
    // its media is readable: recoverLine reconstructs lines whose
    // *content* is corrupt, and a decode that trusted the target's
    // bytes would hand them straight back.
    for (std::size_t i = 0; i < n; i++) {
        Addr member = pages[i] + offset;
        ptrs[i] = bufs[i].data();
        present[i] = member != lineAddr && !nvm_.lineDegraded(member);
        if (present[i])
            nvm_.rawRead(member, ptrs[i], kLineBytes);
        if (member == lineAddr)
            target = i;
    }
    for (std::size_t j = 0; j < k; j++) {
        Addr member = layout_.parityLineOf(lineAddr, j);
        ptrs[n + j] = bufs[n + j].data();
        present[n + j] =
            member != lineAddr && !nvm_.lineDegraded(member);
        if (present[n + j]) {
            // Authoritative parity: may be dirty in the redundancy
            // caches, so go through the coherent peek.
            peekRedLine(member, ptrs[n + j]);
        }
        if (member == lineAddr)
            target = n + j;
    }
    panic_if(target == n + k, "reconstructRs: %llx not in its stripe",
             static_cast<unsigned long long>(lineAddr));
    if (!rs_->decode(ptrs.data(), present)) {
        // More members dead than parity can absorb: the stripe is
        // lost. Poison, never stale bytes — downstream checksum
        // verification turns this into a *detected* loss.
        std::memset(out, NvmDimm::kPoisonByte, kLineBytes);
        return false;
    }
    std::memcpy(out, ptrs[target], kLineBytes);
    return true;
}

//
// Whole-DIMM failure support
//

void
TvarakEngine::invalidateRedLinesOfDimm(std::size_t dimm)
{
    std::vector<Addr> doomed;
    auto collect = [&](Cache::Line &line) {
        if (nvm_.dimmOf(line.addr) == dimm)
            doomed.push_back(line.addr);
    };
    for (auto &c : ctrlCaches_)
        c.forEachLine(collect);
    for (auto &p : llcRedPartitions_)
        p.forEachLine(collect);
    for (Addr a : doomed) {
        for (auto &c : ctrlCaches_)
            c.invalidate(a);
        llcRedPartitions_[homeBank(a)].invalidate(a);
        directory_.erase(a);
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
    for (std::size_t c = 0; c < banks_; c++) {
        ctrlCaches_[c].forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            Cache &home_cache = llcRedPartitions_[homeBank(line.addr)];
            Cache::Line *home = home_cache.probe(line.addr);
            panic_if(home == nullptr, "inclusion violated in flush");
            std::memcpy(home_cache.dataOf(*home),
                        ctrlCaches_[c].dataOf(line), kLineBytes);
            home->dirty = true;
            line.dirty = false;
            auto it = directory_.find(line.addr);
            if (it != directory_.end() &&
                it->second.owner == static_cast<std::int8_t>(c)) {
                it->second.owner = -1;
            }
        });
    }
    for (auto &part : llcRedPartitions_) {
        part.forEachLine([&](Cache::Line &line) {
            if (!line.dirty)
                return;
            if (nvm_.writeBlocked(line.addr)) {
                stats_.degradedWritesDropped++;
            } else {
                classifyRedNvmAccess(line.addr);
                nvm_.access(line.addr, true, part.dataOf(line), true);
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
    directory_.clear();
}

void
TvarakEngine::initDaxClChecksums(Addr nvmPage)
{
    panic_if(pageOffset(nvmPage) != 0, "unaligned page");
    // Software (the file system) writes these at dax-map time; the
    // cost is part of mapping, not of steady-state execution, so the
    // writes are untimed. Stale cached copies of the affected checksum
    // lines must not survive.
    std::uint8_t page[kPageBytes];
    nvm_.rawRead(nvmPage, page, kPageBytes);
    for (std::size_t l = 0; l < kLinesPerPage; l++) {
        Addr data_line = nvmPage + l * kLineBytes;
        Addr entry = layout_.daxClCsumAddr(data_line);
        std::uint64_t csum = lineChecksum(page + l * kLineBytes);
        std::uint8_t bytes[kChecksumBytes];
        store64(bytes, csum);
        nvm_.rawWrite(entry, bytes, kChecksumBytes);
    }
    for (std::size_t l = 0; l < kLinesPerPage; l += kChecksumsPerLine) {
        Addr csum_line = layout_.daxClCsumLine(nvmPage + l * kLineBytes);
        for (std::size_t c = 0; c < banks_; c++)
            ctrlCaches_[c].invalidate(csum_line);
        llcRedPartitions_[homeBank(csum_line)].invalidate(csum_line);
        directory_.erase(csum_line);
    }
}

void
TvarakEngine::clearDaxClChecksums(Addr nvmPage)
{
    panic_if(pageOffset(nvmPage) != 0, "unaligned page");
    std::uint8_t zeros[kChecksumBytes] = {};
    for (std::size_t l = 0; l < kLinesPerPage; l++) {
        Addr entry = layout_.daxClCsumAddr(nvmPage + l * kLineBytes);
        nvm_.rawWrite(entry, zeros, kChecksumBytes);
    }
    for (std::size_t l = 0; l < kLinesPerPage; l += kChecksumsPerLine) {
        Addr csum_line = layout_.daxClCsumLine(nvmPage + l * kLineBytes);
        for (std::size_t c = 0; c < banks_; c++)
            ctrlCaches_[c].invalidate(csum_line);
        llcRedPartitions_[homeBank(csum_line)].invalidate(csum_line);
        directory_.erase(csum_line);
    }
}

}  // namespace tvarak
