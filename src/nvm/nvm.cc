#include "nvm/nvm.hh"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>

#include "checksum/checksum.hh"
#include "kernels/kernels.hh"
#include "sim/log.hh"

namespace tvarak {

NvmDimm::NvmDimm(std::size_t bytes)
    : media_(bytes), ecc_(bytes / kLineBytes, 0), changed_(bytes)
{
    panic_if(bytes % kPageBytes != 0, "DIMM size must be page aligned");
    // ECC of the all-zero initial media: computed once, replicated.
    std::uint8_t zero_ecc = computeEcc(0);
    std::fill(ecc_.begin(), ecc_.end(), zero_ecc);
}

void
NvmDimm::checkAddr(Addr mediaAddr, std::size_t len) const
{
    panic_if(mediaAddr + len > media_.size(),
             "media access [%llu, +%zu) out of range (%zu)",
             static_cast<unsigned long long>(mediaAddr), len,
             media_.size());
}

std::uint8_t
NvmDimm::computeEcc(Addr lineAddr) const
{
    // A one-byte inline "ECC" stand-in: enough to demonstrate that it
    // verifies data-at-rest but is blind to firmware bugs.
    return static_cast<std::uint8_t>(
        crc32c(media_.data() + lineAddr, kLineBytes));
}

void
NvmDimm::firmwareRead(Addr mediaAddr, void *buf)
{
    panic_if(failed_, "firmware read of a failed DIMM");
    panic_if(lineOffset(mediaAddr) != 0, "unaligned firmware read");
    checkAddr(mediaAddr, kLineBytes);
    Addr src = mediaAddr;
    auto it = readBugs_.empty() ? readBugs_.end()
                                : readBugs_.find(mediaAddr);
    if (it != readBugs_.end()) {
        // Misdirected read: the firmware fetches the wrong line (and
        // its ECC) and returns it as if it were the requested one.
        src = it->second.actual;
        readBugs_.erase(it);
        bugsTriggered_++;
        checkAddr(src, kLineBytes);
    }
    kernels::ops().copyLine(buf, media_.data() + src);
}

void
NvmDimm::firmwareWrite(Addr mediaAddr, const void *buf)
{
    panic_if(failed_, "firmware write of a failed DIMM");
    panic_if(lineOffset(mediaAddr) != 0, "unaligned firmware write");
    checkAddr(mediaAddr, kLineBytes);
    Addr dst = mediaAddr;
    auto it = writeBugs_.empty() ? writeBugs_.end()
                                 : writeBugs_.find(mediaAddr);
    if (it != writeBugs_.end()) {
        Bug bug = it->second;
        writeBugs_.erase(it);
        bugsTriggered_++;
        if (bug.kind == BugKind::LostWrite) {
            // Acked, never applied: neither data nor ECC changes, so
            // the device's ECC remains self-consistent.
            return;
        }
        dst = bug.actual;
        checkAddr(dst, kLineBytes);
    }
    // Equal bytes change nothing, and skipping their copy leaves media
    // that was never written untouched in host memory (a rebuild
    // writes every line of a fresh device, most of them zero).
    std::uint8_t *line = media_.data() + dst;
    if (std::memcmp(line, buf, kLineBytes) != 0) {
        kernels::ops().copyLine(line, buf);
        changed_.mark(dst);
    }
    // The firmware updates the inline ECC atomically with the data; a
    // misdirected write thus leaves a *consistent* wrong line.
    ecc_[dst / kLineBytes] = computeEcc(dst);
}

void
NvmDimm::rawRead(Addr mediaAddr, void *buf, std::size_t len) const
{
    checkAddr(mediaAddr, len);
    if (failed_)
        std::memset(buf, kPoisonByte, len);
    else
        std::memcpy(buf, media_.data() + mediaAddr, len);
}

void
NvmDimm::rawWrite(Addr mediaAddr, const void *buf, std::size_t len)
{
    checkAddr(mediaAddr, len);
    if (failed_)
        return;  // writes to a dead device vanish
    std::memcpy(media_.data() + mediaAddr, buf, len);
    changed_.markRange(mediaAddr, len);
    for (Addr a = lineBase(mediaAddr); a < mediaAddr + len;
         a += kLineBytes) {
        ecc_[a / kLineBytes] = computeEcc(a);
    }
}

bool
NvmDimm::eccCheck(Addr mediaAddr) const
{
    Addr line = lineBase(mediaAddr);
    checkAddr(line, kLineBytes);
    if (failed_)
        return false;  // poison never carries a valid ECC
    return ecc_[line / kLineBytes] == computeEcc(line);
}

void
NvmDimm::injectLostWrite(Addr mediaAddr)
{
    writeBugs_[lineBase(mediaAddr)] = Bug{BugKind::LostWrite, 0};
}

void
NvmDimm::injectMisdirectedWrite(Addr intended, Addr actual)
{
    writeBugs_[lineBase(intended)] =
        Bug{BugKind::MisdirectedWrite, lineBase(actual)};
}

void
NvmDimm::injectMisdirectedRead(Addr intended, Addr actual)
{
    readBugs_[lineBase(intended)] =
        Bug{BugKind::MisdirectedRead, lineBase(actual)};
}

void
NvmDimm::injectBitFlip(Addr mediaAddr, unsigned bit)
{
    checkAddr(mediaAddr, 1);
    if (failed_)
        return;  // a dead device has no media left to corrupt
    media_[mediaAddr] ^= static_cast<std::uint8_t>(1u << (bit % CHAR_BIT));
    changed_.mark(mediaAddr);
    // Deliberately no ECC update: this is a media error, which the
    // device ECC exists to catch.
}

void
NvmDimm::clearInjectedBugs()
{
    readBugs_.clear();
    writeBugs_.clear();
}

void
NvmDimm::fail()
{
    failed_ = true;
    // The content is gone, and so is its host memory. Until replace()
    // the device reads as poison, not as the fresh buffer's zeroes, so
    // any path that wrongly consumes a dead line gets loudly wrong
    // bytes (which the system checksums then flag).
    media_ = HostBuffer(media_.size());
    changed_.markRange(0, media_.size());
    clearInjectedBugs();
}

void
NvmDimm::replace()
{
    panic_if(!failed_, "replacing a healthy DIMM");
    failed_ = false;  // fail() already installed zeroed media
    changed_.markRange(0, media_.size());
    std::uint8_t zero_ecc = computeEcc(0);
    std::fill(ecc_.begin(), ecc_.end(), zero_ecc);
}

NvmArray::NvmArray(const NvmParams &params, const SimConfig &cfg,
                   Stats &stats)
    : params_(params), stats_(stats)
{
    for (std::size_t i = 0; i < params.dimms; i++)
        dimms_.push_back(std::make_unique<NvmDimm>(params.dimmBytes));
    state_.assign(dimms_.size(), DimmState::Healthy);
    watermark_.assign(dimms_.size(), 0);
    // Page-striping math runs on every raw/firmware access; when the
    // DIMM count is a power of two (the common geometries) the
    // divide/modulo pair folds to shift/mask.
    if ((params.dimms & (params.dimms - 1)) == 0) {
        dimmMask_ = params.dimms - 1;
        while ((std::size_t{1} << dimmShift_) < params.dimms)
            dimmShift_++;
    }
    readCycles_ = cfg.nsToCycles(params.readNs);
    writeCycles_ = cfg.nsToCycles(params.writeNs);
    readBusy_ =
        cfg.nsToCycles(params.readNs * params.occupancyReadFactor);
    writeBusy_ =
        cfg.nsToCycles(params.writeNs * params.occupancyWriteFactor);
}

std::size_t
NvmArray::dimmOf(Addr globalAddr) const
{
    if (dimmMask_ != 0 || dimms_.size() == 1)
        return static_cast<std::size_t>(pageNumber(globalAddr)) &
            dimmMask_;
    return pageNumber(globalAddr) % dimms_.size();
}

Addr
NvmArray::mediaAddrOf(Addr globalAddr) const
{
    if (dimmMask_ != 0 || dimms_.size() == 1) {
        return ((pageNumber(globalAddr) >> dimmShift_) * kPageBytes) +
            pageOffset(globalAddr);
    }
    return (pageNumber(globalAddr) / dimms_.size()) * kPageBytes +
        pageOffset(globalAddr);
}

Addr
NvmArray::globalAddrOf(std::size_t dimm, Addr mediaAddr) const
{
    return (pageNumber(mediaAddr) * dimms_.size() + dimm) * kPageBytes +
        pageOffset(mediaAddr);
}

void
NvmArray::failDimm(std::size_t dimm)
{
    panic_if(dimm >= dimms_.size(), "failDimm: bad DIMM index %zu", dimm);
    panic_if(state_[dimm] == DimmState::Failed,
             "failDimm: DIMM %zu already failed", dimm);
    // Failing a Rebuilding DIMM is the mid-rebuild second fault: the
    // partially restored content is gone again (it already counts as
    // degraded). Whether the array survives is the *code's* business
    // (k-survivability); the array models any number of dead devices
    // and reconstruction simply fails loudly past the code's budget.
    if (state_[dimm] == DimmState::Healthy)
        degradedDimms_++;
    state_[dimm] = DimmState::Failed;
    watermark_[dimm] = 0;
    dimms_[dimm]->fail();
}

void
NvmArray::replaceDimm(std::size_t dimm)
{
    panic_if(dimm >= dimms_.size(), "replaceDimm: bad DIMM index %zu",
             dimm);
    panic_if(state_[dimm] != DimmState::Failed,
             "replaceDimm: DIMM %zu has not failed", dimm);
    state_[dimm] = DimmState::Rebuilding;
    watermark_[dimm] = 0;
    dimms_[dimm]->replace();
}

void
NvmArray::setRebuildWatermark(std::size_t dimm, Addr mediaAddr)
{
    panic_if(state_[dimm] != DimmState::Rebuilding,
             "watermark on a DIMM that is not rebuilding");
    panic_if(mediaAddr < watermark_[dimm], "rebuild watermark moved back");
    watermark_[dimm] = mediaAddr;
}

void
NvmArray::finishRebuild(std::size_t dimm)
{
    panic_if(state_[dimm] != DimmState::Rebuilding,
             "finishRebuild on a DIMM that is not rebuilding");
    state_[dimm] = DimmState::Healthy;
    watermark_[dimm] = 0;
    degradedDimms_--;
}

bool
NvmArray::lineDegradedSlow(Addr globalAddr) const
{
    std::size_t d = dimmOf(globalAddr);
    switch (state_[d]) {
      case DimmState::Healthy:
        return false;
      case DimmState::Failed:
        return true;
      case DimmState::Rebuilding:
        return mediaAddrOf(globalAddr) >= watermark_[d];
    }
    return false;  // unreachable
}

Cycles
NvmArray::access(Addr globalAddr, bool isWrite, void *buf, bool redundancy)
{
    std::size_t d = dimmOf(globalAddr);
    Addr media = mediaAddrOf(globalAddr);
    if (isWrite) {
        panic_if(degradedDimms_ != 0 && writeBlocked(globalAddr),
                 "firmware write to failed DIMM %zu (caller must drop "
                 "blocked writes)", d);
        dimms_[d]->firmwareWrite(media, buf);
        stats_.nvmEnergy += params_.writeEnergy;
        stats_.dimmBusyCycles[d] += writeBusy_;
        if (redundancy)
            stats_.nvmRedundancyWrites++;
        else
            stats_.nvmDataWrites++;
        return writeCycles_;
    }
    panic_if(degradedDimms_ != 0 && lineDegraded(globalAddr),
             "firmware read of degraded line on DIMM %zu (caller must "
             "reconstruct)", d);
    dimms_[d]->firmwareRead(media, buf);
    stats_.nvmEnergy += params_.readEnergy;
    stats_.dimmBusyCycles[d] += readBusy_;
    if (redundancy)
        stats_.nvmRedundancyReads++;
    else
        stats_.nvmDataReads++;
    return readCycles_;
}

Cycles
NvmArray::charge(Addr globalAddr, bool isWrite, bool redundancy)
{
    std::size_t d = dimmOf(globalAddr);
    if (isWrite) {
        stats_.nvmEnergy += params_.writeEnergy;
        stats_.dimmBusyCycles[d] += writeBusy_;
        if (redundancy)
            stats_.nvmRedundancyWrites++;
        else
            stats_.nvmDataWrites++;
        return writeCycles_;
    }
    stats_.nvmEnergy += params_.readEnergy;
    stats_.dimmBusyCycles[d] += readBusy_;
    if (redundancy)
        stats_.nvmRedundancyReads++;
    else
        stats_.nvmDataReads++;
    return readCycles_;
}

void
NvmArray::rawRead(Addr globalAddr, void *buf, std::size_t len) const
{
    // Fast path: nearly every call is one line (or less) inside a
    // single page — one DIMM, one chunk, no straddle loop.
    if (len <= kPageBytes - pageOffset(globalAddr)) {
        dimms_[dimmOf(globalAddr)]->rawRead(mediaAddrOf(globalAddr),
                                            buf, len);
        return;
    }
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        std::size_t in_page = kPageBytes - pageOffset(globalAddr);
        std::size_t chunk = std::min(len, in_page);
        dimms_[dimmOf(globalAddr)]->rawRead(mediaAddrOf(globalAddr), out,
                                            chunk);
        globalAddr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
NvmArray::drainChangedPages(PageBitmap &globalPages)
{
    for (std::size_t d = 0; d < dimms_.size(); d++) {
        dimms_[d]->changedPages().forEach([&](std::size_t mediaPage) {
            globalPages.mark(globalAddrOf(d, mediaPage * kPageBytes));
        });
        dimms_[d]->clearChangedPages();
    }
}

bool
NvmArray::saveImage(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");  // lint:allow(R7)
    if (f == nullptr)
        return false;
    std::uint64_t hdr[2] = {dimms_.size(), params_.dimmBytes};
    bool ok = std::fwrite(hdr, sizeof(hdr), 1, f) == 1;
    std::vector<std::uint8_t> buf(params_.dimmBytes);
    for (std::size_t d = 0; ok && d < dimms_.size(); d++) {
        dimms_[d]->rawRead(0, buf.data(), buf.size());
        ok = std::fwrite(buf.data(), buf.size(), 1, f) == 1;
    }
    return std::fclose(f) == 0 && ok;
}

bool
NvmArray::loadImage(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");  // lint:allow(R7)
    if (f == nullptr)
        return false;
    std::uint64_t hdr[2];
    bool ok = std::fread(hdr, sizeof(hdr), 1, f) == 1 &&
        hdr[0] == dimms_.size() && hdr[1] == params_.dimmBytes;
    std::vector<std::uint8_t> buf(params_.dimmBytes);
    for (std::size_t d = 0; ok && d < dimms_.size(); d++) {
        ok = std::fread(buf.data(), buf.size(), 1, f) == 1;
        if (ok)
            dimms_[d]->rawWrite(0, buf.data(), buf.size());
    }
    std::fclose(f);
    return ok;
}

void
NvmArray::rawWrite(Addr globalAddr, const void *buf, std::size_t len)
{
    if (len <= kPageBytes - pageOffset(globalAddr)) {
        dimms_[dimmOf(globalAddr)]->rawWrite(mediaAddrOf(globalAddr),
                                             buf, len);
        return;
    }
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        std::size_t in_page = kPageBytes - pageOffset(globalAddr);
        std::size_t chunk = std::min(len, in_page);
        dimms_[dimmOf(globalAddr)]->rawWrite(mediaAddrOf(globalAddr), in,
                                             chunk);
        globalAddr += chunk;
        in += chunk;
        len -= chunk;
    }
}

}  // namespace tvarak
