#include "redundancy/rebuild.hh"

#include <algorithm>
#include <cstring>

#include "checksum/checksum.hh"
#include "layout/layout.hh"
#include "redundancy/registry.hh"
#include "sim/log.hh"

namespace tvarak {

RebuildEngine::RebuildEngine(MemorySystem &mem, DaxFs *fs)
    : mem_(mem), fs_(fs), dimmBytes_(mem.config().nvm.dimmBytes)
{
    NvmArray &nvm = mem_.nvmArray();
    for (std::size_t d = 0; d < mem_.config().nvm.dimms; d++) {
        if (nvm.dimmState(d) == NvmArray::DimmState::Rebuilding)
            sweeps_.push_back({d, nvm.rebuildWatermark(d)});
    }
    panic_if(sweeps_.empty(), "RebuildEngine with no replaced DIMM");
}

std::size_t
RebuildEngine::dimm() const
{
    panic_if(sweeps_.empty(), "dimm() on a finished RebuildEngine");
    return sweeps_.front().dimm;
}

Addr
RebuildEngine::cursor() const
{
    panic_if(sweeps_.empty(), "cursor() on a finished RebuildEngine");
    return sweeps_.front().cursor;
}

void
RebuildEngine::resync()
{
    NvmArray &nvm = mem_.nvmArray();
    // Drop sweeps whose DIMM is no longer rebuilding (it failed again,
    // or some other engine finished it); rewind sweeps whose DIMM was
    // failed *and* re-replaced between steps — the watermark moved
    // behind the cursor, everything the previous pass wrote is gone.
    // (The restart itself is counted by MemorySystem::failDimm, which
    // sees every mid-rebuild fault whether or not an engine observes
    // the fail/replace transition.)
    for (std::size_t i = 0; i < sweeps_.size();) {
        Sweep &s = sweeps_[i];
        if (nvm.dimmState(s.dimm) != NvmArray::DimmState::Rebuilding) {
            sweeps_.erase(sweeps_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            continue;
        }
        Addr watermark = nvm.rebuildWatermark(s.dimm);
        if (watermark < s.cursor)
            s.cursor = watermark;
        i++;
    }
    // Adopt DIMMs replaced after this engine was built.
    for (std::size_t d = 0; d < mem_.config().nvm.dimms; d++) {
        if (nvm.dimmState(d) != NvmArray::DimmState::Rebuilding)
            continue;
        bool tracked = false;
        for (const Sweep &s : sweeps_)
            tracked = tracked || s.dimm == d;
        if (!tracked)
            sweeps_.push_back({d, nvm.rebuildWatermark(d)});
    }
    std::sort(sweeps_.begin(), sweeps_.end(),
              [](const Sweep &a, const Sweep &b) {
                  return a.dimm < b.dimm;
              });
}

std::uint64_t
RebuildEngine::pageCsumSlotValue(std::size_t slotIdx)
{
    const Layout &layout = mem_.layout();
    Addr page = layout.dataBase() +
        static_cast<Addr>(slotIdx) * kPageBytes;
    if (page >= layout.end())
        return 0;  // padding slots beyond the trimmed data region
    if (layout.isParityPage(page))
        return 0;  // parity pages carry no page checksum
    if (mem_.daxClCoversMappedData() && mem_.tvarak().isDaxData(page)) {
        // Covered by DAX-CL-checksums while mapped.
        return 0;
    }
    std::size_t vpage = layout.dataPageIndexOf(page);
    if (vpage == 0)
        return 0;  // the superblock page is never checksummed
    if (fs_ != nullptr && vpage >= fs_->vpageCursor())
        return 0;  // never allocated, never written
    std::uint8_t buf[kPageBytes];
    for (std::size_t l = 0; l < kLinesPerPage; l++)
        mem_.rebuildRead(page + l * kLineBytes, buf + l * kLineBytes);
    return pageChecksum(buf);
}

std::uint64_t
RebuildEngine::daxClSlotValue(std::size_t slotIdx)
{
    const Layout &layout = mem_.layout();
    Addr line = layout.dataBase() +
        static_cast<Addr>(slotIdx) * kLineBytes;
    if (line >= layout.end() || layout.isParityPage(line))
        return 0;
    if (!mem_.daxClCoversMappedData() || !mem_.tvarak().isDaxData(line))
        return 0;  // slots are zero unless mapped and engine-kept
    std::uint8_t buf[kLineBytes];
    mem_.rebuildRead(line, buf);
    return lineChecksum(buf);
}

void
RebuildEngine::rebuildMetaLine(Addr g, std::uint8_t *out)
{
    const Layout &layout = mem_.layout();
    for (std::size_t j = 0; j < kLineBytes / kChecksumBytes; j++) {
        Addr slot_addr = g + j * kChecksumBytes;
        std::uint64_t v = slot_addr < layout.daxClBase()
            ? pageCsumSlotValue(slot_addr / kChecksumBytes)
            : daxClSlotValue((slot_addr - layout.daxClBase()) /
                             kChecksumBytes);
        std::memcpy(out + j * kChecksumBytes, &v, kChecksumBytes);
    }
}

std::size_t
RebuildEngine::step(std::size_t lineBudget)
{
    resync();
    NvmArray &nvm = mem_.nvmArray();
    const Layout &layout = mem_.layout();
    std::size_t rebuilt = 0;
    std::uint8_t buf[kLineBytes];
    while (rebuilt < lineBudget && !sweeps_.empty()) {
        Sweep &s = sweeps_.front();
        if (s.cursor >= dimmBytes_) {
            nvm.finishRebuild(s.dimm);
            sweeps_.erase(sweeps_.begin());
            continue;
        }
        Addr g = nvm.globalAddrOf(s.dimm, s.cursor);
        if (layout.isMetaAddr(g)) {
            // Checksum metadata is not parity protected: recompute it
            // from the (possibly still degraded) data it covers. The
            // recompute reads model software work and are untimed;
            // only the media write is charged.
            rebuildMetaLine(g, buf);
        } else if (layout.isDataAddr(g)) {
            bool parity = layout.isParityPage(g);
            mem_.reconstructLine(g, buf, true);
            nvm.access(g, true, buf, parity);
            mem_.stats().rebuildLines++;
            mem_.refreshCurIfUncached(g, buf);
            nvm.setRebuildWatermark(s.dimm, s.cursor + kLineBytes);
            s.cursor += kLineBytes;
            rebuilt++;
            continue;
        } else {
            // Beyond the trimmed layout: the fresh device is already
            // zero; just advance the watermark.
            nvm.setRebuildWatermark(s.dimm, s.cursor + kLineBytes);
            s.cursor += kLineBytes;
            continue;
        }
        nvm.access(g, true, buf, true);
        mem_.stats().rebuildLines++;
        mem_.refreshCurIfUncached(g, buf);
        nvm.setRebuildWatermark(s.dimm, s.cursor + kLineBytes);
        s.cursor += kLineBytes;
        rebuilt++;
    }
    if (!sweeps_.empty() && sweeps_.front().cursor >= dimmBytes_) {
        nvm.finishRebuild(sweeps_.front().dimm);
        sweeps_.erase(sweeps_.begin());
    }
    return rebuilt;
}

void
RebuildEngine::runToCompletion()
{
    // Step at least once: done() only reflects the sweeps this engine
    // already tracks, and the first step's resync adopts any DIMM
    // replaced after the previous sweep list emptied.
    do {
        step(~std::size_t{0});
    } while (!done());
}

}  // namespace tvarak
