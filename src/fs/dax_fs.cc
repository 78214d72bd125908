#include "fs/dax_fs.hh"

#include <algorithm>
#include <cstring>

#include "checksum/checksum.hh"
#include "checksum/gf256.hh"
#include "kernels/kernels.hh"
#include "redundancy/registry.hh"
#include "sim/log.hh"
#include "trace/sink.hh"

namespace tvarak {

namespace {

/** On-media superblock layout (one page). */
constexpr std::uint64_t kFsMagic = 0x7456'4152'414b'4653ull;
constexpr std::size_t kSbMaxFiles = 50;
constexpr std::size_t kSbNameBytes = 40;

struct SbEntry {
    char name[kSbNameBytes];
    std::uint64_t firstVpage;
    std::uint64_t pages;
    std::uint64_t bytes;
};

struct Superblock {
    std::uint64_t magic;
    std::uint64_t fileCount;
    std::uint64_t nextDataPage;
    std::uint64_t pad;
    SbEntry entries[kSbMaxFiles];
};
static_assert(sizeof(Superblock) <= kPageBytes);

}  // namespace

DaxFs::DaxFs(MemorySystem &mem) : mem_(mem)
{
    // vpage 0 is the superblock; file extents start at vpage 1.
    nextDataPage_ = 1;
    loadSuperblock();
}

void
DaxFs::writeSuperblock()
{
    Superblock sb{};
    sb.magic = kFsMagic;
    sb.nextDataPage = nextDataPage_;
    std::size_t n = 0;
    for (const File &f : files_) {
        if (f.name.empty())
            continue;  // removed
        fatal_if(n >= kSbMaxFiles, "superblock full");
        fatal_if(f.name.size() >= kSbNameBytes, "file name too long");
        std::strncpy(sb.entries[n].name, f.name.c_str(), kSbNameBytes);
        sb.entries[n].firstVpage = f.firstVpage;
        sb.entries[n].pages = f.pages;
        sb.entries[n].bytes = f.bytes;
        n++;
    }
    sb.fileCount = n;
    Addr sb_page = pageOfVpage(0);
    mem_.nvmArray().rawWrite(sb_page, &sb, sizeof(sb));
    // The superblock lives in the parity-covered data region: keep
    // its stripe's parity members (all k roles) consistent with the
    // out-of-band write.
    const Layout &layout = mem_.layout();
    std::vector<Addr> pages;
    layout.stripeDataPages(sb_page, pages);
    const RsCode &rs = mem_.rsCodec();
    std::vector<std::uint8_t> buf(kPageBytes);
    std::vector<Addr> parity_pages;
    for (std::size_t j = 0; j < layout.parityCount(); j++) {
        Addr parity_page = layout.parityPageOf(sb_page, j);
        parity_pages.push_back(parity_page);
        std::vector<std::uint8_t> acc(kPageBytes, 0);
        for (std::size_t i = 0; i < pages.size(); i++) {
            mem_.nvmArray().rawRead(pages[i], buf.data(), kPageBytes);
            for (std::size_t l = 0; l < kLinesPerPage; l++) {
                rs.updateParity(acc.data() + l * kLineBytes,
                                buf.data() + l * kLineBytes, j, i);
            }
        }
        mem_.nvmArray().rawWrite(parity_page, acc.data(), kPageBytes);
    }
    // The raw writes bypass the caches: keep the current-value store
    // in sync for lines no cache holds (the superblock is never read
    // through the timed path, and degraded-mode reconstruction in the
    // current-value world depends on this parity being fresh).
    std::vector<Addr> touched = parity_pages;
    touched.insert(touched.begin(), sb_page);
    std::uint8_t line_buf[kLineBytes];
    for (std::size_t l = 0; l < kLinesPerPage; l++) {
        for (Addr page : touched) {
            Addr line = page + l * kLineBytes;
            mem_.nvmArray().rawRead(line, line_buf, kLineBytes);
            mem_.refreshCurIfUncached(line, line_buf);
        }
    }
}

void
DaxFs::loadSuperblock()
{
    Superblock sb;
    mem_.nvmArray().rawRead(pageOfVpage(0), &sb, sizeof(sb));
    if (sb.magic != kFsMagic)
        return;  // fresh device
    nextDataPage_ = static_cast<std::size_t>(sb.nextDataPage);
    for (std::size_t i = 0; i < sb.fileCount; i++) {
        File f;
        f.name.assign(sb.entries[i].name,
                      strnlen(sb.entries[i].name, kSbNameBytes));
        f.firstVpage = static_cast<std::size_t>(sb.entries[i].firstVpage);
        f.pages = static_cast<std::size_t>(sb.entries[i].pages);
        f.bytes = static_cast<std::size_t>(sb.entries[i].bytes);
        f.mapped = false;  // reboots always come back unmapped
        int fd = static_cast<int>(files_.size());
        for (std::size_t p = 0; p < f.pages; p++)
            mem_.mapDaxPage(f.firstVpage + p, pageOfVpage(f.firstVpage + p));
        byName_[f.name] = fd;
        files_.push_back(std::move(f));
    }
    // Rebuild the free list: everything not covered by a file or the
    // bump cursor is free (derive from gaps between sorted extents).
    std::vector<std::pair<std::size_t, std::size_t>> used;
    used.emplace_back(0, 1);  // superblock
    for (const File &f : files_) {
        if (!f.name.empty())
            used.emplace_back(f.firstVpage, f.pages);
    }
    std::sort(used.begin(), used.end());
    std::size_t cursor = 0;
    for (auto &[first, pages] : used) {
        if (first > cursor)
            freeExtents_.emplace_back(cursor, first - cursor);
        cursor = first + pages;
    }
}

const DaxFs::File &
DaxFs::file(int fd) const
{
    panic_if(fd < 0 || static_cast<std::size_t>(fd) >= files_.size(),
             "bad fd %d", fd);
    return files_[static_cast<std::size_t>(fd)];
}

Addr
DaxFs::pageOfVpage(std::size_t vpage) const
{
    return mem_.layout().nthDataPage(vpage);
}

Addr
DaxFs::filePage(int fd, std::size_t pageIdx) const
{
    const File &f = file(fd);
    panic_if(pageIdx >= f.pages, "page index out of file");
    return pageOfVpage(f.firstVpage + pageIdx);
}

int
DaxFs::create(const std::string &name, std::size_t bytes)
{
    // FS operations are recorded as single high-level events and
    // replayed natively; their bodies run with recording suspended so
    // internal timed accesses are not recorded a second time.
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    trace::SinkSuspend guard(rec ? sink : nullptr);
    fatal_if(byName_.count(name) != 0, "file %s exists", name.c_str());
    std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    fatal_if(pages == 0, "empty file");

    File f;
    f.name = name;
    f.bytes = pages * kPageBytes;
    f.firstVpage = allocVpages(pages);
    f.pages = pages;

    // Install the (kernel-visible) mapping and the initial page
    // checksums over the zeroed pages.
    for (std::size_t p = 0; p < pages; p++) {
        Addr nvm_page = pageOfVpage(f.firstVpage + p);
        mem_.mapDaxPage(f.firstVpage + p, nvm_page);
        writePageChecksumRaw(nvm_page);
    }

    int fd = static_cast<int>(files_.size());
    files_.push_back(std::move(f));
    byName_[name] = fd;
    writeSuperblock();
    // Emitted after the body: the event pins the fd allocation, which
    // replay asserts against (fd assignment is deterministic).
    if (rec)
        sink->onFsCreate(name, bytes, fd);
    return fd;
}

int
DaxFs::open(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? -1 : it->second;
}

std::size_t
DaxFs::allocVpages(std::size_t pages)
{
    // First-fit over recycled extents, then the bump cursor.
    for (auto it = freeExtents_.begin(); it != freeExtents_.end();
         ++it) {
        if (it->second >= pages) {
            std::size_t first = it->first;
            it->first += pages;
            it->second -= pages;
            if (it->second == 0)
                freeExtents_.erase(it);
            return first;
        }
    }
    fatal_if(nextDataPage_ + pages >
                 mem_.layout().allocatableDataPages(),
             "NVM full: need %zu more pages", pages);
    std::size_t first = nextDataPage_;
    nextDataPage_ += pages;
    return first;
}

void
DaxFs::remove(int fd)
{
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    if (rec)
        sink->onFsRemove(fd);
    trace::SinkSuspend guard(rec ? sink : nullptr);
    File &f = files_[static_cast<std::size_t>(fd)];
    panic_if(f.name.empty(), "remove of a removed file");
    if (f.mapped)
        daxUnmap(fd);
    // Zero the pages through the FS write path so parity and page
    // checksums stay consistent for the next owner.
    std::vector<std::uint8_t> zeros(kPageBytes, 0);
    for (std::size_t p = 0; p < f.pages; p++)
        pwrite(0, fd, p * kPageBytes, zeros.data(), zeros.size());
    mem_.flushAll();
    for (std::size_t p = 0; p < f.pages; p++)
        mem_.unmapDaxPage(f.firstVpage + p);
    byName_.erase(f.name);
    freeExtents_.emplace_back(f.firstVpage, f.pages);
    f.name.clear();
    f.bytes = 0;
    f.pages = 0;
    writeSuperblock();
}

std::size_t
DaxFs::fileBytes(int fd) const
{
    return file(fd).bytes;
}

std::size_t
DaxFs::filePages(int fd) const
{
    return file(fd).pages;
}

bool
DaxFs::isMapped(int fd) const
{
    return file(fd).mapped;
}

Addr
DaxFs::vbase(int fd) const
{
    return MemorySystem::daxVaddr(file(fd).firstVpage);
}

void
DaxFs::writePageChecksumRaw(Addr nvmPage)
{
    std::uint8_t page[kPageBytes];
    mem_.nvmArray().rawRead(nvmPage, page, kPageBytes);
    std::uint64_t csum = pageChecksum(page);
    mem_.nvmArray().rawWrite(mem_.layout().pageCsumAddr(nvmPage), &csum,
                             kChecksumBytes);
}

Addr
DaxFs::daxMap(int fd)
{
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    if (rec)
        sink->onFsDaxMap(fd);
    trace::SinkSuspend guard(rec ? sink : nullptr);
    File &f = files_[static_cast<std::size_t>(fd)];
    if (f.mapped)
        return vbase(fd);
    // Coverage hand-off: while unmapped, the FS I/O path caches
    // checksum/parity lines in the *application* hierarchy; while
    // mapped, TVARAK caches them in its own controllers. Drop all
    // cached state at the boundary so neither domain can observe the
    // other's writes stale. The drop skips empty caches and empty
    // sets, touches only the valid lines of the rest and re-syncs only
    // the NVM pages changed since the last drop, so it never rewrites
    // every cache way or copies all of NVM.
    mem_.dropCaches();
    for (std::size_t p = 0; p < f.pages; p++) {
        Addr nvm_page = pageOfVpage(f.firstVpage + p);
        mem_.tvarak().registerDaxPage(nvm_page);
        if (mem_.coverage().mappedChecksum == MappedChecksum::DaxCl) {
            // Coverage moves to the DAX-CL-checksums: write them, and
            // return the page checksum slot to a canonical zero, so
            // the at-rest metadata image is a pure function of the
            // mapping state (which is what the rebuild engine
            // reproduces). Otherwise the page checksum stays valid
            // and the DAX-CL slots stay zero.
            mem_.tvarak().initDaxClChecksums(nvm_page);
            std::uint64_t zero = 0;
            mem_.nvmArray().rawWrite(
                mem_.layout().pageCsumAddr(nvm_page), &zero,
                kChecksumBytes);
        }
    }
    f.mapped = true;
    return vbase(fd);
}

void
DaxFs::daxUnmap(int fd)
{
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    if (rec)
        sink->onFsDaxUnmap(fd);
    trace::SinkSuspend guard(rec ? sink : nullptr);
    File &f = files_[static_cast<std::size_t>(fd)];
    panic_if(!f.mapped, "unmap of unmapped file");
    // Push all dirty application data through TVARAK's update path and
    // drop cached state (see daxMap), then convert coverage back to
    // page-granular checksums.
    mem_.dropCaches();
    for (std::size_t p = 0; p < f.pages; p++) {
        Addr nvm_page = pageOfVpage(f.firstVpage + p);
        mem_.tvarak().unregisterDaxPage(nvm_page);
        mem_.tvarak().clearDaxClChecksums(nvm_page);
        writePageChecksumRaw(nvm_page);
    }
    f.mapped = false;
}

//
// Non-DAX I/O path (software redundancy, Nova-Fortis style)
//

void
DaxFs::updatePageChecksum(int tid, Addr vpageBase, Addr nvmPage)
{
    // Read the page through the caches (hits for the just-written
    // lines), checksum it in software, store the entry.
    std::uint8_t page[kPageBytes];
    mem_.read(tid, vpageBase, page, kPageBytes);
    mem_.computeChecksum(tid, kPageBytes);
    std::uint64_t csum = pageChecksum(page);
    mem_.write64(tid, nvmDirectVaddr(mem_.layout().pageCsumAddr(nvmPage)),
                 csum);
}

void
DaxFs::pwrite(int tid, int fd, std::size_t offset, const void *buf,
              std::size_t len)
{
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    if (rec)
        sink->onFsPwrite(tid, fd, offset, buf, len);
    trace::SinkSuspend guard(rec ? sink : nullptr);
    const File &f = file(fd);
    panic_if(offset + len > f.bytes, "pwrite beyond EOF");
    const auto *in = static_cast<const std::uint8_t *>(buf);
    Addr base = vbase(fd);

    while (len > 0) {
        std::size_t page_idx = offset / kPageBytes;
        Addr vpage_base = base + page_idx * kPageBytes;
        Addr nvm_page = filePage(fd, page_idx);
        std::size_t in_page =
            std::min(len, kPageBytes - pageOffset(offset));

        if (f.mapped) {
            // TVARAK (or the cache hierarchy alone, for the other
            // designs) covers mapped files; just write the data.
            mem_.write(tid, base + offset, in, in_page);
        } else {
            // Software redundancy: per affected line, diff-update the
            // parity, then write the data and refresh the checksum.
            std::size_t done = 0;
            while (done < in_page) {
                Addr vaddr = base + offset + done;
                std::size_t n =
                    std::min(in_page - done, kLineBytes - lineOffset(vaddr));
                std::uint8_t old_line[kLineBytes];
                std::uint8_t new_line[kLineBytes];
                Addr vline = lineBase(vaddr);
                mem_.read(tid, vline, old_line, kLineBytes);
                std::memcpy(new_line, old_line, kLineBytes);
                std::memcpy(new_line + lineOffset(vaddr), in + done, n);

                // Every parity role takes the coefficient-weighted
                // diff. Role 0's coefficient is 1 for every member
                // (plain XOR), so the coding index is looked up only
                // for the roles past it.
                Addr nvm_line =
                    nvm_page + lineInPage(vaddr) * kLineBytes;
                const Layout &layout = mem_.layout();
                std::uint8_t diff[kLineBytes];
                xorLineInto(diff, old_line, new_line);
                std::size_t di = 0;
                for (std::size_t j = 0; j < layout.parityCount(); j++) {
                    if (j == 1)
                        di = layout.dataMemberIndexOf(nvm_line);
                    Addr parity_v =
                        nvmDirectVaddr(layout.parityLineOf(nvm_line, j));
                    std::uint8_t parity[kLineBytes];
                    mem_.read(tid, parity_v, parity, kLineBytes);
                    mem_.rsCodec().updateParity(parity, diff, j, di);
                    mem_.write(tid, parity_v, parity, kLineBytes);
                }

                mem_.write(tid, vaddr, in + done, n);
                done += n;
            }
            updatePageChecksum(tid, vpage_base, nvm_page);
        }
        offset += in_page;
        in += in_page;
        len -= in_page;
    }
}

bool
DaxFs::pread(int tid, int fd, std::size_t offset, void *buf,
             std::size_t len)
{
    trace::TraceSink *sink = mem_.traceSink();
    bool rec = sink != nullptr && sink->active();
    if (rec)
        sink->onFsPread(tid, fd, offset, len);
    trace::SinkSuspend guard(rec ? sink : nullptr);
    const File &f = file(fd);
    panic_if(offset + len > f.bytes, "pread beyond EOF");
    auto *out = static_cast<std::uint8_t *>(buf);
    Addr base = vbase(fd);
    bool ok = true;

    while (len > 0) {
        std::size_t page_idx = offset / kPageBytes;
        Addr vpage_base = base + page_idx * kPageBytes;
        Addr nvm_page = filePage(fd, page_idx);
        std::size_t in_page =
            std::min(len, kPageBytes - pageOffset(offset));

        mem_.read(tid, base + offset, out, in_page);

        if (!f.mapped) {
            // Verify the whole page against its system-checksum.
            std::uint8_t page[kPageBytes];
            mem_.read(tid, vpage_base, page, kPageBytes);
            mem_.computeChecksum(tid, kPageBytes);
            std::uint64_t expected = mem_.read64(
                tid,
                nvmDirectVaddr(mem_.layout().pageCsumAddr(nvm_page)));
            if (pageChecksum(page) != expected) {
                mem_.stats().corruptionsDetected++;
                ok = recoverPage(fd, page_idx) && ok;
                // Hand the repaired bytes to the caller.
                mem_.read(tid, base + offset, out, in_page);
            }
        }
        offset += in_page;
        out += in_page;
        len -= in_page;
    }
    return ok;
}

bool
DaxFs::recoverPage(int fd, std::size_t pageIdx)
{
    Addr nvm_page = filePage(fd, pageIdx);
    Addr vpage_base = vbase(fd) + pageIdx * kPageBytes;
    for (std::size_t l = 0; l < kLinesPerPage; l++)
        mem_.tvarak().recoverLine(nvm_page + l * kLineBytes, false);
    mem_.refreshFromMedia(vpage_base, kPageBytes);

    std::uint8_t page[kPageBytes];
    mem_.nvmArray().rawRead(nvm_page, page, kPageBytes);
    std::uint64_t expected;
    mem_.nvmArray().rawRead(mem_.layout().pageCsumAddr(nvm_page),
                            &expected, kChecksumBytes);
    return pageChecksum(page) == expected;
}

//
// Integrity utilities
//

bool
DaxFs::fdLive(int fd) const
{
    return fd >= 0 && static_cast<std::size_t>(fd) < files_.size() &&
        !files_[static_cast<std::size_t>(fd)].name.empty();
}

bool
DaxFs::scrubbable(int fd) const
{
    const File &f = file(fd);
    if (f.name.empty())
        return false;
    // Coverage of a *mapped* file depends on the active design:
    // TVARAK maintains DAX-CL-checksums, page-checksum schemes
    // (TxB-Page-Csums, Vilamb) maintain the page checksum slots,
    // TxB-Object-Csums is scrubbed via PmemPool::verifyObjects, and
    // Baseline has no coverage (Table I).
    return !f.mapped || mem_.coverage().scrubsMappedFiles();
}

std::size_t
DaxFs::scrubPage(int fd, std::size_t pageIdx, bool repair)
{
    const File &f = file(fd);
    panic_if(f.name.empty(), "scrubPage on removed fd %d", fd);
    panic_if(pageIdx >= f.pages, "scrubPage page out of range");
    Addr nvm_page = pageOfVpage(f.firstVpage + pageIdx);
    NvmArray &nvm = mem_.nvmArray();
    const Layout &layout = mem_.layout();
    Stats &stats = mem_.stats();
    bool degraded = nvm.anyDegraded();
    // A degraded page is served by reconstruction until the rebuild
    // engine passes it; its media is not expected to verify. The
    // rebuild watermark is monotonic over each DIMM's media, so the
    // page's last line degrades first.
    if (degraded && nvm.lineDegraded(nvm_page + kPageBytes - kLineBytes))
        return 0;
    std::size_t bad_lines = 0;
    if (f.mapped &&
        mem_.coverage().mappedChecksum == MappedChecksum::DaxCl) {
        for (std::size_t l = 0; l < kLinesPerPage; l++) {
            Addr line = nvm_page + l * kLineBytes;
            Addr csum_line = layout.daxClCsumLine(line);
            if (degraded && nvm.lineDegraded(csum_line))
                continue;  // checksum storage itself is degraded
            std::uint8_t data[kLineBytes];
            nvm.rawRead(line, data, kLineBytes);
            std::uint8_t cbuf[kLineBytes];
            mem_.tvarak().peekRedLine(csum_line, cbuf);
            std::uint64_t expected;
            std::memcpy(&expected,
                        cbuf + (layout.daxClCsumAddr(line) - csum_line),
                        kChecksumBytes);
            stats.scrubLines++;
            if (lineChecksum(data) != expected) {
                bad_lines++;
                if (repair) {
                    mem_.tvarak().recoverLine(line, true);
                    stats.scrubRepairs++;
                }
            }
        }
        return bad_lines;
    }
    Addr slot = layout.pageCsumAddr(nvm_page);
    if (degraded && nvm.lineDegraded(lineBase(slot)))
        return 0;
    std::uint8_t page[kPageBytes];
    nvm.rawRead(nvm_page, page, kPageBytes);
    std::uint64_t expected;
    nvm.rawRead(slot, &expected, kChecksumBytes);
    stats.scrubLines += kLinesPerPage;
    if (pageChecksum(page) != expected) {
        bad_lines++;
        if (repair) {
            recoverPage(fd, pageIdx);
            stats.scrubRepairs++;
        }
    }
    return bad_lines;
}

std::size_t
DaxFs::scrub(bool repair)
{
    std::size_t bad_lines = 0;
    for (std::size_t fd = 0; fd < files_.size(); fd++) {
        int ifd = static_cast<int>(fd);
        if (!fdLive(ifd) || !scrubbable(ifd))
            continue;
        for (std::size_t p = 0; p < files_[fd].pages; p++)
            bad_lines += scrubPage(ifd, p, repair);
    }
    return bad_lines;
}

std::size_t
DaxFs::verifyParity()
{
    const Layout &layout = mem_.layout();
    const std::size_t n = layout.dataCount();
    const std::size_t k = layout.parityCount();
    const RsCode &rs = mem_.rsCodec();
    std::size_t bad = 0;
    std::vector<Addr> pages;
    std::vector<std::vector<std::uint8_t>> acc(
        k, std::vector<std::uint8_t>(kPageBytes));
    std::vector<std::uint8_t> page(kPageBytes);
    // Only stripes that can hold allocated data need checking; the
    // rest are all-zero and trivially consistent.
    std::size_t used_stripes = (nextDataPage_ + n - 1) / n;
    for (std::size_t s = 0; s < used_stripes; s++) {
        Addr first = layout.dataBase() +
            static_cast<Addr>(s) * layout.dimms() * kPageBytes;
        if (mem_.nvmArray().anyDegraded()) {
            // A stripe with a degraded member cannot satisfy the
            // invariant on media until the rebuild engine passes it.
            bool skip = false;
            for (std::size_t m = 0; m < layout.dimms() && !skip; m++) {
                Addr last_line = first +
                    static_cast<Addr>(m + 1) * kPageBytes - kLineBytes;
                skip = mem_.nvmArray().lineDegraded(last_line);
            }
            if (skip)
                continue;
        }
        // Re-encode the stripe's data members and compare every
        // parity role against media (role 0 degenerates to the XOR
        // check the single-parity designs have always used).
        for (std::size_t j = 0; j < k; j++) {
            mem_.nvmArray().rawRead(layout.parityPageOf(first, j),
                                    acc[j].data(), kPageBytes);
        }
        layout.stripeDataPages(first, pages);
        for (std::size_t i = 0; i < pages.size(); i++) {
            mem_.nvmArray().rawRead(pages[i], page.data(), kPageBytes);
            for (std::size_t j = 0; j < k; j++) {
                for (std::size_t l = 0; l < kLinesPerPage; l++) {
                    rs.updateParity(acc[j].data() + l * kLineBytes,
                                    page.data() + l * kLineBytes, j, i);
                }
            }
        }
        bool stripe_bad = false;
        for (std::size_t j = 0; j < k && !stripe_bad; j++) {
            stripe_bad =
                !kernels::ops().isZero(acc[j].data(), kPageBytes);
        }
        if (stripe_bad)
            bad++;
    }
    return bad;
}

}  // namespace tvarak
