#include "trace/trace.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <utility>

#include "redundancy/registry.hh"
#include "sim/log.hh"

namespace tvarak::trace {

namespace {

/** @name Raw little-endian scalar (de)serialization */
/**@{*/
void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; i++)
        buf.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; i++)
        buf.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void
putF64(std::vector<std::uint8_t> &buf, double v)
{
    putU64(buf, std::bit_cast<std::uint64_t>(v));
}

bool
getU32(const std::uint8_t *&p, const std::uint8_t *end, std::uint32_t &v)
{
    if (end - p < 4)
        return false;
    v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<std::uint32_t>(*p++) << (i * 8);
    return true;
}

bool
getU64(const std::uint8_t *&p, const std::uint8_t *end, std::uint64_t &v)
{
    if (end - p < 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<std::uint64_t>(*p++) << (i * 8);
    return true;
}

bool
getF64(const std::uint8_t *&p, const std::uint8_t *end, double &v)
{
    std::uint64_t raw = 0;
    if (!getU64(p, end, raw))
        return false;
    v = std::bit_cast<double>(raw);
    return true;
}
/**@}*/

void
putCacheParams(std::vector<std::uint8_t> &buf, const CacheParams &c)
{
    putU64(buf, c.sizeBytes);
    putU64(buf, c.ways);
    putU64(buf, c.latency);
    putF64(buf, c.hitEnergy);
    putF64(buf, c.missEnergy);
}

bool
getCacheParams(const std::uint8_t *&p, const std::uint8_t *end,
               CacheParams &c)
{
    std::uint64_t size = 0;
    std::uint64_t ways = 0;
    bool ok = getU64(p, end, size) && getU64(p, end, ways) &&
        getU64(p, end, c.latency) && getF64(p, end, c.hitEnergy) &&
        getF64(p, end, c.missEnergy);
    c.sizeBytes = size;
    c.ways = ways;
    return ok;
}

}  // namespace

/**
 * Structural validation of a record stream: every head byte carries a
 * known opcode, every varint is well formed (no truncated or runaway
 * continuation runs), every inline payload and name fits in the
 * remaining bytes, and the record count matches the header's event
 * count. Runs once at load so the replay-side cursor can decode
 * without per-field error handling; a trace that fails here is
 * rejected with a diagnostic instead of reaching the simulator.
 *
 * @return false with @p err set to a one-line reason.
 */
static bool
validateRecords(const TraceData &trace, std::string &err)
{
    const std::uint8_t *p = trace.records.data();
    const std::uint8_t *end = p + trace.records.size();
    std::uint64_t events = 0;
    std::uint64_t u = 0;

    auto fail = [&](const char *what) {
        err = "record " + std::to_string(events) + " (byte offset " +
            std::to_string(p - trace.records.data()) + "): " + what;
        return false;
    };

    while (p < end) {
        std::uint8_t head = *p++;
        auto op = static_cast<Op>(head >> 4);
        if ((head & 0xF) == kTidEscape && !getVarintChecked(p, end, u))
            return fail("bad escaped tid");
        switch (op) {
          case Op::Read:
            if (!getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, u)) {
                return fail("bad read address/length");
            }
            break;
          case Op::Write: {
            std::uint64_t len = 0;
            if (!getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, len)) {
                return fail("bad write address/length");
            }
            if (static_cast<std::uint64_t>(end - p) < len)
                return fail("truncated write payload");
            p += len;
            break;
          }
          case Op::Compute:
          case Op::ComputeChecksum:
          case Op::Marker:
            if (!getVarintChecked(p, end, u))
                return fail("bad scalar operand");
            break;
          case Op::DropCaches:
            break;
          case Op::Commit: {
            if (p >= end)
                return fail("truncated commit flags");
            p++;
            std::uint64_t n = 0;
            if (!getVarintChecked(p, end, n))
                return fail("bad commit range count");
            for (std::uint64_t i = 0; i < n; i++) {
                if (p >= end)
                    return fail("truncated commit range");
                std::uint8_t rf = *p++;
                if (!getVarintChecked(p, end, u) ||
                    !getVarintChecked(p, end, u)) {
                    return fail("bad commit range address/length");
                }
                if ((rf & kRangeHasObj) != 0 &&
                    (rf & kRangeObjIsOwnLine) == 0 &&
                    (!getVarintChecked(p, end, u) ||
                     !getVarintChecked(p, end, u))) {
                    return fail("bad commit range object");
                }
                if ((rf & kRangeHasCsum) != 0 &&
                    !getVarintChecked(p, end, u)) {
                    return fail("bad commit range checksum slot");
                }
            }
            break;
          }
          case Op::FsCreate: {
            std::uint64_t nameLen = 0;
            if (!getVarintChecked(p, end, nameLen))
                return fail("bad file name length");
            if (static_cast<std::uint64_t>(end - p) < nameLen)
                return fail("truncated file name");
            p += nameLen;
            if (!getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, u)) {
                return fail("bad file size/descriptor");
            }
            break;
          }
          case Op::FsDaxMap:
          case Op::FsDaxUnmap:
          case Op::FsRemove:
            if (!getVarintChecked(p, end, u))
                return fail("bad file descriptor");
            break;
          case Op::FsPwrite: {
            std::uint64_t len = 0;
            if (!getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, len)) {
                return fail("bad pwrite operands");
            }
            if (static_cast<std::uint64_t>(end - p) < len)
                return fail("truncated pwrite payload");
            p += len;
            break;
          }
          case Op::FsPread:
            if (!getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, u) ||
                !getVarintChecked(p, end, u)) {
                return fail("bad pread operands");
            }
            break;
          default:
            return fail("unknown opcode");
        }
        events++;
    }
    if (events != trace.eventCount) {
        err = "event count mismatch (header says " +
            std::to_string(trace.eventCount) + ", stream holds " +
            std::to_string(events) + ")";
        return false;
    }
    return true;
}

/**
 * Config slots of retired fields keep their v1 positions and hold a
 * constant: the slot after rangeMatchLatency held syncVerification
 * (fill verification now always overlaps data delivery), and the
 * three after diffWays held useDaxClChecksums, useRedundancyCaching
 * and useDataDiffs (the Fig 9 ladder now belongs to the design). The
 * writer emits the constants; the reader rejects any other value.
 */
constexpr std::uint64_t kReservedVerifySlot = 0;
constexpr std::uint64_t kReservedLadderSlot = 1;
constexpr int kLadderSlots = 3;

std::vector<std::uint8_t>
serializeConfig(const SimConfig &cfg)
{
    std::vector<std::uint8_t> buf;
    putU64(buf, cfg.cores);
    putF64(buf, cfg.coreGhz);
    putCacheParams(buf, cfg.l1);
    putCacheParams(buf, cfg.l2);
    putCacheParams(buf, cfg.llcBank);
    putU64(buf, cfg.llcBanks);
    putU64(buf, cfg.dram.sizeBytes);
    putF64(buf, cfg.dram.accessNs);
    putF64(buf, cfg.dram.accessEnergy);
    putU64(buf, cfg.nvm.dimms);
    putU64(buf, cfg.nvm.dimmBytes);
    putF64(buf, cfg.nvm.readNs);
    putF64(buf, cfg.nvm.writeNs);
    putF64(buf, cfg.nvm.readEnergy);
    putF64(buf, cfg.nvm.writeEnergy);
    putF64(buf, cfg.nvm.occupancyReadFactor);
    putF64(buf, cfg.nvm.occupancyWriteFactor);
    putU64(buf, cfg.tvarak.cacheBytes);
    putU64(buf, cfg.tvarak.cacheWays);
    putU64(buf, cfg.tvarak.cacheLatency);
    putF64(buf, cfg.tvarak.cacheHitEnergy);
    putF64(buf, cfg.tvarak.cacheMissEnergy);
    putU64(buf, cfg.tvarak.rangeMatchLatency);
    putU64(buf, kReservedVerifySlot);
    putU64(buf, cfg.tvarak.computeLatency);
    putU64(buf, cfg.tvarak.redundancyWays);
    putU64(buf, cfg.tvarak.diffWays);
    for (int i = 0; i < kLadderSlots; i++)
        putU64(buf, kReservedLadderSlot);
    putU64(buf, cfg.storeIssueCycles);
    putF64(buf, cfg.storeMissLatencyFactor);
    putU64(buf, cfg.prefetchDegree);
    putF64(buf, cfg.swChecksumBytesPerCycle);
    // Optional tail, present only when non-default: traces of the
    // classic single-parity arrays stay byte-identical to the frozen
    // format (and old traces deserialize with the defaults).
    if (cfg.nvm.parityDimms != 1 || cfg.nvm.dimmsPerDomain != 1) {
        putU64(buf, cfg.nvm.parityDimms);
        putU64(buf, cfg.nvm.dimmsPerDomain);
    }
    return buf;
}

bool
deserializeConfig(const std::vector<std::uint8_t> &blob, SimConfig &cfg)
{
    const std::uint8_t *p = blob.data();
    const std::uint8_t *end = p + blob.size();
    std::uint64_t u = 0;
    bool ok = getU64(p, end, u);
    cfg.cores = u;
    ok = ok && getF64(p, end, cfg.coreGhz);
    ok = ok && getCacheParams(p, end, cfg.l1);
    ok = ok && getCacheParams(p, end, cfg.l2);
    ok = ok && getCacheParams(p, end, cfg.llcBank);
    ok = ok && getU64(p, end, u);
    cfg.llcBanks = u;
    ok = ok && getU64(p, end, u);
    cfg.dram.sizeBytes = u;
    ok = ok && getF64(p, end, cfg.dram.accessNs);
    ok = ok && getF64(p, end, cfg.dram.accessEnergy);
    ok = ok && getU64(p, end, u);
    cfg.nvm.dimms = u;
    ok = ok && getU64(p, end, u);
    cfg.nvm.dimmBytes = u;
    ok = ok && getF64(p, end, cfg.nvm.readNs);
    ok = ok && getF64(p, end, cfg.nvm.writeNs);
    ok = ok && getF64(p, end, cfg.nvm.readEnergy);
    ok = ok && getF64(p, end, cfg.nvm.writeEnergy);
    ok = ok && getF64(p, end, cfg.nvm.occupancyReadFactor);
    ok = ok && getF64(p, end, cfg.nvm.occupancyWriteFactor);
    ok = ok && getU64(p, end, u);
    cfg.tvarak.cacheBytes = u;
    ok = ok && getU64(p, end, u);
    cfg.tvarak.cacheWays = u;
    ok = ok && getU64(p, end, cfg.tvarak.cacheLatency);
    ok = ok && getF64(p, end, cfg.tvarak.cacheHitEnergy);
    ok = ok && getF64(p, end, cfg.tvarak.cacheMissEnergy);
    ok = ok && getU64(p, end, cfg.tvarak.rangeMatchLatency);
    ok = ok && getU64(p, end, u) && u == kReservedVerifySlot;
    ok = ok && getU64(p, end, cfg.tvarak.computeLatency);
    ok = ok && getU64(p, end, u);
    cfg.tvarak.redundancyWays = u;
    ok = ok && getU64(p, end, u);
    cfg.tvarak.diffWays = u;
    for (int i = 0; i < kLadderSlots; i++)
        ok = ok && getU64(p, end, u) && u == kReservedLadderSlot;
    ok = ok && getU64(p, end, cfg.storeIssueCycles);
    ok = ok && getF64(p, end, cfg.storeMissLatencyFactor);
    ok = ok && getU64(p, end, u);
    cfg.prefetchDegree = u;
    ok = ok && getF64(p, end, cfg.swChecksumBytesPerCycle);
    // Optional n+k tail (absent in traces of single-parity arrays).
    cfg.nvm.parityDimms = 1;
    cfg.nvm.dimmsPerDomain = 1;
    if (ok && p != end) {
        ok = getU64(p, end, u);
        cfg.nvm.parityDimms = u;
        ok = ok && getU64(p, end, u);
        cfg.nvm.dimmsPerDomain = u;
    }
    return ok && p == end;
}

/*
 * TraceData file I/O.
 */

bool
TraceData::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        warn("trace: cannot open %s for writing", path.c_str());
        return false;
    }
    std::vector<std::uint8_t> hdr;
    std::vector<std::uint8_t> blob = serializeConfig(cfg);
    putU64(hdr, kTraceMagic);
    putU32(hdr, version);
    putU32(hdr, static_cast<std::uint32_t>(recordedDesign));
    putU64(hdr, configFingerprint);
    putU32(hdr, threads);
    putU32(hdr, static_cast<std::uint32_t>(workloadName.size()));
    hdr.insert(hdr.end(), workloadName.begin(), workloadName.end());
    putU32(hdr, static_cast<std::uint32_t>(blob.size()));
    hdr.insert(hdr.end(), blob.begin(), blob.end());
    putU64(hdr, eventCount);
    putU64(hdr, records.size());
    os.write(reinterpret_cast<const char *>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
    os.write(reinterpret_cast<const char *>(records.data()),
             static_cast<std::streamsize>(records.size()));
    if (!os.good()) {
        warn("trace: short write to %s", path.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<TraceData>
TraceData::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        warn("trace: cannot open %s", path.c_str());
        return nullptr;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    const std::uint8_t *p = bytes.data();
    const std::uint8_t *end = p + bytes.size();

    auto trace = std::make_shared<TraceData>();
    std::uint64_t magic = 0;
    std::uint32_t design = 0;
    std::uint32_t nameLen = 0;
    std::uint32_t cfgLen = 0;
    std::uint64_t recordsLen = 0;
    if (!getU64(p, end, magic) || magic != kTraceMagic) {
        warn("trace: %s: bad magic", path.c_str());
        return nullptr;
    }
    if (!getU32(p, end, trace->version) ||
        trace->version != kTraceVersion) {
        warn("trace: %s: unsupported version %u", path.c_str(),
             trace->version);
        return nullptr;
    }
    bool ok = getU32(p, end, design) &&
        getU64(p, end, trace->configFingerprint) &&
        getU32(p, end, trace->threads) && getU32(p, end, nameLen);
    if (!ok || end - p < nameLen) {
        warn("trace: %s: truncated header", path.c_str());
        return nullptr;
    }
    trace->recordedDesign = static_cast<DesignKind>(design);
    if (!isRegisteredKind(trace->recordedDesign)) {
        warn("trace: %s: unknown design id %u in header", path.c_str(),
             design);
        return nullptr;
    }
    trace->workloadName.assign(reinterpret_cast<const char *>(p),
                               nameLen);
    p += nameLen;
    if (!getU32(p, end, cfgLen) || end - p < cfgLen) {
        warn("trace: %s: truncated config", path.c_str());
        return nullptr;
    }
    std::vector<std::uint8_t> blob(p, p + cfgLen);
    p += cfgLen;
    if (!deserializeConfig(blob, trace->cfg)) {
        warn("trace: %s: malformed config blob", path.c_str());
        return nullptr;
    }
    if (fnv1a(blob.data(), blob.size()) != trace->configFingerprint) {
        warn("trace: %s: config fingerprint mismatch", path.c_str());
        return nullptr;
    }
    ok = getU64(p, end, trace->eventCount) && getU64(p, end, recordsLen);
    if (!ok || static_cast<std::uint64_t>(end - p) != recordsLen) {
        warn("trace: %s: truncated records", path.c_str());
        return nullptr;
    }
    trace->records.assign(p, end);
    std::string err;
    if (!validateRecords(*trace, err)) {
        warn("trace: %s: corrupt record stream: %s", path.c_str(),
             err.c_str());
        return nullptr;
    }
    return trace;
}

/*
 * TraceWriter.
 */

TraceWriter::TraceWriter(const SimConfig &cfg, DesignKind design,
                         std::string workloadName)
    : data_(std::make_shared<TraceData>())
{
    data_->recordedDesign = design;
    data_->workloadName = std::move(workloadName);
    data_->cfg = cfg;
}

Addr &
TraceWriter::cursorOf(int tid)
{
    auto idx = static_cast<std::size_t>(tid);
    if (idx >= lastVaddr_.size())
        lastVaddr_.resize(idx + 1, 0);
    return lastVaddr_[idx];
}

void
TraceWriter::putHead(Op op, int tid)
{
    panic_if(tid < 0, "trace: negative tid %d", tid);
    if (tid > maxTid_)
        maxTid_ = tid;
    std::uint8_t low = tid < kTidEscape ? static_cast<std::uint8_t>(tid)
                                        : kTidEscape;
    data_->records.push_back(
        static_cast<std::uint8_t>(static_cast<unsigned>(op) << 4 | low));
    if (low == kTidEscape)
        putVarint(data_->records, static_cast<std::uint64_t>(tid));
    data_->eventCount++;
}

void
TraceWriter::putAddr(int tid, Addr vaddr, std::size_t len)
{
    Addr &last = cursorOf(tid);
    putVarint(data_->records,
              zigzag(static_cast<std::int64_t>(vaddr) -
                     static_cast<std::int64_t>(last)));
    putVarint(data_->records, len);
    last = vaddr + len;
}

void
TraceWriter::onRead(int tid, Addr vaddr, std::size_t len)
{
    putHead(Op::Read, tid);
    putAddr(tid, vaddr, len);
}

void
TraceWriter::onWrite(int tid, Addr vaddr, const void *buf,
                     std::size_t len)
{
    putHead(Op::Write, tid);
    putAddr(tid, vaddr, len);
    const auto *b = static_cast<const std::uint8_t *>(buf);
    data_->records.insert(data_->records.end(), b, b + len);
}

void
TraceWriter::onCompute(int tid, Cycles cycles)
{
    putHead(Op::Compute, tid);
    putVarint(data_->records, cycles);
}

void
TraceWriter::onComputeChecksum(int tid, std::size_t bytes)
{
    putHead(Op::ComputeChecksum, tid);
    putVarint(data_->records, bytes);
}

void
TraceWriter::onDropCaches()
{
    putHead(Op::DropCaches, 0);
}

void
TraceWriter::onCommit(int tid, const std::vector<DirtyRange> &ranges,
                      bool runScheme, bool countsTxCommit)
{
    putHead(Op::Commit, tid);
    std::uint8_t flags = 0;
    if (runScheme)
        flags |= kCommitRunScheme;
    if (countsTxCommit)
        flags |= kCommitCountsTx;
    data_->records.push_back(flags);
    if (!runScheme) {
        putVarint(data_->records, 0);
        return;
    }
    putVarint(data_->records, ranges.size());
    for (const DirtyRange &r : ranges) {
        bool hasObj = r.objBase != 0 || r.objLen != 0;
        bool ownLine = hasObj && r.objBase == lineBase(r.vaddr) &&
            r.objLen == kLineBytes;
        bool hasCsum = r.csumVaddr != 0;
        std::uint8_t rf = 0;
        if (r.appData)
            rf |= kRangeAppData;
        if (hasObj)
            rf |= kRangeHasObj;
        if (hasCsum)
            rf |= kRangeHasCsum;
        if (ownLine)
            rf |= kRangeObjIsOwnLine;
        data_->records.push_back(rf);
        putAddr(tid, r.vaddr, r.len);
        if (hasObj && !ownLine) {
            putVarint(data_->records,
                      zigzag(static_cast<std::int64_t>(r.objBase) -
                             static_cast<std::int64_t>(r.vaddr)));
            putVarint(data_->records, r.objLen);
        }
        if (hasCsum) {
            putVarint(data_->records,
                      zigzag(static_cast<std::int64_t>(r.csumVaddr) -
                             static_cast<std::int64_t>(r.vaddr)));
        }
    }
}

void
TraceWriter::onFsCreate(const std::string &name, std::size_t bytes,
                        int fd)
{
    putHead(Op::FsCreate, 0);
    putVarint(data_->records, name.size());
    data_->records.insert(data_->records.end(), name.begin(), name.end());
    putVarint(data_->records, bytes);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
}

void
TraceWriter::onFsDaxMap(int fd)
{
    putHead(Op::FsDaxMap, 0);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
}

void
TraceWriter::onFsDaxUnmap(int fd)
{
    putHead(Op::FsDaxUnmap, 0);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
}

void
TraceWriter::onFsRemove(int fd)
{
    putHead(Op::FsRemove, 0);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
}

void
TraceWriter::onFsPwrite(int tid, int fd, std::size_t offset,
                        const void *buf, std::size_t len)
{
    putHead(Op::FsPwrite, tid);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
    putVarint(data_->records, offset);
    putVarint(data_->records, len);
    const auto *b = static_cast<const std::uint8_t *>(buf);
    data_->records.insert(data_->records.end(), b, b + len);
}

void
TraceWriter::onFsPread(int tid, int fd, std::size_t offset,
                       std::size_t len)
{
    putHead(Op::FsPread, tid);
    putVarint(data_->records, static_cast<std::uint64_t>(fd));
    putVarint(data_->records, offset);
    putVarint(data_->records, len);
}

void
TraceWriter::onMarker(std::uint64_t subtype)
{
    putHead(Op::Marker, 0);
    putVarint(data_->records, subtype);
}

std::shared_ptr<TraceData>
TraceWriter::finish()
{
    std::vector<std::uint8_t> blob = serializeConfig(data_->cfg);
    data_->configFingerprint = fnv1a(blob.data(), blob.size());
    data_->threads = static_cast<std::uint32_t>(maxTid_ + 1);
    return std::move(data_);
}

/*
 * TraceCursor.
 */

namespace {

/** Decode one delta-chained (vaddr, len) pair against the per-tid
 *  cursor (mirrors TraceWriter::putAddr). */
void
decodeAddr(const std::uint8_t *&p, const std::uint8_t *end,
           std::vector<Addr> &lastVaddr, int tid, Addr &vaddr,
           std::size_t &len)
{
    auto idx = static_cast<std::size_t>(tid);
    if (idx >= lastVaddr.size())
        lastVaddr.resize(idx + 1, 0);
    std::int64_t delta = unzigzag(getVarint(p, end));
    vaddr = static_cast<Addr>(
        static_cast<std::int64_t>(lastVaddr[idx]) + delta);
    len = getVarint(p, end);
    lastVaddr[idx] = vaddr + len;
}

}  // namespace

TraceCursor::TraceCursor(const TraceData &trace)
    : p_(trace.records.data()),
      end_(trace.records.data() + trace.records.size())
{}

bool
TraceCursor::next(TraceEvent &e)
{
    if (p_ >= end_)
        return false;
    std::uint8_t head = *p_++;
    e.op = static_cast<Op>(head >> 4);
    std::uint8_t low = head & 0xF;
    e.tid = low == kTidEscape
        ? static_cast<int>(getVarint(p_, end_))
        : low;
    e.payload = nullptr;
    e.ranges.clear();

    switch (e.op) {
      case Op::Read:
        decodeAddr(p_, end_, lastVaddr_, e.tid, e.vaddr, e.len);
        break;
      case Op::Write:
        decodeAddr(p_, end_, lastVaddr_, e.tid, e.vaddr, e.len);
        panic_if(static_cast<std::size_t>(end_ - p_) < e.len,
                 "trace: truncated write payload");
        e.payload = p_;
        p_ += e.len;
        break;
      case Op::Compute:
        e.cycles = getVarint(p_, end_);
        break;
      case Op::ComputeChecksum:
        e.bytes = getVarint(p_, end_);
        break;
      case Op::DropCaches:
        break;
      case Op::Commit: {
        panic_if(p_ >= end_, "trace: truncated commit");
        std::uint8_t flags = *p_++;
        e.runScheme = (flags & kCommitRunScheme) != 0;
        e.countsTxCommit = (flags & kCommitCountsTx) != 0;
        std::uint64_t n = getVarint(p_, end_);
        for (std::uint64_t i = 0; i < n; i++) {
            panic_if(p_ >= end_, "trace: truncated commit range");
            std::uint8_t rf = *p_++;
            DirtyRange r;
            r.appData = (rf & kRangeAppData) != 0;
            decodeAddr(p_, end_, lastVaddr_, e.tid, r.vaddr, r.len);
            if ((rf & kRangeHasObj) != 0) {
                if ((rf & kRangeObjIsOwnLine) != 0) {
                    r.objBase = lineBase(r.vaddr);
                    r.objLen = kLineBytes;
                } else {
                    r.objBase = static_cast<Addr>(
                        static_cast<std::int64_t>(r.vaddr) +
                        unzigzag(getVarint(p_, end_)));
                    r.objLen = getVarint(p_, end_);
                }
            }
            if ((rf & kRangeHasCsum) != 0) {
                r.csumVaddr = static_cast<Addr>(
                    static_cast<std::int64_t>(r.vaddr) +
                    unzigzag(getVarint(p_, end_)));
            }
            e.ranges.push_back(r);
        }
        break;
      }
      case Op::FsCreate: {
        std::uint64_t nameLen = getVarint(p_, end_);
        panic_if(static_cast<std::uint64_t>(end_ - p_) < nameLen,
                 "trace: truncated file name");
        e.name.assign(reinterpret_cast<const char *>(p_), nameLen);
        p_ += nameLen;
        e.bytes = getVarint(p_, end_);
        e.fd = static_cast<int>(getVarint(p_, end_));
        break;
      }
      case Op::FsDaxMap:
      case Op::FsDaxUnmap:
      case Op::FsRemove:
        e.fd = static_cast<int>(getVarint(p_, end_));
        break;
      case Op::FsPwrite:
        e.fd = static_cast<int>(getVarint(p_, end_));
        e.offset = getVarint(p_, end_);
        e.len = getVarint(p_, end_);
        panic_if(static_cast<std::size_t>(end_ - p_) < e.len,
                 "trace: truncated pwrite payload");
        e.payload = p_;
        p_ += e.len;
        break;
      case Op::FsPread:
        e.fd = static_cast<int>(getVarint(p_, end_));
        e.offset = getVarint(p_, end_);
        e.len = getVarint(p_, end_);
        break;
      case Op::Marker:
        e.subtype = getVarint(p_, end_);
        break;
      default:
        panic("trace: bad opcode %u", static_cast<unsigned>(e.op));
    }
    return true;
}

/*
 * TraceReplayWorkload.
 */

TraceReplayWorkload::TraceReplayWorkload(
    std::shared_ptr<const TraceData> trace, MemorySystem &mem, DaxFs &fs)
    : trace_(std::move(trace)),
      mem_(mem),
      fs_(fs),
      cursor_(*trace_),
      scheme_(mem.designObj().makeScheme(mem))
{}

void
TraceReplayWorkload::setup()
{
    while (cursor_.next(event_)) {
        if (!apply(event_))
            return;
    }
    panic("trace: stream ended before the reset-stats marker");
}

bool
TraceReplayWorkload::step()
{
    if (exhausted_)
        return false;
    // One slice replays a few thousand events: enough to amortize the
    // round-robin overhead, short enough for responsive interleaving
    // if other workloads are ever mixed in.
    for (int i = 0; i < 4096; i++) {
        if (!cursor_.next(event_)) {
            exhausted_ = true;
            return false;
        }
        apply(event_);
    }
    return true;
}

bool
TraceReplayWorkload::apply(const TraceEvent &e)
{
    switch (e.op) {
      case Op::Read:
        if (scratch_.size() < e.len)
            scratch_.resize(e.len);
        mem_.read(e.tid, e.vaddr, scratch_.data(), e.len);
        break;
      case Op::Write:
        mem_.write(e.tid, e.vaddr, e.payload, e.len);
        break;
      case Op::Compute:
        mem_.compute(e.tid, e.cycles);
        break;
      case Op::ComputeChecksum:
        mem_.computeChecksum(e.tid, e.bytes);
        break;
      case Op::DropCaches:
        mem_.dropCaches();
        break;
      case Op::Commit:
        if (e.countsTxCommit)
            mem_.stats().txCommits++;
        if (e.runScheme && scheme_ != nullptr)
            scheme_->onCommit(e.tid, e.ranges);
        break;
      case Op::FsCreate: {
        int fd = fs_.create(e.name, e.bytes);
        panic_if(fd != e.fd,
                 "trace replay: fd mismatch for %s (%d, recorded %d)",
                 e.name.c_str(), fd, e.fd);
        break;
      }
      case Op::FsDaxMap:
        fs_.daxMap(e.fd);
        break;
      case Op::FsDaxUnmap:
        fs_.daxUnmap(e.fd);
        break;
      case Op::FsRemove:
        fs_.remove(e.fd);
        break;
      case Op::FsPwrite:
        fs_.pwrite(e.tid, e.fd, e.offset, e.payload, e.len);
        break;
      case Op::FsPread:
        if (scratch_.size() < e.len)
            scratch_.resize(e.len);
        fs_.pread(e.tid, e.fd, e.offset, scratch_.data(), e.len);
        break;
      case Op::Marker:
        if (e.subtype == kMarkerResetStats)
            return false;
        break;
    }
    return true;
}

WorkloadFactory
makeReplayFactory(std::shared_ptr<const TraceData> trace)
{
    return [trace](MemorySystem &mem, DaxFs &fs) {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<TraceReplayWorkload>(trace, mem, fs));
        return set;
    };
}

/*
 * Record / replay entry points.
 */

RecordResult
recordExperiment(const SimConfig &cfg, DesignKind design,
                 const WorkloadFactory &make,
                 const std::string &workloadName)
{
    return recordExperiment(cfg, designOf(design), make, workloadName);
}

RecordResult
recordExperiment(const SimConfig &cfg, const Design &design,
                 const WorkloadFactory &make,
                 const std::string &workloadName)
{
    auto writer = std::make_shared<TraceWriter>(cfg, design.kind(),
                                                workloadName);
    RunHooks hooks;
    hooks.onMachine = [&writer](MemorySystem &mem, DaxFs &) {
        mem.setTraceSink(writer.get());
    };
    hooks.beforeReset = [&writer](MemorySystem &) {
        writer->onMarker(kMarkerResetStats);
    };
    // The final flushAll is not traced: replay's runner re-executes it
    // natively over bit-identical machine state.
    hooks.beforeFlush = [](MemorySystem &mem) {
        mem.setTraceSink(nullptr);
    };
    RecordResult out;
    out.result = runExperiment(cfg, design, make, hooks);
    out.trace = writer->finish();
    return out;
}

RunResult
replayExperiment(std::shared_ptr<const TraceData> trace,
                 DesignKind design)
{
    return replayExperiment(std::move(trace), designOf(design));
}

RunResult
replayExperiment(std::shared_ptr<const TraceData> trace,
                 const Design &design)
{
    SimConfig cfg = trace->cfg;
    return runExperiment(cfg, design, makeReplayFactory(std::move(trace)));
}

}  // namespace tvarak::trace
