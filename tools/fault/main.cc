/**
 * @file
 * tvarak-fault: seeded randomized fault campaigns against the
 * simulated machine, checking the paper's end-to-end promise — every
 * acknowledged write is either served back correct or its loss is
 * *detected*; it is never silently wrong.
 *
 *   tvarak-fault map    --seed N [--design <d>] [--ops N] [--keys N]
 *                       [--events N] [--out report.json]
 *   tvarak-fault replay <file.trace> --seed N [--out report.json]
 *
 * `map` runs a key-value workload (C-Tree over pmemlib) against a
 * shadow std::map oracle while a seeded schedule of firmware bugs
 * (lost / misdirected writes, misdirected reads), media bit flips and
 * one whole-DIMM loss fires at random operation boundaries. What each
 * design is expected to catch — and how — differs:
 *
 *  - Tvarak            detects on the very next read (fill-time
 *                      checksum verification) and recovers from
 *                      parity transparently; DIMM loss is survived
 *                      in place with degraded reads and online
 *                      rebuild, with updates continuing throughout.
 *  - TxB-Page-Csums    detects at quiesce via a page-checksum scrub
 *                      of the at-rest media, repairs from parity.
 *  - TxB-Object-Csums  detects at quiesce via the object-checksum
 *                      sweep and the parity cross-check, recovers at
 *                      application level (rewrite from a good copy).
 *                      Both TxB schemes recompute parity at commit,
 *                      so they too survive DIMM loss — but only with
 *                      writes quiesced while degraded (recomputation
 *                      reads stripe siblings, which is unsafe against
 *                      a half-updated stripe).
 *  - Baseline          detects nothing but device ECC (bit flips);
 *                      firmware bugs go *silently wrong* — the
 *                      campaign pins that non-detection.
 *
 * `replay` re-runs a recorded access trace under TVARAK and injects a
 * whole-DIMM failure plus online rebuild at seeded points mid-replay;
 * the faulted run's final NVM image must be bit-exact against a clean
 * replay of the same trace.
 *
 * Reports are deterministic JSON: same binary + same arguments =>
 * byte-identical output (no timestamps, no floats, fixed field
 * order), so campaigns can be diffed and pinned in CI.
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/trees/pmem_map.hh"
#include "fs/dax_fs.hh"
#include "harness/runner.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/rebuild.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

#include "../cli_args.hh"

namespace tvarak::faultcli {
namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  tvarak-fault map    --seed N [--design <d>] [--ops N]"
        " [--keys N]\n"
        "                      [--events N] [--out report.json]\n"
        "  tvarak-fault multi  --seed N [--design <d>] [--ops N]"
        " [--keys N]\n"
        "                      [--fail-dimms i,j | --fail-dimms i"
        " --refail]\n"
        "                      [--out report.json]\n"
        "  tvarak-fault replay <file.trace> --seed N"
        " [--out report.json]\n"
        "designs: %s\n",
        registeredNameList().c_str());
    return 2;
}

/** Uniform in [0, n) as `next() % n`, 0 when @p n is 0. Every
 *  campaign schedule is drawn this way, so keep it: Rng::nextBounded
 *  would change every report. */
std::uint64_t
below(Rng &rng, std::uint64_t n)
{
    return n == 0 ? 0 : rng.next() % n;
}

/** Optional flag @p key as an integer >= @p min, @p dflt if absent;
 *  exit 2 on a bad value. */
std::uint64_t
numberFlag(const cli::Args &a, const char *key, std::uint64_t dflt,
           std::uint64_t min = 1)
{
    auto it = a.flags.find(key);
    return it != a.flags.end()
        ? cli::parseNumber("tvarak-fault", key, it->second, min)
        : dflt;
}

// ------------------------------------------------------------------
// Deterministic JSON assembly: fixed field order, integers only.
// ------------------------------------------------------------------
class Json
{
  public:
    void
    key(const std::string &k)
    {
        comma();
        out_ += '"';
        out_ += k;
        out_ += "\": ";
        fresh_ = false;
    }

    void
    value(std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        out_ += buf;
    }

    void value(bool v) { out_ += v ? "true" : "false"; }

    void
    value(const std::string &v)
    {
        out_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            out_ += c;
        }
        out_ += '"';
    }

    template <typename T>
    void
    field(const std::string &k, T v)
    {
        key(k);
        value(v);
    }

    void field(const std::string &k, const char *v)
    {
        key(k);
        value(std::string(v));
    }

    void open(char c) { out_ += c; fresh_ = true; }
    void openField(const std::string &k, char c) { key(k); open(c); }
    void close(char c) { out_ += c; fresh_ = false; }
    void item() { comma(); fresh_ = false; }

    const std::string &str() const { return out_; }

  private:
    void
    comma()
    {
        if (!fresh_)
            out_ += ", ";
        fresh_ = true;
    }

    std::string out_;
    bool fresh_ = true;
};

void
appendCounters(Json &json, const Stats &stats)
{
    json.openField("counters", '{');
    json.field("corruptions_detected", stats.corruptionsDetected);
    json.field("recoveries", stats.recoveries);
    json.field("degraded_reads", stats.degradedReads);
    json.field("degraded_writes_dropped", stats.degradedWritesDropped);
    json.field("degraded_red_skips", stats.degradedRedSkips);
    json.field("degraded_reads_multi", stats.degradedReadsMulti);
    json.field("rebuild_lines", stats.rebuildLines);
    json.field("rebuild_restarts", stats.rebuildRestarts);
    json.field("scrub_lines", stats.scrubLines);
    json.field("scrub_repairs", stats.scrubRepairs);
    json.close('}');
}

int
emit(const Json &json, const std::string &outPath, bool pass)
{
    std::string text = json.str() + "\n";
    if (outPath.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "tvarak-fault: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        std::fputs(text.c_str(), f);
        std::fclose(f);
        std::printf("%s: %s\n", pass ? "PASS" : "FAIL",
                    outPath.c_str());
    }
    return pass ? 0 : 1;
}

// ------------------------------------------------------------------
// The map-oracle campaign.
// ------------------------------------------------------------------
enum class FaultKind {
    LostWrite,
    MisdirectedWrite,
    MisdirectedRead,
    BitFlip,
    DimmLoss,
};

const char *
faultName(FaultKind k)
{
    switch (k) {
      case FaultKind::LostWrite:        return "lost-write";
      case FaultKind::MisdirectedWrite: return "misdirected-write";
      case FaultKind::MisdirectedRead:  return "misdirected-read";
      case FaultKind::BitFlip:          return "bit-flip";
      case FaultKind::DimmLoss:         return "dimm-loss";
    }
    return "?";
}

struct ScheduledFault {
    std::size_t op;
    FaultKind kind;
};

struct EventRecord {
    std::size_t op;
    FaultKind kind;
    std::string target;
    std::string result;    //!< detected / silent-expected / skipped...
    std::string detector;  //!< tvarak-fill / page-scrub / ...
    bool ok;               //!< matched this design's expectation
};

/** The scaled-down test machine: small caches so evictions (and thus
 *  writebacks and refills, where redundancy acts) happen quickly. */
SimConfig
campaignConfig()
{
    SimConfig cfg;
    cfg.cores = 2;
    cfg.l1 = {4 * 1024, 4, 4, 15.0, 33.0};
    cfg.l2 = {16 * 1024, 8, 7, 46.0, 94.0};
    cfg.llcBank = {64 * 1024, 16, 27, 240.0, 500.0};
    cfg.llcBanks = 4;
    cfg.dram.sizeBytes = 8ull << 20;
    cfg.nvm.dimms = 4;
    cfg.nvm.dimmBytes = 16ull << 20;
    return cfg;
}

class MapCampaign
{
  public:
    MapCampaign(const Design &design, std::uint64_t seed,
                std::size_t ops, std::size_t keys, std::size_t events)
        : design_(&design), seed_(seed), ops_(ops), keys_(keys),
          nEvents_(events), rng_(seed),
          mem_(campaignConfig(), design), fs_(mem_),
          scheme_(design.makeScheme(mem_)),
          pool_(mem_, fs_, "p", 4ull << 20, scheme_.get(), 1),
          map_(makeMap(MapKind::CTree, mem_, pool_, kValueBytes)),
          version_(keys, 0)
    {
    }

    bool run();
    void report(Json &json) const;

  private:
    static constexpr std::size_t kValueBytes = 48;
    /** Online rebuild budget per operation: fast enough that the
     *  campaign regains full redundancy with room for more faults,
     *  slow enough that many ops overlap the rebuilding window. */
    static constexpr std::size_t kRebuildLinesPerOp = 8192;

    void valueFor(std::uint64_t key, std::uint64_t version,
                  std::uint8_t *out) const;
    void schedule();
    bool degraded() { return mem_.nvmArray().anyDegraded(); }
    Addr lineOfKey(std::uint64_t key);
    void updateKey(std::uint64_t key, std::uint64_t version);
    bool getCheck(std::uint64_t key, bool expectCorrect);
    void probe(std::size_t op);
    void clearInjected();
    void runEvent(std::size_t op, FaultKind kind);
    void lineBugEvent(std::size_t op, FaultKind kind);
    void dimmLossEvent(std::size_t op);
    void appDetectRepair(EventRecord &ev,
                         const std::vector<std::uint64_t> &victims);
    /** Out-of-band recovery for designs that can detect but not
     *  repair mapped data (Baseline, object csums): a pre-fault good
     *  copy of each victim's whole line. Line-granular because pool
     *  objects are not line aligned — a corrupted line can clip a
     *  neighbouring object or tree node that rewriting the attacked
     *  keys would never heal. */
    struct SavedLine {
        Addr vline;   //!< virtual address of the line
        Addr global;  //!< NVM-global media address
        std::uint8_t bytes[kLineBytes];
    };
    std::vector<SavedLine>
    snapshotLines(const std::vector<std::uint64_t> &victims);
    void restoreLines(const std::vector<SavedLine> &saved);
    /** Close any batched redundancy work (Vilamb's open epoch) so the
     *  at-rest sweeps judge a consistent image; no-op for the sync
     *  schemes and the scheme-less designs. */
    void drainScheme();
    void finish();

    const Design *design_;
    std::uint64_t seed_;
    std::size_t ops_;
    std::size_t keys_;
    std::size_t nEvents_;
    Rng rng_;
    MemorySystem mem_;
    DaxFs fs_;
    std::unique_ptr<RedundancyScheme> scheme_;
    PmemPool pool_;
    std::unique_ptr<PmemMap> map_;
    std::vector<std::uint64_t> version_;  //!< shadow oracle
    int poolFd_ = -1;

    std::vector<ScheduledFault> schedule_;
    std::vector<EventRecord> events_;
    std::unique_ptr<RebuildEngine> rebuild_;
    std::size_t replaceAtOp_ = 0;
    std::size_t failedDimm_ = 0;

    // Campaign counters.
    std::uint64_t readsCorrect_ = 0;
    std::uint64_t readsRecovered_ = 0;
    std::uint64_t silentWrong_ = 0;
    std::uint64_t expectedSilent_ = 0;
    std::uint64_t updatesPaused_ = 0;
    bool shadowVerified_ = false;
    std::uint64_t finalScrubBad_ = 0;
    std::uint64_t finalParityBad_ = 0;
    std::size_t lineBugEvents_ = 0;
    bool eventFailure_ = false;
    bool pass_ = false;
};

void
MapCampaign::valueFor(std::uint64_t key, std::uint64_t version,
                      std::uint8_t *out) const
{
    for (std::size_t i = 0; i < kValueBytes; i++) {
        out[i] = static_cast<std::uint8_t>(key * 131 + version * 17 +
                                           seed_ + i);
    }
}

void
MapCampaign::schedule()
{
    // Which faults a design participates in, from its registry
    // policy bits. Misdirected reads are transient (they never land
    // at rest), so only fill-time verification can see them;
    // quiesce-time sweeps cannot. DIMM loss needs maintained parity,
    // which Baseline lacks for DAX-mapped data.
    std::vector<FaultKind> pool = {FaultKind::LostWrite,
                                   FaultKind::MisdirectedWrite};
    if (design_->detectsTransientReads())
        pool.push_back(FaultKind::MisdirectedRead);
    pool.push_back(FaultKind::BitFlip);
    if (design_->maintainsMappedParity())
        pool.push_back(FaultKind::DimmLoss);
    bool haveDimmLoss = false;
    std::size_t lo = ops_ / 12 + 1;
    std::size_t hi = ops_ - ops_ / 3;  // leave room for the rebuild
    for (std::size_t i = 0; i < nEvents_; i++) {
        ScheduledFault f;
        f.op = lo + static_cast<std::size_t>(below(rng_, hi - lo));
        f.kind = pool[below(rng_, pool.size())];
        if (f.kind == FaultKind::DimmLoss) {
            // RAID-5: one simultaneous device fault.
            if (haveDimmLoss)
                f.kind = FaultKind::LostWrite;
            haveDimmLoss = true;
        }
        schedule_.push_back(f);
    }
    for (std::size_t i = 1; i < schedule_.size(); i++) {
        for (std::size_t j = i; j > 0 && schedule_[j].op <
                 schedule_[j - 1].op; j--) {
            std::swap(schedule_[j], schedule_[j - 1]);
        }
    }
}

Addr
MapCampaign::lineOfKey(std::uint64_t key)
{
    Addr vaddr = map_->valueAddr(0, key);
    panic_if(vaddr == 0, "campaign key %llu has no value object",
             static_cast<unsigned long long>(key));
    Addr paddr;
    bool is_nvm;
    panic_if(!mem_.translate(vaddr, paddr, is_nvm) || !is_nvm,
             "campaign value not on NVM");
    return lineBase(paddr - kNvmPhysBase);
}

std::vector<MapCampaign::SavedLine>
MapCampaign::snapshotLines(const std::vector<std::uint64_t> &victims)
{
    // Called post-flushAll, pre-dropCaches: the coherent view still
    // holds the acknowledged bytes even though the media does not.
    std::vector<SavedLine> saved;
    for (std::uint64_t k : victims) {
        Addr vaddr = map_->valueAddr(0, k);
        panic_if(vaddr == 0, "campaign key %llu has no value object",
                 static_cast<unsigned long long>(k));
        Addr vline = lineBase(vaddr);
        bool dup = false;
        for (const SavedLine &s : saved)
            dup = dup || s.vline == vline;
        if (dup)
            continue;
        SavedLine s;
        s.vline = vline;
        s.global = lineOfKey(k);
        mem_.peek(vline, s.bytes, kLineBytes);
        saved.push_back(s);
    }
    return saved;
}

void
MapCampaign::restoreLines(const std::vector<SavedLine> &saved)
{
    for (const SavedLine &s : saved) {
        mem_.nvmArray().rawWrite(s.global, s.bytes, kLineBytes);
        mem_.refreshFromMedia(s.vline, kLineBytes);
    }
}

void
MapCampaign::updateKey(std::uint64_t key, std::uint64_t version)
{
    std::uint8_t value[kValueBytes];
    valueFor(key, version, value);
    panic_if(!map_->update(0, key, value), "campaign key vanished");
    version_[key] = version;
}

/** One oracle-checked read. @return true iff the bytes matched the
 *  shadow value. Detection-and-recovery during the read (TVARAK's
 *  fill verification) still counts as correct — that is the point. */
bool
MapCampaign::getCheck(std::uint64_t key, bool expectCorrect)
{
    std::uint8_t expect[kValueBytes];
    std::uint8_t got[kValueBytes] = {};
    valueFor(key, version_[key], expect);
    std::uint64_t before = mem_.stats().corruptionsDetected;
    bool found = map_->get(0, key, got);
    bool correct =
        found && std::memcmp(expect, got, kValueBytes) == 0;
    if (correct) {
        if (mem_.stats().corruptionsDetected > before)
            readsRecovered_++;
        else
            readsCorrect_++;
    } else if (expectCorrect) {
        silentWrong_++;
    } else {
        expectedSilent_++;
    }
    return correct;
}

void
MapCampaign::probe(std::size_t op)
{
    std::uint64_t key = below(rng_, keys_);
    if (!getCheck(key, true)) {
        warn("silent wrong read of key %llu at op %zu",
             static_cast<unsigned long long>(key), op);
    }
}

void
MapCampaign::clearInjected()
{
    auto &nvm = mem_.nvmArray();
    for (std::size_t d = 0; d < nvm.numDimms(); d++)
        nvm.dimm(d).clearInjectedBugs();
}

/** Application-level detect + repair used by the quiesce-time
 *  designs: sweep the at-rest invariants, then rewrite the attacked
 *  keys from the oracle (the "recover from a good copy" leg of the
 *  paper's fault model) and re-sweep to prove the system is whole. */
void
MapCampaign::drainScheme()
{
    if (scheme_ != nullptr)
        scheme_->drain(0);
}

void
MapCampaign::appDetectRepair(EventRecord &ev,
                             const std::vector<std::uint64_t> &victims)
{
    // By the time we sweep, the epoch is closed: lineBugEvent drains
    // at the injection boundaries (draining *here* would be too late —
    // re-reading a page whose media the bug already corrupted would
    // launder the corruption into a fresh checksum).
    mem_.flushAll();
    switch (design_->faultDetection()) {
      case FaultDetection::FillVerify: {
        // Fill-time verification: reading the victims detects and
        // transparently recovers; a repairing scrub then mops up the
        // at-rest copy (and any latent line nobody re-read).
        mem_.dropCaches();
        bool correct = true;
        for (std::uint64_t k : victims)
            correct = getCheck(k, true) && correct;
        bool detected = mem_.stats().corruptionsDetected > 0;
        mem_.flushAll();
        fs_.scrub(true);
        bool whole =
            fs_.scrub(false) == 0 && fs_.verifyParity() == 0;
        ev.result = detected ? "detected" : "missed";
        ev.detector = detected ? "tvarak-fill" : "none";
        ev.ok = detected && correct && whole;
        break;
      }
      case FaultDetection::PageScrub: {
        // Page-checksum scrub over the at-rest media of the victim
        // pages; parity repairs them in place. Ordered set: the scrub
        // order feeds the deterministic JSON report (lint R10).
        std::set<std::size_t> pages;
        for (std::uint64_t k : victims) {
            Addr vaddr = map_->valueAddr(0, k);
            pages.insert(static_cast<std::size_t>(
                (pageBase(vaddr) - fs_.vbase(poolFd_)) / kPageBytes));
        }
        std::size_t bad = 0;
        for (std::size_t p : pages)
            bad += fs_.scrubPage(poolFd_, p, false);
        for (std::size_t p : pages)
            fs_.scrubPage(poolFd_, p, true);
        std::size_t after = 0;
        for (std::size_t p : pages)
            after += fs_.scrubPage(poolFd_, p, false);
        mem_.dropCaches();
        bool correct = true;
        for (std::uint64_t k : victims)
            correct = getCheck(k, true) && correct;
        ev.result = bad > 0 ? "detected" : "missed";
        ev.detector = bad > 0 ? "page-scrub" : "none";
        ev.ok = bad > 0 && after == 0 && correct;
        break;
      }
      case FaultDetection::ObjectSweep: {
        // Object-checksum sweep (payload corruption) plus the parity
        // cross-check (catches the self-consistent-stale case a
        // whole-object lost write leaves behind). The design has no
        // locate-and-repair story for mapped data, so recovery is
        // out-of-band: the harness restores the attacked lines from
        // a pre-fault good copy (pool objects are not line aligned —
        // a corrupted line can clip a neighbouring object or tree
        // node that no key-level rewrite would heal).
        auto saved = snapshotLines(victims);
        mem_.dropCaches();
        std::size_t objBad = pool_.verifyObjects();
        std::size_t parityBad = fs_.verifyParity();
        restoreLines(saved);
        bool whole = pool_.verifyObjects() == 0 &&
            fs_.verifyParity() == 0;
        bool correct = true;
        for (std::uint64_t k : victims)
            correct = getCheck(k, true) && correct;
        bool detected = objBad + parityBad > 0;
        ev.result = detected ? "detected" : "missed";
        ev.detector = objBad > 0 ? "object-sweep"
            : parityBad > 0      ? "parity-scrub"
                                 : "none";
        ev.ok = detected && whole && correct;
        break;
      }
      case FaultDetection::None: {
        // Pinned non-detection: when a victim's read is wrong,
        // nothing notices. Recovery is out-of-band from a good copy,
        // as above.
        auto saved = snapshotLines(victims);
        mem_.dropCaches();
        std::size_t wrong = 0;
        for (std::uint64_t k : victims)
            wrong += getCheck(k, false) ? 0 : 1;
        restoreLines(saved);
        bool correct = true;
        for (std::uint64_t k : victims)
            correct = getCheck(k, true) && correct;
        // Whether a given victim ends up wrong depends on eviction
        // timing (the victim's own dirty line, written back after the
        // redirected write lands, masks the damage), so per-event
        // wrongness is recorded but not asserted; finish() pins the
        // aggregate: zero detections ever, silence observed at least
        // once across the campaign.
        ev.result = wrong > 0 ? "silent-expected" : "masked-by-writeback";
        ev.detector = "none";
        ev.ok = correct;
        break;
      }
    }
}

void
MapCampaign::lineBugEvent(std::size_t op, FaultKind kind)
{
    lineBugEvents_++;
    EventRecord ev;
    ev.op = op;
    ev.kind = kind;
    ev.ok = false;

    // Close any open epoch before arming the bug: the fault must land
    // on *covered* data (a fault inside Vilamb's open window is the
    // documented vulnerability, pinned by the scheme's own tests, not
    // what this campaign judges). No bug is armed yet, so the drain's
    // page re-reads are safe.
    drainScheme();

    std::uint64_t vk = below(rng_, keys_);
    Addr g = lineOfKey(vk);
    auto &nvm = mem_.nvmArray();
    auto &dimm = nvm.dimm(nvm.dimmOf(g));
    Addr media = nvm.mediaAddrOf(g);
    ev.target = "key " + std::to_string(vk);

    switch (kind) {
      case FaultKind::LostWrite: {
        dimm.injectLostWrite(media);
        updateKey(vk, version_[vk] + 1);
        // Close the epoch while the event's writes are still cache-hot
        // (the coherent view, not the bug-corrupted media), so the
        // at-rest checksums and parity cover the acknowledged bytes.
        drainScheme();
        mem_.flushAll();  // the acked writeback is dropped at-rest
        appDetectRepair(ev, {vk});
        break;
      }
      case FaultKind::MisdirectedWrite: {
        // Another key's writeback lands on our victim: its own line
        // goes stale-but-self-consistent, the victim's is corrupted.
        std::uint64_t wk = 0;
        Addr wg = 0;
        bool haveWriter = false;
        for (std::uint64_t i = 1; i < keys_; i++) {
            wk = (vk + i) % keys_;
            wg = lineOfKey(wk);
            if (wg != g && nvm.dimmOf(wg) == nvm.dimmOf(g)) {
                haveWriter = true;
                break;
            }
        }
        if (!haveWriter) {
            ev.result = "skipped-no-same-dimm-writer";
            ev.detector = "none";
            ev.ok = true;
            break;
        }
        ev.target += " <- key " + std::to_string(wk);
        dimm.injectMisdirectedWrite(nvm.mediaAddrOf(wg), media);
        updateKey(wk, version_[wk] + 1);
        drainScheme();  // cache-hot epoch close, as for lost writes
        mem_.flushAll();
        appDetectRepair(ev, {vk, wk});
        break;
      }
      case FaultKind::MisdirectedRead: {
        // Transient: the firmware returns the neighbouring line once.
        Addr other = lineInPage(g) + 1 < kLinesPerPage
            ? g + kLineBytes
            : g - kLineBytes;
        dimm.injectMisdirectedRead(media, nvm.mediaAddrOf(other));
        mem_.flushAll();
        mem_.dropCaches();
        std::uint64_t before = mem_.stats().corruptionsDetected;
        bool correct = getCheck(vk, true);
        bool detected = mem_.stats().corruptionsDetected > before;
        ev.result = detected ? "detected" : "missed";
        ev.detector = detected ? "tvarak-fill" : "none";
        ev.ok = detected && correct;
        break;
      }
      case FaultKind::BitFlip: {
        unsigned bit = static_cast<unsigned>(
            below(rng_, kLineBytes * CHAR_BIT));
        mem_.flushAll();
        if (design_->faultDetection() == FaultDetection::None) {
            // The one fault class the baseline *does* catch: device
            // ECC. Recovery still needs a good copy — of the whole
            // line: the flip can land in a neighbouring object's
            // bytes, which rewriting the attacked key cannot heal.
            auto saved = snapshotLines({vk});
            dimm.injectBitFlip(media, bit);
            bool detected = !dimm.eccCheck(media);
            mem_.dropCaches();
            getCheck(vk, false);  // flip may miss vk's own payload
            restoreLines(saved);
            bool correct = getCheck(vk, true);
            ev.result = detected ? "detected" : "missed";
            ev.detector = detected ? "device-ecc" : "none";
            ev.ok = detected && correct && dimm.eccCheck(media);
        } else {
            dimm.injectBitFlip(media, bit);
            appDetectRepair(ev, {vk});
        }
        break;
      }
      case FaultKind::DimmLoss:
        panic("dimm loss is not a line bug");
    }
    clearInjected();
    if (!ev.ok)
        eventFailure_ = true;
    events_.push_back(std::move(ev));
}

void
MapCampaign::dimmLossEvent(std::size_t op)
{
    // Quiesce and mop up latent corruption first: single-fault
    // discipline — a device loss on top of an undetected line error
    // exceeds the RAID-5 redundancy. Batched schemes (Vilamb) must
    // close their epoch before the repairing scrub judges the media.
    drainScheme();
    mem_.flushAll();
    fs_.scrub(true);
    failedDimm_ = static_cast<std::size_t>(
        below(rng_, mem_.nvmArray().numDimms()));
    mem_.failDimm(failedDimm_);
    mem_.dropCaches();  // every later read of the DIMM reconstructs
    replaceAtOp_ = op + std::max<std::size_t>(ops_ / 6, 8);

    EventRecord ev;
    ev.op = op;
    ev.kind = FaultKind::DimmLoss;
    ev.target = "dimm " + std::to_string(failedDimm_) +
        ", replace at op " + std::to_string(replaceAtOp_);
    ev.result = "degraded";
    ev.detector = "degraded-read";
    ev.ok = true;  // judged by the probes + final sweeps
    events_.push_back(std::move(ev));
}

void
MapCampaign::runEvent(std::size_t op, FaultKind kind)
{
    if (kind == FaultKind::DimmLoss) {
        dimmLossEvent(op);
        return;
    }
    if (degraded()) {
        // Single-fault discipline again: no firmware bugs while a
        // whole device is already out.
        EventRecord ev;
        ev.op = op;
        ev.kind = kind;
        ev.target = "-";
        ev.result = "skipped-degraded";
        ev.detector = "none";
        ev.ok = true;
        events_.push_back(std::move(ev));
        return;
    }
    lineBugEvent(op, kind);
}

void
MapCampaign::finish()
{
    if (rebuild_ == nullptr &&
        mem_.nvmArray().anyDegraded()) {
        mem_.replaceDimm(failedDimm_);
        rebuild_ = std::make_unique<RebuildEngine>(mem_, &fs_);
    }
    if (rebuild_ != nullptr)
        rebuild_->runToCompletion();
    drainScheme();
    mem_.flushAll();

    // Design-appropriate at-rest invariants...
    switch (design_->faultDetection()) {
      case FaultDetection::FillVerify:
      case FaultDetection::PageScrub:
        finalScrubBad_ = fs_.scrub(false);
        finalParityBad_ = fs_.verifyParity();
        break;
      case FaultDetection::ObjectSweep:
        mem_.dropCaches();
        finalScrubBad_ = pool_.verifyObjects();
        finalParityBad_ = fs_.verifyParity();
        break;
      case FaultDetection::None:
        // Nothing to sweep: mapped-data redundancy does not exist.
        break;
    }

    // ...and the oracle's last word: every key, read cold from the
    // at-rest media, must return exactly its acknowledged bytes.
    mem_.dropCaches();
    shadowVerified_ = true;
    for (std::uint64_t k = 0; k < keys_; k++)
        shadowVerified_ = getCheck(k, true) && shadowVerified_;

    pass_ = !eventFailure_ && silentWrong_ == 0 && shadowVerified_ &&
        finalScrubBad_ == 0 && finalParityBad_ == 0;
    if (rebuild_ != nullptr) {
        pass_ = pass_ && mem_.stats().degradedReads > 0 &&
            mem_.stats().rebuildLines > 0;
    }
    if (design_->faultDetection() == FaultDetection::None) {
        // The aggregate Baseline pin: across the whole campaign the
        // design never once claimed a detection, and at least one
        // injected fault was observed as a silent wrong read.
        pass_ = pass_ && mem_.stats().corruptionsDetected == 0 &&
            (lineBugEvents_ == 0 || expectedSilent_ > 0);
    }
}

bool
MapCampaign::run()
{
    poolFd_ = fs_.open("p");
    panic_if(poolFd_ < 0, "campaign pool file missing");
    schedule();

    std::uint8_t value[kValueBytes];
    for (std::uint64_t k = 0; k < keys_; k++) {
        valueFor(k, 0, value);
        map_->insert(0, k, value);
        version_[k] = 0;
    }
    mem_.flushAll();

    std::size_t nextEvent = 0;
    for (std::size_t op = 0; op < ops_; op++) {
        while (nextEvent < schedule_.size() &&
               schedule_[nextEvent].op == op) {
            runEvent(op, schedule_[nextEvent].kind);
            nextEvent++;
        }
        if (replaceAtOp_ != 0 && op == replaceAtOp_) {
            mem_.replaceDimm(failedDimm_);
            rebuild_ = std::make_unique<RebuildEngine>(mem_, &fs_);
        }
        if (rebuild_ != nullptr && !rebuild_->done()) {
            // The rebuilder reconstructs from parity; batched schemes
            // must catch up first or it reads parity that does not yet
            // cover the epoch's acknowledged writebacks.
            drainScheme();
            rebuild_->step(kRebuildLinesPerOp);
        }

        // The TxB schemes (and Vilamb) maintain parity by
        // recomputation over the stripe, which is only safe against a
        // quiesced, consistent image — so their degraded window is
        // read-only. TVARAK's diff-based at-rest updates keep
        // absorbing writes throughout.
        bool writesAllowed =
            !degraded() || design_->absorbsWritesWhileDegraded();
        if (writesAllowed) {
            std::uint64_t k = below(rng_, keys_);
            updateKey(k, version_[k] + 1);
        } else {
            rng_.next();  // keep the draw stream aligned
            updatesPaused_++;
        }
        probe(op);
    }
    finish();
    return pass_;
}

void
MapCampaign::report(Json &json) const
{
    json.open('{');
    json.field("tool", "tvarak-fault");
    json.field("mode", "map");
    json.field("seed", seed_);
    json.field("design", design_->displayName());
    json.field("ops", static_cast<std::uint64_t>(ops_));
    json.field("keys", static_cast<std::uint64_t>(keys_));
    json.openField("events", '[');
    for (const EventRecord &ev : events_) {
        json.item();
        json.open('{');
        json.field("op", static_cast<std::uint64_t>(ev.op));
        json.field("kind", faultName(ev.kind));
        json.field("target", ev.target);
        json.field("result", ev.result);
        json.field("detector", ev.detector);
        json.field("ok", ev.ok);
        json.close('}');
    }
    json.close(']');
    json.openField("reads", '{');
    json.field("correct", readsCorrect_);
    json.field("detected_and_recovered", readsRecovered_);
    json.field("silent_wrong", silentWrong_);
    json.field("silent_expected_baseline", expectedSilent_);
    json.field("updates_paused_degraded", updatesPaused_);
    json.close('}');
    appendCounters(json, mem_.stats());
    json.openField("final", '{');
    json.field("shadow_verified", shadowVerified_);
    json.field("sweep_bad", finalScrubBad_);
    json.field("parity_bad", finalParityBad_);
    json.close('}');
    json.field("verdict", pass_ ? "PASS" : "FAIL");
    json.close('}');
}

int
cmdMap(const std::vector<std::string> &raw)
{
    cli::Args a;
    if (!cli::parseArgs(raw,
                        {"--seed", "--design", "--ops", "--keys",
                         "--events", "--out"},
                        {}, a) ||
        !a.positional.empty() || a.flags.count("--seed") == 0) {
        return usage();
    }
    std::uint64_t seed = cli::parseNumber("tvarak-fault", "--seed",
                                          a.flags.at("--seed"), 0);
    const Design &design = a.flags.count("--design") != 0
        ? cli::parseDesign("tvarak-fault", a.flags.at("--design"))
        : designOf(DesignKind::Tvarak);
    std::size_t ops = numberFlag(a, "--ops", 240, 24);
    std::size_t keys = numberFlag(a, "--keys", 96);
    std::size_t events = numberFlag(a, "--events", 5);

    inform("map campaign: %s, seed %llu, %zu ops, %zu events",
           design.displayName(), static_cast<unsigned long long>(seed),
           ops, events);
    MapCampaign campaign(design, seed, ops, keys, events);
    bool pass = campaign.run();
    Json json;
    campaign.report(json);
    std::string out =
        a.flags.count("--out") != 0 ? a.flags.at("--out") : "";
    return emit(json, out, pass);
}

// ------------------------------------------------------------------
// Trace replay under injected DIMM loss.
// ------------------------------------------------------------------

/** FNV-1a over the full at-rest NVM image, in line-sized chunks. */
std::uint64_t
imageHash(NvmArray &nvm)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint8_t buf[kLineBytes];
    for (Addr a = 0; a < nvm.totalBytes(); a += kLineBytes) {
        nvm.rawRead(a, buf, kLineBytes);
        for (std::uint8_t b : buf) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

int
cmdReplay(const std::vector<std::string> &raw)
{
    cli::Args a;
    if (!cli::parseArgs(raw, {"--seed", "--design", "--out"}, {}, a) ||
        a.positional.size() != 1 || a.flags.count("--seed") == 0) {
        return usage();
    }
    const Design *design = &designOf(DesignKind::Tvarak);
    if (a.flags.count("--design") != 0)
        design = &cli::parseDesign("tvarak-fault", a.flags.at("--design"));
    if (!(design->absorbsWritesWhileDegraded() &&
          design->maintainsMappedParity())) {
        std::fprintf(
            stderr,
            "tvarak-fault: replay fault injection needs a design that "
            "maintains mapped-data parity AND absorbs writes while "
            "degraded; only Tvarak's diff-based at-rest updates do "
            "(the TxB schemes and Vilamb recompute over the stripe, "
            "which is unsafe mid-replay)\n");
        return 2;
    }
    auto trace = trace::TraceData::load(a.positional[0]);
    if (trace == nullptr) {
        std::fprintf(stderr, "tvarak-fault: cannot load trace %s\n",
                     a.positional[0].c_str());
        return 2;
    }
    std::uint64_t seed = cli::parseNumber("tvarak-fault", "--seed",
                                          a.flags.at("--seed"), 0);
    Rng rng(seed);

    // Clean replay: reference image and pass count.
    inform("clean replay of %s (%llu events) ...",
           trace->workloadName.c_str(),
           static_cast<unsigned long long>(trace->eventCount));
    std::size_t passes = 0;
    std::uint64_t cleanHash = 0;
    RunHooks cleanHooks;
    cleanHooks.onStep = [&](MemorySystem &, std::size_t p) {
        passes = p;
    };
    cleanHooks.beforeFlush = [&](MemorySystem &m) {
        m.flushAll();
        cleanHash = imageHash(m.nvmArray());
    };
    RunResult clean = runExperiment(trace->cfg, *design,
                                    trace::makeReplayFactory(trace),
                                    cleanHooks);

    // Faulted replay: lose a random DIMM at a seeded pass, replace it
    // later, rebuild online while the replay keeps running.
    std::size_t failPass =
        1 + static_cast<std::size_t>(
                below(rng, std::max<std::size_t>(passes / 2, 1)));
    std::size_t replacePass = failPass +
        std::max<std::size_t>(passes / 6, 1);
    std::size_t dimm = static_cast<std::size_t>(
        below(rng, trace->cfg.nvm.dimms));
    inform("faulted replay: fail dimm %zu at pass %zu/%zu, replace at "
           "pass %zu ...",
           dimm, failPass, passes, replacePass);

    DaxFs *fsPtr = nullptr;
    std::unique_ptr<RebuildEngine> rebuild;
    bool failed = false;
    std::uint64_t faultedHash = 0;
    std::uint64_t scrubBad = 0;
    std::uint64_t parityBad = 0;
    RunHooks faultHooks;
    faultHooks.onMachine = [&](MemorySystem &, DaxFs &fs) {
        fsPtr = &fs;
    };
    faultHooks.onStep = [&](MemorySystem &m, std::size_t p) {
        if (p == failPass) {
            m.flushAll();
            fsPtr->scrub(true);  // single-fault discipline
            m.failDimm(dimm);
            m.dropCaches();
            failed = true;
        }
        if (p == replacePass && failed && rebuild == nullptr) {
            m.replaceDimm(dimm);
            rebuild = std::make_unique<RebuildEngine>(m, fsPtr);
        }
        if (rebuild != nullptr && !rebuild->done())
            rebuild->step(2048);
    };
    faultHooks.beforeFlush = [&](MemorySystem &m) {
        if (failed && rebuild == nullptr) {
            m.replaceDimm(dimm);
            rebuild = std::make_unique<RebuildEngine>(m, fsPtr);
        }
        if (rebuild != nullptr)
            rebuild->runToCompletion();
        m.flushAll();
        scrubBad = fsPtr->scrub(false);
        parityBad = fsPtr->verifyParity();
        faultedHash = imageHash(m.nvmArray());
    };
    RunResult faulted = runExperiment(trace->cfg, *design,
                                      trace::makeReplayFactory(trace),
                                      faultHooks);

    bool bitexact = faultedHash == cleanHash;
    bool exercised = failed && faulted.stats.degradedReads > 0 &&
        faulted.stats.rebuildLines > 0;
    bool pass =
        bitexact && exercised && scrubBad == 0 && parityBad == 0;

    Json json;
    json.open('{');
    json.field("tool", "tvarak-fault");
    json.field("mode", "replay");
    json.field("seed", seed);
    json.field("design", design->displayName());
    json.field("workload", trace->workloadName);
    json.field("trace_events", trace->eventCount);
    json.field("passes", static_cast<std::uint64_t>(passes));
    json.field("fail_pass", static_cast<std::uint64_t>(failPass));
    json.field("replace_pass",
               static_cast<std::uint64_t>(replacePass));
    json.field("failed_dimm", static_cast<std::uint64_t>(dimm));
    appendCounters(json, faulted.stats);
    json.openField("final", '{');
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(cleanHash));
    json.field("clean_image", std::string(hex));
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(faultedHash));
    json.field("faulted_image", std::string(hex));
    json.field("image_bitexact", bitexact);
    json.field("scrub_bad", scrubBad);
    json.field("parity_bad", parityBad);
    json.close('}');
    json.field("verdict", pass ? "PASS" : "FAIL");
    json.close('}');
    (void)clean;

    std::string out =
        a.flags.count("--out") != 0 ? a.flags.at("--out") : "";
    return emit(json, out, pass);
}

// ------------------------------------------------------------------
// Multi-DIMM failure schedules: lose up to two devices, the second
// one arriving while the first is still rebuilding, and judge the
// outcome against a never-failed twin running the identical op
// sequence.
//
// Two shapes, selected by the flags:
//
//  - two distinct DIMMs (--fail-dimms i,j): fail i, replace it, then
//    fail j mid-rebuild. Two devices are concurrently dead, so only a
//    design with survivableFailures() >= 2 (the RS n+2 geometries)
//    passes with zero data loss and a bit-exact rebuilt image. A
//    single-parity design is the pinned *negative control*: the loss
//    must be detected (poison + detection counters), never silent.
//  - re-fail (--fail-dimms i --refail): the second fault hits the
//    DIMM that is itself rebuilding. Only one device is ever dead at
//    once, so even single-parity survives — but the rebuild must
//    start over (rebuildRestarts), never serve the stale partial
//    sweep.
// ------------------------------------------------------------------

class MultiCampaign
{
  public:
    MultiCampaign(const Design &design, std::uint64_t seed,
                  std::size_t ops, std::size_t keys,
                  std::vector<std::size_t> failDimms, bool refail)
        : design_(&design), seed_(seed), ops_(ops), keys_(keys),
          failDimms_(std::move(failDimms)), refail_(refail)
    {
        sched_.fail1 = std::max<std::size_t>(ops_ / 6, 4);
        sched_.replace1 =
            sched_.fail1 + std::max<std::size_t>(ops_ / 6, 8);
        sched_.fail2 =
            sched_.replace1 + std::max<std::size_t>(ops_ / 48, 2);
        sched_.replace2 =
            sched_.fail2 + std::max<std::size_t>(ops_ / 48, 2);
        panic_if(sched_.replace2 >= ops_,
                 "multi schedule does not fit in %zu ops", ops_);
        std::size_t maxDead = refail_ ? 1 : 2;
        survivable_ = maxDead <= design.survivableFailures();
        Rng rng(seed_);
        seq_.resize(ops_);
        for (OpSpec &op : seq_) {
            op.updateKey = below(rng, keys_);
            op.probeKey = below(rng, keys_);
        }
    }

    bool run();
    void report(Json &json) const;

  private:
    static constexpr std::size_t kValueBytes = 48;
    static_assert(kValueBytes % 8 == 0, "probeAddr reads 64-bit words");
    /** Online rebuild budget per op, deliberately slower than map
     *  mode's: the campaign's hot pages sit at the start of the data
     *  region, just past each DIMM's metadata share, and the second
     *  fault must land while they are still above the first sweep's
     *  watermark — otherwise the double-degraded window never sees a
     *  demand read of a degraded line and proves nothing. */
    static constexpr std::size_t kRebuildLinesPerOp = 2048;

    struct OpSpec {
        std::uint64_t updateKey;
        std::uint64_t probeKey;
    };
    struct Schedule {
        std::size_t fail1, replace1, fail2, replace2;
    };
    /** One complete simulated machine; the clean and the faulted twin
     *  each get a fresh one, built identically. */
    struct Machine {
        MemorySystem mem;
        DaxFs fs;
        std::unique_ptr<RedundancyScheme> scheme;
        PmemPool pool;
        std::unique_ptr<PmemMap> map;

        explicit Machine(const Design &design)
            : mem(campaignConfig(), design), fs(mem),
              scheme(design.makeScheme(mem)),
              pool(mem, fs, "p", 4ull << 20, scheme.get(), 1),
              map(makeMap(MapKind::CTree, mem, pool, kValueBytes))
        {}

        void
        drain()
        {
            if (scheme != nullptr)
                scheme->drain(0);
        }
    };

    /** Probe outcome, worst first. */
    enum class Probe { Correct, Recovered, DetectedLoss, Silent };

    void
    valueFor(std::uint64_t key, std::uint64_t version,
             std::uint8_t *out) const
    {
        for (std::size_t i = 0; i < kValueBytes; i++) {
            out[i] = static_cast<std::uint8_t>(key * 131 +
                                               version * 17 + seed_ + i);
        }
    }

    Probe
    classify(Machine &m, bool correct, std::uint64_t detectedBefore)
    {
        bool det = m.mem.stats().corruptionsDetected > detectedBefore;
        if (correct)
            return det ? Probe::Recovered : Probe::Correct;
        return det ? Probe::DetectedLoss : Probe::Silent;
    }

    /** Oracle-checked read through the map (tree traversal); only
     *  safe while reconstruction stays within the parity budget. */
    Probe
    probeMap(Machine &m, const std::vector<std::uint64_t> &ver,
             std::uint64_t key)
    {
        std::uint8_t expect[kValueBytes];
        std::uint8_t got[kValueBytes] = {};
        valueFor(key, ver[key], expect);
        std::uint64_t before = m.mem.stats().corruptionsDetected;
        bool found = m.map->get(0, key, got);
        return classify(
            m, found && std::memcmp(expect, got, kValueBytes) == 0,
            before);
    }

    /** Oracle-checked read at a pre-recorded value address. Used once
     *  the redundancy budget is exceeded: the tree structure itself
     *  may be unreconstructable, so no traversal. */
    Probe
    probeAddr(Machine &m, const std::vector<std::uint64_t> &ver,
              std::uint64_t key, Addr vaddr)
    {
        std::uint8_t expect[kValueBytes];
        std::uint8_t got[kValueBytes];
        valueFor(key, ver[key], expect);
        std::uint64_t before = m.mem.stats().corruptionsDetected;
        for (std::size_t i = 0; i < kValueBytes; i += 8) {
            std::uint64_t w = m.mem.read64(0, vaddr + i);
            std::memcpy(got + i, &w, 8);
        }
        return classify(
            m, std::memcmp(expect, got, kValueBytes) == 0, before);
    }

    void
    tally(Probe p, bool cleanTwin)
    {
        if (cleanTwin) {
            cleanWrong_ += p == Probe::Correct ? 0 : 1;
            return;
        }
        switch (p) {
          case Probe::Correct:      readsCorrect_++; break;
          case Probe::Recovered:    readsRecovered_++; break;
          case Probe::DetectedLoss: detectedLoss_++; break;
          case Probe::Silent:       silentWrong_++; break;
        }
    }

    void
    setup(Machine &m)
    {
        std::uint8_t value[kValueBytes];
        for (std::uint64_t k = 0; k < keys_; k++) {
            valueFor(k, 0, value);
            m.map->insert(0, k, value);
        }
        m.mem.flushAll();
    }

    void
    applyOp(Machine &m, std::vector<std::uint64_t> &ver,
            const OpSpec &op, bool cleanTwin)
    {
        std::uint8_t value[kValueBytes];
        ver[op.updateKey]++;
        valueFor(op.updateKey, ver[op.updateKey], value);
        panic_if(!m.map->update(0, op.updateKey, value),
                 "campaign key vanished");
        tally(probeMap(m, ver, op.probeKey), cleanTwin);
    }

    /** Quiesce, then lose a device: acked writes must be at rest (or
     *  cache-hot) first, and the cold caches force every later read
     *  of the dead DIMM through reconstruction. */
    void
    failEvent(Machine &m, std::size_t dimm)
    {
        m.drain();
        m.mem.flushAll();
        m.mem.failDimm(dimm);
        m.mem.dropCaches();
    }

    /** Over-budget endgame (the negative control): record every
     *  value's address while reconstruction still works, lose the
     *  second device, then read each key cold and directly. Every
     *  unreconstructable value must come back *detected* — poison
     *  plus a detection count — never as plausible stale bytes. No
     *  rebuild afterwards: rebuilding from insufficient survivors
     *  would launder garbage into freshly checksummed lines. */
    void
    overBudgetProbes(Machine &m, const std::vector<std::uint64_t> &ver)
    {
        std::vector<Addr> addr(keys_);
        for (std::uint64_t k = 0; k < keys_; k++) {
            addr[k] = m.map->valueAddr(0, k);
            panic_if(addr[k] == 0, "campaign key %llu has no value",
                     static_cast<unsigned long long>(k));
        }
        failEvent(m, failDimms_[1]);
        for (std::uint64_t k = 0; k < keys_; k++) {
            // Cold caches per key: an earlier probe's poisoned fill
            // must not be served back as a plain cache hit, which
            // would read as wrong-without-detection for a neighbour
            // sharing the line.
            m.mem.dropCaches();
            tally(probeAddr(m, ver, k, addr[k]), false);
        }
    }

    void runFaulted();
    void runClean();

    const Design *design_;
    std::uint64_t seed_;
    std::size_t ops_;
    std::size_t keys_;
    std::vector<std::size_t> failDimms_;
    bool refail_;
    Schedule sched_{};
    bool survivable_ = false;
    std::vector<OpSpec> seq_;
    std::unique_ptr<RebuildEngine> rebuild_;

    // Outcomes.
    std::uint64_t readsCorrect_ = 0;
    std::uint64_t readsRecovered_ = 0;
    std::uint64_t detectedLoss_ = 0;
    std::uint64_t silentWrong_ = 0;
    std::uint64_t cleanWrong_ = 0;
    bool fail2MidRebuild_ = false;
    bool shadowVerified_ = false;
    std::uint64_t scrubBad_ = 0;
    std::uint64_t parityBad_ = 0;
    std::uint64_t cleanHash_ = 0;
    std::uint64_t faultedHash_ = 0;
    bool bitexact_ = false;
    Stats stats_{0, 0};  //!< final faulted-twin counters
    bool pass_ = false;
};

void
MultiCampaign::runFaulted()
{
    Machine m(*design_);
    setup(m);
    std::vector<std::uint64_t> ver(keys_, 0);
    std::size_t d1 = failDimms_[0];
    std::size_t second = refail_ ? d1 : failDimms_[1];
    for (std::size_t op = 0; op < ops_; op++) {
        if (op == sched_.fail1)
            failEvent(m, d1);
        if (op == sched_.replace1) {
            m.mem.replaceDimm(d1);
            rebuild_ = std::make_unique<RebuildEngine>(m.mem, &m.fs);
        }
        if (op == sched_.fail2) {
            // The second fault must genuinely interrupt the sweep.
            fail2MidRebuild_ = m.mem.nvmArray().dimmState(d1) ==
                NvmArray::DimmState::Rebuilding;
            if (!survivable_) {
                overBudgetProbes(m, ver);
                stats_ = m.mem.stats();
                return;
            }
            failEvent(m, second);
        }
        if (op == sched_.replace2)
            m.mem.replaceDimm(second);
        if (rebuild_ != nullptr) {
            // Step even when the sweep list drained: resync() adopts
            // DIMMs replaced after the last step (the re-replaced
            // device in --refail mode). Batched schemes must catch up
            // first or the rebuilder reads parity that does not yet
            // cover the epoch's acknowledged writebacks.
            m.drain();
            rebuild_->step(kRebuildLinesPerOp);
        }
        applyOp(m, ver, seq_[op], false);
    }
    while (m.mem.nvmArray().anyDegraded()) {
        m.drain();
        rebuild_->step(~std::size_t{0});
    }
    m.drain();
    m.mem.flushAll();
    scrubBad_ = m.fs.scrub(false);
    parityBad_ = m.fs.verifyParity();
    faultedHash_ = imageHash(m.mem.nvmArray());
    // The oracle's last word: every key, read cold from the rebuilt
    // at-rest media, returns exactly its acknowledged bytes.
    m.mem.dropCaches();
    shadowVerified_ = true;
    for (std::uint64_t k = 0; k < keys_; k++) {
        Probe p = probeMap(m, ver, k);
        tally(p, false);
        shadowVerified_ = shadowVerified_ &&
            (p == Probe::Correct || p == Probe::Recovered);
    }
    stats_ = m.mem.stats();
}

void
MultiCampaign::runClean()
{
    Machine m(*design_);
    setup(m);
    std::vector<std::uint64_t> ver(keys_, 0);
    for (std::size_t op = 0; op < ops_; op++)
        applyOp(m, ver, seq_[op], true);
    m.drain();
    m.mem.flushAll();
    cleanHash_ = imageHash(m.mem.nvmArray());
}

bool
MultiCampaign::run()
{
    runFaulted();
    if (survivable_) {
        runClean();
        bitexact_ = faultedHash_ == cleanHash_;
        pass_ = silentWrong_ == 0 && detectedLoss_ == 0 &&
            cleanWrong_ == 0 && shadowVerified_ && scrubBad_ == 0 &&
            parityBad_ == 0 && bitexact_ && fail2MidRebuild_ &&
            stats_.degradedReads > 0 && stats_.rebuildLines > 0 &&
            (refail_ ? stats_.rebuildRestarts > 0
                     : stats_.degradedReadsMulti > 0);
    } else {
        // Negative control: loss is expected — but *detected* loss.
        pass_ = silentWrong_ == 0 && detectedLoss_ > 0 &&
            fail2MidRebuild_ && stats_.degradedReads > 0;
    }
    return pass_;
}

void
MultiCampaign::report(Json &json) const
{
    json.open('{');
    json.field("tool", "tvarak-fault");
    json.field("mode", "multi");
    json.field("seed", seed_);
    json.field("design", design_->displayName());
    json.field("ops", static_cast<std::uint64_t>(ops_));
    json.field("keys", static_cast<std::uint64_t>(keys_));
    json.field("refail", refail_);
    json.openField("fail_dimms", '[');
    for (std::size_t d : failDimms_) {
        json.item();
        json.value(static_cast<std::uint64_t>(d));
    }
    json.close(']');
    json.openField("schedule", '{');
    json.field("fail1_op", static_cast<std::uint64_t>(sched_.fail1));
    json.field("replace1_op",
               static_cast<std::uint64_t>(sched_.replace1));
    json.field("fail2_op", static_cast<std::uint64_t>(sched_.fail2));
    json.field("replace2_op",
               static_cast<std::uint64_t>(sched_.replace2));
    json.close('}');
    json.field("survivable_failures", static_cast<std::uint64_t>(
                                          design_->survivableFailures()));
    json.field("survivable", survivable_);
    json.field("fail2_mid_rebuild", fail2MidRebuild_);
    json.openField("reads", '{');
    json.field("correct", readsCorrect_);
    json.field("detected_and_recovered", readsRecovered_);
    json.field("detected_loss", detectedLoss_);
    json.field("silent_wrong", silentWrong_);
    json.field("clean_twin_wrong", cleanWrong_);
    json.close('}');
    appendCounters(json, stats_);
    json.openField("final", '{');
    json.field("shadow_verified", shadowVerified_);
    json.field("sweep_bad", scrubBad_);
    json.field("parity_bad", parityBad_);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(cleanHash_));
    json.field("clean_image", std::string(hex));
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(faultedHash_));
    json.field("faulted_image", std::string(hex));
    json.field("image_compared", survivable_);
    json.field("image_bitexact", bitexact_);
    json.close('}');
    json.field("verdict", pass_ ? "PASS" : "FAIL");
    json.close('}');
}

/** Parse and validate --fail-dimms against the machine the design
 *  actually pins (exit 2 on any bad input — bad indices must never
 *  reach MemorySystem as an assertion). */
std::vector<std::size_t>
parseFailDimms(const std::string &spec, bool refail,
               std::size_t dimmCount, const char *designName)
{
    std::vector<std::size_t> out;
    std::string cur;
    std::string padded = spec + ",";
    for (char c : padded) {
        if (c != ',') {
            cur += c;
            continue;
        }
        if (cur.empty()) {
            std::fprintf(stderr,
                         "tvarak-fault: --fail-dimms wants a "
                         "comma-separated index list, got '%s'\n",
                         spec.c_str());
            std::exit(2);
        }
        std::uint64_t v = 0;
        if (!cli::parseU64(cur, v)) {
            std::fprintf(stderr,
                         "tvarak-fault: bad --fail-dimms index '%s'\n",
                         cur.c_str());
            std::exit(2);
        }
        out.push_back(static_cast<std::size_t>(v));
        cur.clear();
    }
    std::size_t want = refail ? 1 : 2;
    if (out.size() != want) {
        std::fprintf(stderr,
                     "tvarak-fault: --fail-dimms wants %zu %s, got "
                     "%zu (use --refail to re-fail the one "
                     "rebuilding DIMM)\n",
                     want, refail ? "index" : "distinct indices",
                     out.size());
        std::exit(2);
    }
    for (std::size_t d : out) {
        if (d >= dimmCount) {
            std::fprintf(stderr,
                         "tvarak-fault: --fail-dimms index %zu out of "
                         "range: design %s has %zu DIMMs\n",
                         d, designName, dimmCount);
            std::exit(2);
        }
    }
    if (!refail && out[0] == out[1]) {
        std::fprintf(stderr,
                     "tvarak-fault: --fail-dimms indices must be "
                     "distinct (got %zu,%zu); use --refail to re-fail "
                     "the rebuilding DIMM itself\n",
                     out[0], out[1]);
        std::exit(2);
    }
    return out;
}

int
cmdMulti(const std::vector<std::string> &raw)
{
    cli::Args a;
    if (!cli::parseArgs(raw,
                        {"--seed", "--design", "--ops", "--keys",
                         "--fail-dimms", "--out"},
                        {"--refail"}, a) ||
        !a.positional.empty() || a.flags.count("--seed") == 0) {
        return usage();
    }
    std::uint64_t seed = cli::parseNumber("tvarak-fault", "--seed",
                                          a.flags.at("--seed"), 0);
    const Design &design = a.flags.count("--design") != 0
        ? cli::parseDesign("tvarak-fault", a.flags.at("--design"))
        : designOf(DesignKind::Tvarak);
    if (!(design.absorbsWritesWhileDegraded() &&
          design.maintainsMappedParity())) {
        std::fprintf(
            stderr,
            "tvarak-fault: multi-DIMM schedules need a design that "
            "maintains mapped-data parity AND absorbs writes while "
            "degraded (the Tvarak family); the TxB schemes and Vilamb "
            "recompute over the stripe, which is unsafe mid-schedule\n");
        return 2;
    }
    std::size_t ops = numberFlag(a, "--ops", 240, 48);
    std::size_t keys = numberFlag(a, "--keys", 96);
    bool refail = a.flags.count("--refail") != 0;

    // The DIMM count the schedule runs against is whatever geometry
    // the design pins, not the campaign default.
    SimConfig cfg = campaignConfig();
    design.adjustConfig(cfg);
    std::vector<std::size_t> failDimms = parseFailDimms(
        a.flags.count("--fail-dimms") != 0 ? a.flags.at("--fail-dimms")
        : refail                           ? std::string("0")
                                           : std::string("0,1"),
        refail, cfg.nvm.dimms, design.displayName());

    inform("multi campaign: %s, seed %llu, %zu ops, %s dimm %zu%s",
           design.displayName(), static_cast<unsigned long long>(seed),
           ops, refail ? "re-fail of rebuilding" : "fail of",
           failDimms[0],
           refail ? ""
                  : (" then dimm " + std::to_string(failDimms[1]))
                        .c_str());
    MultiCampaign campaign(design, seed, ops, keys,
                           std::move(failDimms), refail);
    bool pass = campaign.run();
    Json json;
    campaign.report(json);
    std::string out =
        a.flags.count("--out") != 0 ? a.flags.at("--out") : "";
    return emit(json, out, pass);
}

}  // namespace
}  // namespace tvarak::faultcli

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return tvarak::faultcli::usage();
    std::string cmd = args[0];
    args.erase(args.begin());
    if (cmd == "map")
        return tvarak::faultcli::cmdMap(args);
    if (cmd == "multi")
        return tvarak::faultcli::cmdMulti(args);
    if (cmd == "replay")
        return tvarak::faultcli::cmdReplay(args);
    return tvarak::faultcli::usage();
}
