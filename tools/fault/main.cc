/**
 * @file
 * tvarak-fault: seeded randomized fault campaigns against the
 * simulated machine, checking the paper's end-to-end promise — every
 * acknowledged write is either served back correct or its loss is
 * *detected*; it is never silently wrong.
 *
 *   tvarak-fault map    --seed N [--design <d>] [--ops N] [--keys N]
 *                       [--events N] [--out report.json]
 *   tvarak-fault multi  --seed N [--design <d>] [--ops N] [--keys N]
 *                       [--fail-dimms i,j | --fail-dimms i --refail]
 *                       [--out report.json]
 *   tvarak-fault replay <file.trace> --seed N [--design <d>]
 *                       [--out report.json]
 *
 * `map` and `multi` are two schedules for one campaign engine. A
 * key-value workload (C-Tree over pmemlib) runs against a shadow
 * oracle; each operation fires that op's timed fault events, steps
 * the online rebuild, updates one key and probes one key. At the end
 * the engine finishes the rebuild, sweeps the design's at-rest
 * invariants and reads every key back cold.
 *
 * `map` draws a seeded schedule of firmware bugs (lost / misdirected
 * writes, misdirected reads), media bit flips and one whole-DIMM
 * loss. What each design is expected to catch — and how — differs:
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
 * `multi` loses up to two DIMMs, the second while the first is still
 * rebuilding, and judges the outcome against a never-failed twin:
 * the same engine run with an empty schedule. With two distinct
 * DIMMs (--fail-dimms i,j) two devices are dead at once, so only a
 * design whose coverage survives 2 failures (the RS n+2 geometries)
 * passes with zero data loss and a bit-exact rebuilt image; a
 * single-parity design is the pinned *negative control*, whose loss
 * must be detected (poison + detection counters), never silent. With
 * --refail the second fault hits the rebuilding DIMM itself: only one
 * device is ever dead, so even single parity survives, but the
 * rebuild must start over (rebuildRestarts), never serve the stale
 * partial sweep.
 *
 * `replay` re-runs a recorded access trace and drives the same DIMM
 * lifecycle from the runner's hooks: a whole-DIMM failure plus online
 * rebuild at seeded points mid-replay. The faulted run's final NVM
 * image must be bit-exact against a clean replay of the same trace.
 *
 * Reports are deterministic JSON: same binary + same arguments =>
 * byte-identical output (no timestamps, no floats, fixed field
 * order), so campaigns can be diffed and pinned in CI.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/trees/pmem_map.hh"
#include "fs/dax_fs.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/rebuild.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

namespace tvarak::faultcli {
namespace {

/** Print "tvarak-fault: <message>" and exit 2 (an I/O error). */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
die(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("tvarak-fault: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    std::exit(2);
}

/** Uniform in [0, n) as `next() % n`, 0 when @p n is 0. Every
 *  campaign schedule is drawn this way, so keep it: Rng::nextBounded
 *  would change every report. */
std::uint64_t
below(Rng &rng, std::uint64_t n)
{
    return n == 0 ? 0 : rng.next() % n;
}

/** A parsed subcommand: its own flags in @c a, plus the flags every
 *  mode takes. */
struct Command {
    const cli::Args &a;
    std::uint64_t seed;
    const Design &design;
    std::string out;
};

/** The flags every mode takes, read from @p a. */
Command
parseCommand(const cli::Args &a)
{
    if (!a.has("--seed"))
        a.fail("missing --seed");
    return {a, a.number("--seed", 0, 0),
            a.design(a.value("--design", "tvarak")),
            a.value("--out")};
}

/** multi and replay keep writing while DIMMs are down: exit 2 unless
 *  the controller keeps the design's parity (the Tvarak family). */
void
requireOnlineRebuild(const Command &c)
{
    if (!c.design.coverage().controllerKeepsParity()) {
        c.a.fail(c.a.command + " needs a design whose controller keeps "
                 "its parity, so it can rebuild a DIMM while writes "
                 "continue (the Tvarak family; TxB and Vilamb recompute "
                 "over the stripe)");
    }
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
    void value(const char *v) { value(std::string(v)); }

    void
    value(const std::string &v)
    {
        out_ += '"';
        out_ += jsonEscape(v);
        out_ += '"';
    }

    template <typename T>
    void
    field(const std::string &k, T v)
    {
        key(k);
        value(v);
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

/**
 * The one report shape: the opening fields, the mode's own fields
 * (@p body), `counters`, the `final` block (@p fin) and the verdict,
 * written to --out or stdout; exit 2 if it cannot be written.
 * @return 0 on PASS, 1 on FAIL.
 */
template <typename Body, typename Final>
int
report(const Command &c, const char *mode, const Stats &stats, bool pass,
       Body body, Final fin)
{
    Json json;
    json.open('{');
    json.field("tool", "tvarak-fault");
    json.field("mode", mode);
    json.field("seed", c.seed);
    json.field("design", c.design.displayName());
    body(json);
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
    json.openField("final", '{');
    fin(json);
    json.close('}');
    json.field("verdict", pass ? "PASS" : "FAIL");
    json.close('}');

    std::string text = json.str() + "\n";
    std::FILE *f = c.out.empty() ? stdout : std::fopen(c.out.c_str(), "w");
    bool ok = f != nullptr && std::fputs(text.c_str(), f) != EOF;
    if (f != nullptr)
        ok = (f == stdout ? std::fflush(f) : std::fclose(f)) == 0 && ok;
    if (!ok) {
        die("cannot write %s: %s", c.out.empty() ? "stdout" : c.out.c_str(),
            std::strerror(errno));
    }
    if (!c.out.empty())
        std::printf("%s: %s\n", pass ? "PASS" : "FAIL", c.out.c_str());
    return pass ? 0 : 1;
}

/** The clean and faulted image hashes of the `final` block. */
void
imageFields(Json &json, std::uint64_t clean, std::uint64_t faulted)
{
    for (auto [key, hash] : {std::pair{"clean_image", clean},
                             std::pair{"faulted_image", faulted}}) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(hash));
        json.field(key, hex);
    }
}

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

// ------------------------------------------------------------------
// The DIMM lifecycle, shared by the campaigns and replay's hooks.
// ------------------------------------------------------------------

/** The machine at rest after DimmLifecycle::finish(). */
struct AtRest {
    bool dimmLost = false;        //!< a DIMM failed at some point
    std::uint64_t bad = 0;        //!< checksum scrub / object sweep
    std::uint64_t parityBad = 0;
    std::uint64_t image = 0;      //!< imageHash() after the sweeps
};

/**
 * Whole-DIMM loss on one machine: fail -> replace -> online rebuild
 * steps -> finish. It works on any MemorySystem and DaxFs, so the
 * campaign engine and replay's RunHooks drive the same code.
 */
class DimmLifecycle
{
  public:
    /** @p scheme and @p pool may be null (no batched work; no object
     *  sweep). @p scrubBeforeFail runs a repairing scrub before each
     *  loss; it changes `counters.scrub_lines`, so it is per schedule.
     *  @p hashImage: finish() hashes the image (a full pass over the
     *  media) for a report that compares images. */
    DimmLifecycle(MemorySystem &mem, DaxFs &fs, RedundancyScheme *scheme,
                  PmemPool *pool, std::size_t linesPerStep,
                  bool scrubBeforeFail, bool hashImage)
        : mem_(mem), fs_(fs), scheme_(scheme), pool_(pool),
          linesPerStep_(linesPerStep), scrubBeforeFail_(scrubBeforeFail),
          hashImage_(hashImage)
    {}

    /** Close any batched redundancy work (Vilamb's open epoch) so the
     *  at-rest media is consistent; no-op for the sync schemes and
     *  the scheme-less designs. */
    void
    drain()
    {
        if (scheme_ != nullptr)
            scheme_->drain(0);
    }

    /** Quiesce, then lose @p dimm: acked writes must be at rest (or
     *  cache-hot) first, and cold caches force every later read of
     *  the dead DIMM through reconstruction. The optional scrub mops
     *  up latent corruption first (single-fault discipline: a device
     *  loss on top of an undetected line error exceeds RAID-5). */
    void
    fail(std::size_t dimm)
    {
        drain();
        mem_.flushAll();
        if (scrubBeforeFail_)
            fs_.scrub(true);
        mem_.failDimm(dimm);
        mem_.dropCaches();
        failed_ = dimm;
    }

    /** Swap in a fresh @p dimm. The first replacement starts the
     *  online rebuild; the engine's next step adopts later ones. */
    void
    replace(std::size_t dimm)
    {
        mem_.replaceDimm(dimm);
        if (rebuild_ == nullptr)
            rebuild_ = std::make_unique<RebuildEngine>(mem_, &fs_);
    }

    /** One op's (or pass's) share of the rebuild. The rebuilder
     *  reconstructs from parity, so batched schemes catch up first. */
    void
    step()
    {
        if (rebuild_ == nullptr || !mem_.nvmArray().anyDegraded())
            return;
        drain();
        rebuild_->step(linesPerStep_);
    }

    /** Replace a still-failed DIMM, rebuild to completion, drain and
     *  flush; then sweep the design's at-rest invariants and hash
     *  the image if asked to. */
    AtRest
    finish()
    {
        if (failed_ && mem_.nvmArray().dimmState(*failed_) ==
                           NvmArray::DimmState::Failed) {
            replace(*failed_);
        }
        if (rebuild_ != nullptr)
            rebuild_->runToCompletion();
        drain();
        mem_.flushAll();
        AtRest r;
        r.dimmLost = failed_.has_value();
        switch (mem_.coverage().detection()) {
          case FaultDetection::FillVerify:
          case FaultDetection::PageScrub:
            r.bad = fs_.scrub(false);
            r.parityBad = fs_.verifyParity();
            break;
          case FaultDetection::ObjectSweep:
            mem_.dropCaches();
            r.bad = pool_->verifyObjects();
            r.parityBad = fs_.verifyParity();
            break;
          case FaultDetection::None:
            // Nothing to sweep: mapped-data redundancy does not exist.
            break;
        }
        if (hashImage_)
            r.image = imageHash(mem_.nvmArray());
        return r;
    }

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    RedundancyScheme *scheme_;
    PmemPool *pool_;
    std::size_t linesPerStep_;
    bool scrubBeforeFail_;
    bool hashImage_;
    std::unique_ptr<RebuildEngine> rebuild_;
    std::optional<std::size_t> failed_;  //!< the last DIMM lost
};

// ------------------------------------------------------------------
// The campaign engine.
// ------------------------------------------------------------------
/** DimmReplace is queued by a DimmLoss, never scheduled directly;
 *  it stays last, which faultName()'s table checks. */
enum class FaultKind {
    LostWrite, MisdirectedWrite, MisdirectedRead, BitFlip, DimmLoss,
    DimmReplace
};

const char *
faultName(FaultKind k)
{
    static constexpr const char *kNames[] = {
        "lost-write", "misdirected-write", "misdirected-read",
        "bit-flip",   "dimm-loss",         "dimm-replace"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(FaultKind::DimmReplace) + 1);
    return kNames[static_cast<std::size_t>(k)];
}

/** DimmLoss target drawn from the campaign's Rng when it fires. */
constexpr std::size_t kDrawDimm = SIZE_MAX;

struct Event {
    std::size_t op;
    FaultKind kind;
    std::size_t dimm = kDrawDimm;   //!< DimmLoss / DimmReplace
    std::size_t replaceAfter = 0;   //!< DimmLoss: ops to replacement
};

bool earlier(const Event &a, const Event &b) { return a.op < b.op; }

/** A campaign plan: timed events (sorted by op) plus the constants
 *  that differ between schedules. */
struct Schedule {
    std::vector<Event> events;
    std::size_t rebuildLinesPerOp = 0;
    bool scrubBeforeFail = false;
    bool hashImage = true;
};

struct EventRecord {
    std::size_t op;
    FaultKind kind;
    std::string target;
    std::string result;    //!< detected / silent-expected / skipped...
    std::string detector;  //!< tvarak-fill / page-scrub / ...
    bool ok;               //!< matched this design's expectation
};

/** One oracle-checked read: right bytes (with or without a detection
 *  on the way), or wrong bytes that were detected, silent, or
 *  expected to be silent (Baseline's pinned non-detection). */
enum class Probe {
    Correct, Recovered, DetectedLoss, Silent, ExpectedSilent, Count
};

/** The read returned the acknowledged bytes. */
bool served(Probe p) { return p == Probe::Correct || p == Probe::Recovered; }

/** What a campaign run observed; its machine is gone by then. */
struct Outcome {
    std::array<std::uint64_t, static_cast<std::size_t>(Probe::Count)>
        reads{};
    std::uint64_t updatesPaused = 0;
    std::vector<EventRecord> events;
    std::size_t lineBugEvents = 0;
    bool failMidRebuild = false;  //!< the last DIMM loss hit a rebuild
    bool shadowVerified = false;
    AtRest atRest;                //!< zero when the run stopped early
    Stats stats{0, 0};

    std::uint64_t
    n(Probe p) const
    {
        return reads[static_cast<std::size_t>(p)];
    }
};

constexpr std::size_t kValueBytes = 48;
static_assert(kValueBytes % 8 == 0, "direct probes read 64-bit words");
/** The most keys the 4 MiB pool holds: one more exhausts its arena. */
constexpr std::size_t kMaxKeys = 26214;

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

/** One complete simulated campaign machine. */
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
};

/** The campaign engine: one Machine, its shadow oracle and its DIMM
 *  lifecycle, driven through a Schedule op by op. */
class Campaign
{
  public:
    Campaign(const Design &design, std::uint64_t seed, std::size_t keys,
             const Schedule &sched, Rng rng)
        : design_(design), seed_(seed), keys_(keys), rng_(rng), m_(design),
          life_(m_.mem, m_.fs, m_.scheme.get(), &m_.pool,
                sched.rebuildLinesPerOp, sched.scrubBeforeFail,
                sched.hashImage),
          events_(sched.events), version_(keys, 0)
    {}

    Outcome run(std::size_t ops);

  private:
    void
    valueFor(std::uint64_t key, std::uint64_t version,
             std::uint8_t *out) const
    {
        for (std::size_t i = 0; i < kValueBytes; i++) {
            out[i] = static_cast<std::uint8_t>(key * 131 + version * 17 +
                                               seed_ + i);
        }
    }

    void
    updateKey(std::uint64_t key)
    {
        std::uint8_t value[kValueBytes];
        valueFor(key, ++version_[key], value);
        panic_if(!m_.map->update(0, key, value), "campaign key vanished");
    }

    bool degraded() { return m_.mem.nvmArray().anyDegraded(); }
    Addr lineOfKey(std::uint64_t key);
    Probe check(std::uint64_t key, bool expectCorrect = true,
                Addr vaddr = 0);

    /** check() each of @p keys; true iff every read was served. */
    bool
    checkAll(const std::vector<std::uint64_t> &keys)
    {
        bool all = true;
        for (std::uint64_t k : keys)
            all = served(check(k)) && all;
        return all;
    }

    void fire(const Event &ev);
    void dimmLoss(const Event &ev);
    void overBudget(std::size_t dimm);
    void lineBugEvent(std::size_t op, FaultKind kind);
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

    void
    restoreLines(const std::vector<SavedLine> &saved)
    {
        for (const SavedLine &s : saved) {
            m_.mem.nvmArray().rawWrite(s.global, s.bytes, kLineBytes);
            m_.mem.refreshFromMedia(s.vline, kLineBytes);
        }
    }

    const Design &design_;
    std::uint64_t seed_;
    std::size_t keys_;
    Rng rng_;
    Machine m_;
    DimmLifecycle life_;
    std::vector<Event> events_;
    std::vector<std::uint64_t> version_;  //!< shadow oracle
    int poolFd_ = -1;
    bool stopped_ = false;  //!< over-budget endgame ran
    Outcome out_;
};

Addr
Campaign::lineOfKey(std::uint64_t key)
{
    Addr vaddr = m_.map->valueAddr(0, key);
    panic_if(vaddr == 0, "campaign key %llu has no value object",
             static_cast<unsigned long long>(key));
    Addr paddr;
    bool is_nvm;
    panic_if(!m_.mem.translate(vaddr, paddr, is_nvm) || !is_nvm,
             "campaign value not on NVM");
    return lineBase(paddr - kNvmPhysBase);
}

std::vector<Campaign::SavedLine>
Campaign::snapshotLines(const std::vector<std::uint64_t> &victims)
{
    // Called post-flushAll, pre-dropCaches: the coherent view still
    // holds the acknowledged bytes even though the media does not.
    std::vector<SavedLine> saved;
    for (std::uint64_t k : victims) {
        Addr vaddr = m_.map->valueAddr(0, k);
        panic_if(vaddr == 0, "campaign key %llu has no value object",
                 static_cast<unsigned long long>(k));
        Addr vline = lineBase(vaddr);
        if (std::any_of(saved.begin(), saved.end(),
                        [&](const SavedLine &s) { return s.vline == vline; }))
            continue;
        SavedLine s;
        s.vline = vline;
        s.global = lineOfKey(k);
        m_.mem.peek(vline, s.bytes, kLineBytes);
        saved.push_back(s);
    }
    return saved;
}

/** One oracle-checked read of @p key: through the map, or straight
 *  at the value's address @p vaddr once the tree itself may be
 *  unreconstructable. A detection during a correct read (TVARAK's
 *  fill verification) still serves the value — that is the point. */
Probe
Campaign::check(std::uint64_t key, bool expectCorrect, Addr vaddr)
{
    std::uint8_t expect[kValueBytes];
    std::uint8_t got[kValueBytes] = {};
    valueFor(key, version_[key], expect);
    std::uint64_t before = m_.mem.stats().corruptionsDetected;
    bool found = true;
    if (vaddr == 0) {
        found = m_.map->get(0, key, got);
    } else {
        for (std::size_t i = 0; i < kValueBytes; i += 8) {
            std::uint64_t w = m_.mem.read64(0, vaddr + i);
            std::memcpy(got + i, &w, 8);
        }
    }
    bool correct = found && std::memcmp(expect, got, kValueBytes) == 0;
    bool detected = m_.mem.stats().corruptionsDetected > before;
    Probe p = correct        ? (detected ? Probe::Recovered
                                         : Probe::Correct)
        : !expectCorrect     ? Probe::ExpectedSilent
        : detected           ? Probe::DetectedLoss
                             : Probe::Silent;
    out_.reads[static_cast<std::size_t>(p)]++;
    return p;
}

/** Application-level detect + repair used by the quiesce-time
 *  designs: sweep the at-rest invariants, then rewrite the attacked
 *  keys from the oracle (the "recover from a good copy" leg of the
 *  paper's fault model) and re-sweep to prove the system is whole. */
void
Campaign::appDetectRepair(EventRecord &ev,
                          const std::vector<std::uint64_t> &victims)
{
    // By the time we sweep, the epoch is closed: lineBugEvent drains
    // at the injection boundaries (draining *here* would be too late —
    // re-reading a page whose media the bug already corrupted would
    // launder the corruption into a fresh checksum).
    m_.mem.flushAll();
    switch (design_.coverage().detection()) {
      case FaultDetection::FillVerify: {
        // Fill-time verification: reading the victims detects and
        // transparently recovers; a repairing scrub then mops up the
        // at-rest copy (and any latent line nobody re-read).
        m_.mem.dropCaches();
        bool correct = checkAll(victims);
        bool detected = m_.mem.stats().corruptionsDetected > 0;
        m_.mem.flushAll();
        m_.fs.scrub(true);
        bool whole =
            m_.fs.scrub(false) == 0 && m_.fs.verifyParity() == 0;
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
            Addr vaddr = m_.map->valueAddr(0, k);
            pages.insert(static_cast<std::size_t>(
                (pageBase(vaddr) - m_.fs.vbase(poolFd_)) / kPageBytes));
        }
        std::size_t bad = 0;
        for (std::size_t p : pages)
            bad += m_.fs.scrubPage(poolFd_, p, false);
        for (std::size_t p : pages)
            m_.fs.scrubPage(poolFd_, p, true);
        std::size_t after = 0;
        for (std::size_t p : pages)
            after += m_.fs.scrubPage(poolFd_, p, false);
        m_.mem.dropCaches();
        bool correct = checkAll(victims);
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
        m_.mem.dropCaches();
        std::size_t objBad = m_.pool.verifyObjects();
        std::size_t parityBad = m_.fs.verifyParity();
        restoreLines(saved);
        bool whole = m_.pool.verifyObjects() == 0 &&
            m_.fs.verifyParity() == 0;
        bool correct = checkAll(victims);
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
        m_.mem.dropCaches();
        std::size_t wrong = 0;
        for (std::uint64_t k : victims)
            wrong += served(check(k, false)) ? 0 : 1;
        restoreLines(saved);
        bool correct = checkAll(victims);
        // Whether a given victim ends up wrong depends on eviction
        // timing (the victim's own dirty line, written back after the
        // redirected write lands, masks the damage), so per-event
        // wrongness is recorded but not asserted; the map verdict
        // pins the aggregate: zero detections ever, silence observed
        // at least once across the campaign.
        ev.result = wrong > 0 ? "silent-expected" : "masked-by-writeback";
        ev.detector = "none";
        ev.ok = correct;
        break;
      }
    }
}

void
Campaign::lineBugEvent(std::size_t op, FaultKind kind)
{
    out_.lineBugEvents++;

    // Close any open epoch before arming the bug: the fault must land
    // on *covered* data (a fault inside Vilamb's open window is the
    // documented vulnerability, pinned by the scheme's own tests, not
    // what this campaign judges). No bug is armed yet, so the drain's
    // page re-reads are safe.
    life_.drain();

    std::uint64_t vk = below(rng_, keys_);
    Addr g = lineOfKey(vk);
    auto &nvm = m_.mem.nvmArray();
    auto &dimm = nvm.dimm(nvm.dimmOf(g));
    Addr media = nvm.mediaAddrOf(g);
    EventRecord ev{op, kind, "key " + std::to_string(vk), "", "", false};

    switch (kind) {
      case FaultKind::LostWrite: {
        dimm.injectLostWrite(media);
        updateKey(vk);
        // Close the epoch while the event's writes are still cache-hot
        // (the coherent view, not the bug-corrupted media), so the
        // at-rest checksums and parity cover the acknowledged bytes.
        life_.drain();
        m_.mem.flushAll();  // the acked writeback is dropped at-rest
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
        updateKey(wk);
        life_.drain();  // cache-hot epoch close, as for lost writes
        m_.mem.flushAll();
        appDetectRepair(ev, {vk, wk});
        break;
      }
      case FaultKind::MisdirectedRead: {
        // Transient: the firmware returns the neighbouring line once.
        Addr other = lineInPage(g) + 1 < kLinesPerPage
            ? g + kLineBytes
            : g - kLineBytes;
        dimm.injectMisdirectedRead(media, nvm.mediaAddrOf(other));
        m_.mem.flushAll();
        m_.mem.dropCaches();
        Probe p = check(vk);
        bool detected =
            p == Probe::Recovered || p == Probe::DetectedLoss;
        ev.result = detected ? "detected" : "missed";
        ev.detector = detected ? "tvarak-fill" : "none";
        ev.ok = p == Probe::Recovered;
        break;
      }
      case FaultKind::BitFlip: {
        unsigned bit = static_cast<unsigned>(
            below(rng_, kLineBytes * CHAR_BIT));
        m_.mem.flushAll();
        if (design_.coverage().detection() == FaultDetection::None) {
            // The one fault class the baseline *does* catch: device
            // ECC. Recovery still needs a good copy — of the whole
            // line: the flip can land in a neighbouring object's
            // bytes, which rewriting the attacked key cannot heal.
            auto saved = snapshotLines({vk});
            dimm.injectBitFlip(media, bit);
            bool detected = !dimm.eccCheck(media);
            m_.mem.dropCaches();
            check(vk, false);  // flip may miss vk's own payload
            restoreLines(saved);
            bool correct = served(check(vk));
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
      case FaultKind::DimmReplace:
        panic("%s is not a line bug", faultName(kind));
    }
    for (std::size_t d = 0; d < nvm.numDimms(); d++)
        nvm.dimm(d).clearInjectedBugs();
    out_.events.push_back(std::move(ev));
}

/** Over-budget endgame (the negative control): record every value's
 *  address while reconstruction still works, lose @p dimm, then read
 *  each key cold and directly. Every unreconstructable value must
 *  come back *detected* — poison plus a detection count — never as
 *  plausible stale bytes. No rebuild afterwards: rebuilding from
 *  insufficient survivors would launder garbage into freshly
 *  checksummed lines. */
void
Campaign::overBudget(std::size_t dimm)
{
    std::vector<Addr> addr(keys_);
    for (std::uint64_t k = 0; k < keys_; k++) {
        addr[k] = m_.map->valueAddr(0, k);
        panic_if(addr[k] == 0, "campaign key %llu has no value",
                 static_cast<unsigned long long>(k));
    }
    life_.fail(dimm);
    for (std::uint64_t k = 0; k < keys_; k++) {
        // Cold caches per key: an earlier probe's poisoned fill
        // must not be served back as a plain cache hit, which
        // would read as wrong-without-detection for a neighbour
        // sharing the line.
        m_.mem.dropCaches();
        check(k, true, addr[k]);
    }
    stopped_ = true;
}

/** Lose a DIMM and queue its replacement, or end the campaign with
 *  the endgame when the loss exceeds the design's budget. */
void
Campaign::dimmLoss(const Event &ev)
{
    NvmArray &nvm = m_.mem.nvmArray();
    std::size_t dimm = ev.dimm == kDrawDimm
        ? static_cast<std::size_t>(below(rng_, nvm.numDimms()))
        : ev.dimm;
    out_.failMidRebuild = false;
    for (std::size_t d = 0; d < nvm.numDimms(); d++) {
        out_.failMidRebuild = out_.failMidRebuild ||
            nvm.dimmState(d) == NvmArray::DimmState::Rebuilding;
    }
    // Devices down after this loss: those already down, plus this one
    // unless it is one of them (a re-fail of a rebuilding DIMM).
    bool healthy = nvm.dimmState(dimm) == NvmArray::DimmState::Healthy;
    if (nvm.degradedCount() + (healthy ? 1 : 0) >
        design_.coverage().survivableFailures) {
        overBudget(dimm);
        return;
    }
    life_.fail(dimm);

    // The replacement fires after every event already due at its op.
    Event rep{ev.op + ev.replaceAfter, FaultKind::DimmReplace, dimm};
    events_.insert(
        std::upper_bound(events_.begin(), events_.end(), rep, earlier), rep);

    // Judged by the probes and the final sweeps, not here.
    out_.events.push_back({ev.op, FaultKind::DimmLoss,
                           "dimm " + std::to_string(dimm) +
                               ", replace at op " + std::to_string(rep.op),
                           "degraded", "degraded-read", true});
}

void
Campaign::fire(const Event &ev)
{
    if (ev.kind == FaultKind::DimmLoss) {
        dimmLoss(ev);
    } else if (ev.kind == FaultKind::DimmReplace) {
        life_.replace(ev.dimm);
    } else if (degraded()) {
        // Single-fault discipline: no firmware bugs while a whole
        // device is already out.
        out_.events.push_back(
            {ev.op, ev.kind, "-", "skipped-degraded", "none", true});
    } else {
        lineBugEvent(ev.op, ev.kind);
    }
}

Outcome
Campaign::run(std::size_t ops)
{
    poolFd_ = m_.fs.open("p");
    panic_if(poolFd_ < 0, "campaign pool file missing");
    std::uint8_t value[kValueBytes];
    for (std::uint64_t k = 0; k < keys_; k++) {
        valueFor(k, 0, value);
        m_.map->insert(0, k, value);
    }
    m_.mem.flushAll();

    std::size_t next = 0;
    for (std::size_t op = 0; op < ops; op++) {
        while (!stopped_ && next < events_.size() &&
               events_[next].op == op) {
            Event ev = events_[next++];  // fire() may queue events
            fire(ev);
        }
        if (stopped_)
            break;
        life_.step();

        // The TxB schemes (and Vilamb) maintain parity by
        // recomputation over the stripe, which is only safe against a
        // quiesced, consistent image — so their degraded window is
        // read-only. TVARAK's diff-based at-rest updates keep
        // absorbing writes throughout.
        if (!degraded() || design_.coverage().writesWhileDegraded()) {
            updateKey(below(rng_, keys_));
        } else {
            rng_.next();  // keep the draw stream aligned
            out_.updatesPaused++;
        }
        std::uint64_t key = below(rng_, keys_);
        if (!served(check(key))) {
            warn("wrong read of key %llu at op %zu",
                 static_cast<unsigned long long>(key), op);
        }
    }
    if (!stopped_) {
        out_.atRest = life_.finish();
        // The oracle's last word: every key, read cold from the
        // at-rest media, returns exactly its acknowledged bytes.
        m_.mem.dropCaches();
        out_.shadowVerified = true;
        for (std::uint64_t k = 0; k < keys_; k++)
            out_.shadowVerified = served(check(k)) && out_.shadowVerified;
    }
    out_.stats = m_.mem.stats();
    return std::move(out_);
}

// ------------------------------------------------------------------
// map: firmware bugs, bit flips and one DIMM loss at random ops.
// ------------------------------------------------------------------

/** Draw the map schedule from @p rng, which the campaign then keeps
 *  drawing from. */
Schedule
mapSchedule(Rng &rng, const Design &design, std::size_t ops,
            std::size_t events)
{
    // Which faults a design participates in, from its coverage.
    // Misdirected reads are transient (they never land at rest), so
    // only fill-time verification can see them; quiesce-time sweeps
    // cannot. DIMM loss needs maintained parity, which Baseline lacks
    // for DAX-mapped data.
    const Coverage &cov = design.coverage();
    std::vector<FaultKind> pool = {FaultKind::LostWrite,
                                   FaultKind::MisdirectedWrite};
    if (cov.checksOnRead())
        pool.push_back(FaultKind::MisdirectedRead);
    pool.push_back(FaultKind::BitFlip);
    if (cov.hasMappedParity())
        pool.push_back(FaultKind::DimmLoss);

    // Online rebuild budget per operation: fast enough that the
    // campaign regains full redundancy with room for more faults,
    // slow enough that many ops overlap the rebuilding window. The
    // map report compares no images.
    Schedule s{{}, 8192, true, false};
    bool haveDimmLoss = false;
    std::size_t lo = ops / 12 + 1;
    std::size_t hi = ops - ops / 3;  // leave room for the rebuild
    for (std::size_t i = 0; i < events; i++) {
        Event e{lo + static_cast<std::size_t>(below(rng, hi - lo)),
                pool[below(rng, pool.size())], kDrawDimm,
                std::max<std::size_t>(ops / 6, 8)};
        if (e.kind == FaultKind::DimmLoss) {
            // RAID-5: one simultaneous device fault.
            if (haveDimmLoss)
                e.kind = FaultKind::LostWrite;
            haveDimmLoss = true;
        }
        s.events.push_back(e);
    }
    std::stable_sort(s.events.begin(), s.events.end(), earlier);
    return s;
}

int
cmdMap(const Command &c)
{
    const Design &design = c.design;
    std::size_t ops = c.a.number("--ops", 240, 24);
    std::size_t keys = c.a.number("--keys", 96, 1, kMaxKeys);
    std::size_t events = c.a.number("--events", 5);

    inform("map campaign: %s, seed %llu, %zu ops, %zu events",
           design.displayName(), static_cast<unsigned long long>(c.seed),
           ops, events);
    Rng rng(c.seed);
    Schedule sched = mapSchedule(rng, design, ops, events);
    Outcome o = Campaign(design, c.seed, keys, sched, rng).run(ops);

    // Every wrong read that was expected correct counts as silent
    // here, detected or not.
    std::uint64_t wrong = o.n(Probe::Silent) + o.n(Probe::DetectedLoss);
    bool pass = wrong == 0 && o.shadowVerified && o.atRest.bad == 0 &&
        o.atRest.parityBad == 0 &&
        std::all_of(o.events.begin(), o.events.end(),
                    [](const EventRecord &e) { return e.ok; });
    if (o.atRest.dimmLost) {
        pass = pass && o.stats.degradedReads > 0 &&
            o.stats.rebuildLines > 0;
    }
    if (design.coverage().detection() == FaultDetection::None) {
        // The aggregate Baseline pin: across the whole campaign the
        // design never once claimed a detection, and at least one
        // injected fault was observed as a silent wrong read.
        pass = pass && o.stats.corruptionsDetected == 0 &&
            (o.lineBugEvents == 0 || o.n(Probe::ExpectedSilent) > 0);
    }
    return report(
        c, "map", o.stats, pass,
        [&](Json &json) {
            json.field("ops", static_cast<std::uint64_t>(ops));
            json.field("keys", static_cast<std::uint64_t>(keys));
            json.openField("events", '[');
            for (const EventRecord &ev : o.events) {
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
            json.field("correct", o.n(Probe::Correct));
            json.field("detected_and_recovered", o.n(Probe::Recovered));
            json.field("silent_wrong", wrong);
            json.field("silent_expected_baseline",
                       o.n(Probe::ExpectedSilent));
            json.field("updates_paused_degraded", o.updatesPaused);
            json.close('}');
        },
        [&](Json &json) {
            json.field("shadow_verified", o.shadowVerified);
            json.field("sweep_bad", o.atRest.bad);
            json.field("parity_bad", o.atRest.parityBad);
        });
}

// ------------------------------------------------------------------
// multi: a second DIMM loss mid-rebuild, against a never-failed twin.
// ------------------------------------------------------------------

/** Lose dimms[0], replace it, then lose dimms[1] (with --refail,
 *  dimms[0] again) while the first rebuild runs, and replace that
 *  too. The events hold the report's schedule. */
Schedule
multiSchedule(std::size_t ops, const std::vector<std::size_t> &dimms,
              bool refail)
{
    std::size_t fail1 = std::max<std::size_t>(ops / 6, 4);
    std::size_t replace1 = fail1 + std::max<std::size_t>(ops / 6, 8);
    std::size_t fail2 = replace1 + std::max<std::size_t>(ops / 48, 2);
    std::size_t replace2 = fail2 + std::max<std::size_t>(ops / 48, 2);
    panic_if(replace2 >= ops, "multi schedule does not fit in %zu ops",
             ops);
    // Rebuild deliberately slower than map's: the campaign's hot
    // pages sit at the start of the data region, just past each
    // DIMM's metadata share, and the second fault must land while
    // they are still above the first sweep's watermark — otherwise
    // the double-degraded window never sees a demand read of a
    // degraded line and proves nothing.
    return {{{fail1, FaultKind::DimmLoss, dimms[0], replace1 - fail1},
             {fail2, FaultKind::DimmLoss, refail ? dimms[0] : dimms[1],
              replace2 - fail2}},
            2048};
}

/** --fail-dimms, validated against the machine the design actually
 *  pins (exit 2 on any bad input — bad indices must never reach
 *  MemorySystem as an assertion). */
std::vector<std::size_t>
failDimmsFlag(const cli::Args &a, bool refail, std::size_t dimmCount,
          const char *designName)
{
    std::vector<std::size_t> out = a.has("--fail-dimms")
        ? a.list("--fail-dimms")
        : refail ? std::vector<std::size_t>{0}
                 : std::vector<std::size_t>{0, 1};
    std::size_t want = refail ? 1 : 2;
    if (out.size() != want) {
        a.fail("--fail-dimms wants " + std::to_string(want) +
               (refail ? " index" : " distinct indices") + ", got " +
               std::to_string(out.size()) +
               " (use --refail to re-fail the one rebuilding DIMM)");
    }
    for (std::size_t d : out) {
        if (d >= dimmCount) {
            a.fail("--fail-dimms index " + std::to_string(d) +
                   " out of range: design " + designName + " has " +
                   std::to_string(dimmCount) + " DIMMs");
        }
    }
    if (!refail && out[0] == out[1]) {
        a.fail("--fail-dimms indices must be distinct (got " +
               std::to_string(out[0]) + "," + std::to_string(out[1]) +
               "); use --refail to re-fail the rebuilding DIMM itself");
    }
    return out;
}

int
cmdMulti(const Command &c)
{
    const Design &design = c.design;
    requireOnlineRebuild(c);
    std::size_t ops = c.a.number("--ops", 240, 48);
    std::size_t keys = c.a.number("--keys", 96, 1, kMaxKeys);
    bool refail = c.a.has("--refail");

    // The DIMM count the schedule runs against is whatever geometry
    // the design pins, not the campaign default.
    SimConfig cfg = campaignConfig();
    design.adjustConfig(cfg);
    std::vector<std::size_t> failDimms =
        failDimmsFlag(c.a, refail, cfg.nvm.dimms, design.displayName());

    inform("multi campaign: %s, seed %llu, %zu ops, fail dimm %zu, "
           "then dimm %zu%s", design.displayName(),
           static_cast<unsigned long long>(c.seed), ops, failDimms[0],
           failDimms[refail ? 0 : 1], refail ? " again" : "");
    Schedule sched = multiSchedule(ops, failDimms, refail);
    std::size_t budget = design.coverage().survivableFailures;
    bool survivable = (refail ? 1u : 2u) <= budget;
    Outcome o = Campaign(design, c.seed, keys, sched, Rng(c.seed)).run(ops);
    // Past the budget the campaign stops at the second loss, so there
    // is no rebuilt image to compare.
    Outcome twin;
    if (survivable)
        twin = Campaign(design, c.seed, keys, {}, Rng(c.seed)).run(ops);
    std::uint64_t twinWrong = twin.n(Probe::Recovered) +
        twin.n(Probe::DetectedLoss) + twin.n(Probe::Silent);
    bool bitexact = survivable && o.atRest.image == twin.atRest.image;

    bool pass = o.n(Probe::Silent) == 0 && o.failMidRebuild &&
        o.stats.degradedReads > 0;
    if (survivable) {
        pass = pass && o.n(Probe::DetectedLoss) == 0 && twinWrong == 0 &&
            o.shadowVerified && o.atRest.bad == 0 &&
            o.atRest.parityBad == 0 && bitexact &&
            o.stats.rebuildLines > 0 &&
            (refail ? o.stats.rebuildRestarts > 0
                    : o.stats.degradedReadsMulti > 0);
    } else {
        // Negative control: loss is expected — but *detected* loss.
        pass = pass && o.n(Probe::DetectedLoss) > 0;
    }
    return report(
        c, "multi", o.stats, pass,
        [&](Json &json) {
            json.field("ops", static_cast<std::uint64_t>(ops));
            json.field("keys", static_cast<std::uint64_t>(keys));
            json.field("refail", refail);
            json.openField("fail_dimms", '[');
            for (std::size_t d : failDimms) {
                json.item();
                json.value(static_cast<std::uint64_t>(d));
            }
            json.close(']');
            const Event &f1 = sched.events[0];
            const Event &f2 = sched.events[1];
            json.openField("schedule", '{');
            json.field("fail1_op", static_cast<std::uint64_t>(f1.op));
            json.field("replace1_op", static_cast<std::uint64_t>(
                                          f1.op + f1.replaceAfter));
            json.field("fail2_op", static_cast<std::uint64_t>(f2.op));
            json.field("replace2_op", static_cast<std::uint64_t>(
                                          f2.op + f2.replaceAfter));
            json.close('}');
            json.field("survivable_failures",
                       static_cast<std::uint64_t>(budget));
            json.field("survivable", survivable);
            json.field("fail2_mid_rebuild", o.failMidRebuild);
            json.openField("reads", '{');
            json.field("correct", o.n(Probe::Correct));
            json.field("detected_and_recovered", o.n(Probe::Recovered));
            json.field("detected_loss", o.n(Probe::DetectedLoss));
            json.field("silent_wrong", o.n(Probe::Silent));
            json.field("clean_twin_wrong", twinWrong);
            json.close('}');
        },
        [&](Json &json) {
            json.field("shadow_verified", o.shadowVerified);
            json.field("sweep_bad", o.atRest.bad);
            json.field("parity_bad", o.atRest.parityBad);
            imageFields(json, twin.atRest.image, o.atRest.image);
            json.field("image_compared", survivable);
            json.field("image_bitexact", bitexact);
        });
}

// ------------------------------------------------------------------
// replay: a recorded trace under injected DIMM loss.
// ------------------------------------------------------------------

struct ReplayRun {
    std::size_t passes = 0;
    AtRest atRest;
    Stats stats{0, 0};
};

/** Replay @p trace once; lose @p dimm after pass @p failPass and
 *  replace it after pass @p replacePass (0 = never), rebuilding
 *  online while the replay keeps running. */
ReplayRun
replayOnce(const std::shared_ptr<const trace::TraceData> &trace,
           const Design &design, std::size_t failPass,
           std::size_t replacePass, std::size_t dimm)
{
    ReplayRun r;
    std::unique_ptr<DimmLifecycle> life;
    RunHooks hooks;
    hooks.onMachine = [&](MemorySystem &m, DaxFs &fs) {
        life = std::make_unique<DimmLifecycle>(m, fs, nullptr, nullptr,
                                               2048, true, true);
    };
    hooks.onStep = [&](MemorySystem &, std::size_t p) {
        r.passes = p;
        if (p == failPass)
            life->fail(dimm);
        if (p == replacePass)
            life->replace(dimm);
        life->step();
    };
    hooks.beforeFlush = [&](MemorySystem &) { r.atRest = life->finish(); };
    r.stats = runExperiment(trace->cfg, design,
                            trace::makeReplayFactory(trace), hooks)
                  .stats;
    return r;
}

int
cmdReplay(const Command &c)
{
    requireOnlineRebuild(c);
    auto trace = trace::TraceData::load(c.a.positional[0]);
    if (trace == nullptr)
        die("cannot load trace %s", c.a.positional[0].c_str());

    // Clean replay: reference image and pass count.
    inform("clean replay of %s (%llu events) ...",
           trace->workloadName.c_str(),
           static_cast<unsigned long long>(trace->eventCount));
    ReplayRun clean = replayOnce(trace, c.design, 0, 0, 0);

    // Faulted replay: lose a random DIMM at a seeded pass, replace it
    // later, rebuild online while the replay keeps running.
    Rng rng(c.seed);
    std::size_t passes = clean.passes;
    std::size_t failPass =
        1 + static_cast<std::size_t>(
                below(rng, std::max<std::size_t>(passes / 2, 1)));
    std::size_t replacePass = failPass + std::max<std::size_t>(passes / 6, 1);
    std::size_t dimm = static_cast<std::size_t>(
        below(rng, trace->cfg.nvm.dimms));
    inform("faulted replay: fail dimm %zu at pass %zu/%zu, replace at "
           "pass %zu ...", dimm, failPass, passes, replacePass);
    ReplayRun faulted =
        replayOnce(trace, c.design, failPass, replacePass, dimm);

    bool bitexact = faulted.atRest.image == clean.atRest.image;
    bool exercised = faulted.atRest.dimmLost &&
        faulted.stats.degradedReads > 0 && faulted.stats.rebuildLines > 0;
    bool pass = bitexact && exercised && faulted.atRest.bad == 0 &&
        faulted.atRest.parityBad == 0;
    return report(
        c, "replay", faulted.stats, pass,
        [&](Json &json) {
            json.field("workload", trace->workloadName);
            json.field("trace_events", trace->eventCount);
            json.field("passes", static_cast<std::uint64_t>(passes));
            json.field("fail_pass", static_cast<std::uint64_t>(failPass));
            json.field("replace_pass",
                       static_cast<std::uint64_t>(replacePass));
            json.field("failed_dimm", static_cast<std::uint64_t>(dimm));
        },
        [&](Json &json) {
            imageFields(json, clean.atRest.image, faulted.atRest.image);
            json.field("image_bitexact", bitexact);
            json.field("scrub_bad", faulted.atRest.bad);
            json.field("parity_bad", faulted.atRest.parityBad);
        });
}

/** The grammar of tvarak-fault: map, multi and replay, each with
 *  --seed, --design and --out. */
cli::Tool
faultTool()
{
    auto rows = [](std::vector<cli::Flag> own) {
        own.insert(
            own.begin(),
            {{"--seed", "N", "campaign seed (required)"},
             {"--design", "NAME",
              "design under test (default tvarak; registered: " +
                  registeredNameList() + ")"},
             {"--out", "FILE", "write the report to FILE (default: stdout)"}});
        return own;
    };
    cli::Flag keys{"--keys", "N", "campaign keys (default 96, at most " +
                       std::to_string(kMaxKeys) + ")"};
    return {"tvarak-fault", "",
            {{"map", "", 0,
              rows({{"--ops", "N", "operations (default 240, at least 24)"},
                    keys,
                    {"--events", "N", "fault events (default 5)"}})},
             {"multi", "", 0,
              rows({{"--ops", "N", "operations (default 240, at least 48)"},
                    keys,
                    {"--fail-dimms", "LIST",
                     "the two distinct DIMMs to lose (default 0,1), or the "
                     "one DIMM to lose twice with --refail (default 0)"},
                    {"--refail", nullptr,
                     "the second loss hits the rebuilding DIMM itself"}})},
             {"replay", "<file.trace>", 1, rows({})}}};
}

}  // namespace
}  // namespace tvarak::faultcli

int
main(int argc, char **argv)
{
    using namespace tvarak::faultcli;
    tvarak::cli::Args a(faultTool(), argc, argv);
    Command c = parseCommand(a);
    if (a.command == "map")
        return cmdMap(c);
    if (a.command == "multi")
        return cmdMulti(c);
    return cmdReplay(c);
}
