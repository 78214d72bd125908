/**
 * @file
 * Benchmark program for the simulator, built on its public API only.
 *
 * One invocation runs one workload. Its design sweep (one design run
 * per redundancy design) repeats until a host-time budget is spent;
 * every phase of every design run is timed from here, around the
 * calls into each layer, so nothing under src/ is instrumented. Every
 * design run is checked, and the last line on stdout is one JSON
 * object with the checks and the metrics (run.py selects the set the
 * benchmark definition names).
 *
 * usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--spans FILE] [--inject-corruption]
 *
 * Host times are calibrated against a machine-speed probe run between
 * design runs (see SpeedProbe). The measured phase and set-up are each
 * reported as the lower quartile over repetitions of each design run,
 * summed over the sweep. Simulated results are deterministic
 * and must repeat exactly; a repetition whose Stats digest differs from
 * the first one fails.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "apps/redis/redis.hh"
#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "fs/dax_fs.hh"
#include "harness/runner.hh"
#include "kernels/kernels.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "redundancy/rebuild.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

using namespace tvarak;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One timed call into a layer. */
struct Span {
    const char *name;  //!< "<layer>.<call>"
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;  //!< index of the enclosing span, -1 for a root
    int run;     //!< design-run id
};

/** In-memory span recorder; records nothing while disabled. */
class Tracer
{
  public:
    bool enabled = false;
    int run = 0;
    std::vector<Span> spans;

    int
    begin(const char *name)
    {
        if (!enabled)
            return -1;
        int id = static_cast<int>(spans.size());
        spans.push_back({name, nowNs(), 0,
                         open_.empty() ? -1 : open_.back(), run});
        open_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans[id].endNs = nowNs();
        open_.pop_back();
    }

  private:
    std::vector<int> open_;
};

/** Run @p fn as a span named @p name; add its host seconds to @p acc. */
template <typename Fn>
void
timed(Tracer &tr, const char *name, double &acc, Fn &&fn)
{
    int id = tr.begin(name);
    auto t0 = Clock::now();
    fn();
    acc += secondsSince(t0);
    tr.end(id);
}

// ---------------------------------------------------------------------
// Design runs
// ---------------------------------------------------------------------

/** Host seconds per phase of one design run. */
struct Phases {
    double machine = 0;        //!< MemorySystem + DaxFs construction
    double factory = 0;        //!< WorkloadFactory
    double setup = 0;          //!< every Workload::setup
    double beforeMeasure = 0;  //!< WorkloadSet::beforeMeasure
    double step = 0;           //!< the step loop, hooks included
    double rebuild = 0;        //!< RebuildEngine calls, within step
                               //!< and beforeFlush
    double beforeFlush = 0;    //!< RunHooks::beforeFlush
    double flush = 0;          //!< the final flushAll

    /** What setup_s counts. */
    double setupTotal() const
    {
        return machine + factory + setup + beforeMeasure;
    }
    /** What host_s counts: stats reset to the end of flushAll. */
    double measured() const { return step + beforeFlush + flush; }

    /** Every phase times @p k. */
    Phases
    scaled(double k) const
    {
        return {machine * k, factory * k,     setup * k,
                beforeMeasure * k, step * k, rebuild * k,
                beforeFlush * k,   flush * k};
    }
};

struct RunRecord {
    Phases t;
    Stats stats{1, 1};
    std::size_t passes = 0;
    std::size_t stepCalls = 0;
    std::vector<double> stepMs;  //!< per step() call, traced runs only
    std::vector<std::string> failures;
    long rssGrowthKib = 0;  //!< peak resident KiB the run added
    /** False if a check held benchmark-owned memory during the run. */
    bool rssCounts = true;
};

/** One design run of a workload's sweep. */
struct DesignCase {
    std::string label;
    const Design *design;
    /** Fresh hooks per run; they may keep per-run state. */
    std::function<RunHooks(RunRecord &, Tracer &)> hooks;
    /** Untimed check on the live machine, after the hooks' beforeFlush
     *  and before the final flushAll (peek sees current values, which
     *  flushAll does not change). */
    std::function<void(MemorySystem &, DaxFs &, RunRecord &)> check;
    /** Untimed check of the finished run's Stats. */
    std::function<void(RunRecord &)> checkStats;
};

/** Forwards to a workload, timing setup() and, traced, every step(). */
class TimedWorkload : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> w, RunRecord &rec, Tracer &tr)
        : w_(std::move(w)), rec_(rec), tr_(tr)
    {
    }

    void
    setup() override
    {
        timed(tr_, "apps.setup", rec_.t.setup, [&] { w_->setup(); });
    }

    bool
    step() override
    {
        rec_.stepCalls++;
        if (!tr_.enabled)
            return w_->step();
        int id = tr_.begin("apps.step");
        auto t0 = Clock::now();
        bool more = w_->step();
        rec_.stepMs.push_back(secondsSince(t0) * 1e3);
        tr_.end(id);
        return more;
    }

    int tid() const override { return w_->tid(); }
    std::string name() const override { return w_->name(); }

  private:
    std::unique_ptr<Workload> w_;
    RunRecord &rec_;
    Tracer &tr_;
};

/** Keeps a workload set's shared state alive; calls atEnd when
 *  runExperiment destroys the set, right after flushAll. */
struct EndMarker {
    std::shared_ptr<void> inner;
    std::function<void()> atEnd;
    ~EndMarker() { atEnd(); }
};

/** Resident-set field @p name (VmRSS, VmHWM) of this process, KiB. */
long
statusKib(const std::string &name)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, name.size() + 1, name + ":") == 0)
            return std::strtol(line.c_str() + name.size() + 1, nullptr, 10);
    }
    return -1;
}

/** Reset VmHWM to the current RSS; false if the kernel refused. */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5" << std::flush;
    return static_cast<bool>(out);
}

/**
 * One design run through the harness's runExperiment, timed per phase
 * from its hooks and from wrappers around the factory, the workloads
 * and beforeMeasure: machine from the call to onMachine, the step loop
 * from beforeReset to beforeFlush (onStep hooks included), and the
 * flush from the end of beforeFlush to the destruction of the workload
 * set. The run's peak RSS growth over its start is recorded too.
 */
RunRecord
runDesign(const SimConfig &cfg, const DesignCase &c,
          const WorkloadFactory &make, Tracer &tr)
{
    RunRecord rec;
    RunHooks inner = c.hooks ? c.hooks(rec, tr) : RunHooks{};
    Clock::time_point mark;  // start of the phase being timed
    int phase = -1;          // its span
    DaxFs *fs = nullptr;

    WorkloadFactory timedMake = [&](MemorySystem &mem, DaxFs &f) {
        WorkloadSet set;
        timed(tr, "apps.factory", rec.t.factory,
              [&] { set = make(mem, f); });
        for (auto &w : set.workloads)
            w = std::make_unique<TimedWorkload>(std::move(w), rec, tr);
        if (set.beforeMeasure) {
            set.beforeMeasure = [&rec, &tr, fn = std::move(set.beforeMeasure)](
                                    MemorySystem &m) {
                timed(tr, "mem.before_measure", rec.t.beforeMeasure,
                      [&] { fn(m); });
            };
        }
        set.shared = std::make_shared<EndMarker>(std::move(set.shared), [&] {
            rec.t.flush = secondsSince(mark);
            tr.end(phase);
        });
        return set;
    };

    RunHooks h;
    h.onMachine = [&](MemorySystem &mem, DaxFs &f) {
        rec.t.machine = secondsSince(mark);
        tr.end(phase);
        fs = &f;
        if (inner.onMachine)
            inner.onMachine(mem, f);
    };
    h.beforeReset = [&](MemorySystem &mem) {
        if (inner.beforeReset)
            inner.beforeReset(mem);
        mark = Clock::now();
    };
    h.onStep = [&](MemorySystem &mem, std::size_t pass) {
        rec.passes = pass;
        if (inner.onStep) {
            int id = tr.begin("harness.on_step");
            inner.onStep(mem, pass);
            tr.end(id);
        }
    };
    h.beforeFlush = [&](MemorySystem &mem) {
        rec.t.step = secondsSince(mark);
        if (inner.beforeFlush) {
            timed(tr, "harness.before_flush", rec.t.beforeFlush,
                  [&] { inner.beforeFlush(mem); });
        }
        if (c.check)
            c.check(mem, *fs, rec);
        phase = tr.begin("mem.flush");
        mark = Clock::now();
    };

    malloc_trim(0);  // so freed memory of earlier runs is not reused
    // Without the reset, VmHWM keeps the process's peak so far; the
    // benchmark's own memory is held across runs and sits in rss0 too.
    static bool warned = false;
    if (!resetPeakRss() && !warned) {
        std::fprintf(stderr, "perfbench: cannot reset the peak RSS; "
                             "peak_rss_mib includes earlier runs\n");
        warned = true;
    }
    long rss0 = statusKib("VmRSS");

    int root = tr.begin("harness.run");
    phase = tr.begin("harness.machine");
    mark = Clock::now();
    RunResult r = runExperiment(cfg, *c.design, timedMake, h);
    tr.end(root);

    rec.rssGrowthKib = statusKib("VmHWM") - rss0;
    rec.stats = r.stats;
    if (c.checkStats)
        c.checkStats(rec);
    return rec;
}

// ---------------------------------------------------------------------
// Machine-speed probe
// ---------------------------------------------------------------------

/** Probe costs on the reference host when nothing else contends. */
constexpr double kReferenceLoadNs = 160.0;
constexpr double kReferenceOpNs = 7.0;

/** One probe reading: ns per dependent load and per ALU round. */
struct ProbeReading {
    double loadNs = 0;
    double opNs = 0;

    /** How much slower than the reference host this reading is. */
    double
    slowdown() const
    {
        return loadNs / kReferenceLoadNs * (opNs / kReferenceOpNs);
    }
};

/**
 * Host time on a shared machine swings by up to 1.7x over minutes as
 * other tenants contend for the cores, caches and memory, and a slow
 * period can outlast a whole run, so no statistic within one run
 * removes it. The probe measures that contention directly, with two
 * loops that run no simulator code: a dependent random walk over
 * 64 MiB, memory-latency bound like the simulator's hot paths (LLC tag
 * arrays, NVM media and current-value buffers), and a register-only
 * loop of multiplies, shifts and a data-dependent branch, bound by the
 * core's speed (frequency, a busy hyperthread sibling) like the
 * simulator's control flow. Each design run's host times are divided
 * by the product of the two slowdowns against the reference host, so
 * they read as seconds on that host when it is quiet. A burst that
 * slows the probe but not the run would make the run look fast, and
 * the fast repetitions are what host_s reports; so each loop takes
 * the fastest of three passes, and a run takes the faster of the
 * readings just before and just after it. The probe tracks only part
 * of the contention (see NOTES.md). A slower simulator shows in full.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : next_(kEntries)
    {
        // Sattolo's shuffle: a uniformly random single cycle.
        std::iota(next_.begin(), next_.end(), 0u);
        Rng rng(0x70726f6265);
        for (std::size_t i = kEntries - 1; i > 0; i--)
            std::swap(next_[i], next_[rng.nextBounded(i)]);
    }

    ProbeReading
    read()
    {
        return {fastest(kLoads,
                        [&] {
                            std::uint32_t x = cursor_;
                            for (std::size_t i = 0; i < kLoads; i++)
                                x = next_[x];
                            cursor_ = x;
                        }),
                fastest(kRounds, [&] {
                    std::uint64_t a = a_, b = b_, c = c_, d = d_;
                    for (std::size_t i = 0; i < kRounds; i++) {
                        a = a * 0x9e3779b97f4a7c15ull + (b >> 3);
                        b = (b ^ (c << 7)) + 0x1234567;
                        c = c * 0xff51afd7ed558ccdull ^ (d >> 11);
                        d = (d + a) ^ (d << 5);
                        if ((a ^ d) & 0x10000)
                            b += c;
                        else
                            c += b;
                    }
                    a_ = a, b_ = b, c_ = c, d_ = d;
                })};
    }

  private:
    static constexpr std::size_t kEntries = 16u << 20;  // 64 MiB
    static constexpr std::size_t kLoads = 150000;
    static constexpr std::size_t kRounds = 1000000;

    /** Host ns per iteration of @p fn's @p n: the fastest of three. */
    template <typename Fn>
    static double
    fastest(std::size_t n, Fn &&fn)
    {
        double best = 0;
        for (int pass = 0; pass < 3; pass++) {
            auto t0 = Clock::now();
            fn();
            double ns = secondsSince(t0) * 1e9 / static_cast<double>(n);
            best = pass == 0 ? ns : std::min(best, ns);
        }
        return best;
    }

    std::vector<std::uint32_t> next_;  //!< one cycle through every entry
    std::uint32_t cursor_ = 0;
    std::uint64_t a_ = 1, b_ = 2, c_ = 3, d_ = 4;  //!< ALU loop state
};

// ---------------------------------------------------------------------
// Checks shared by the workloads
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hex FNV-1a digest of Stats::dump(). */
std::string
statsDigest(const Stats &s)
{
    std::ostringstream os;
    s.dump(os);
    std::string text = os.str();
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(text.data(), text.size())));
    return buf;
}

/** The DAX data image: every live file's bytes, read with peek. */
using Image = std::vector<std::vector<std::uint8_t>>;

Image
daxImage(MemorySystem &mem, DaxFs &fs)
{
    Image img;
    for (std::size_t fd = 0; fd < fs.fileSlots(); fd++) {
        int f = static_cast<int>(fd);
        if (!fs.fdLive(f))
            continue;
        std::vector<std::uint8_t> bytes(fs.fileBytes(f));
        mem.peek(fs.vbase(f), bytes.data(), bytes.size());
        img.push_back(std::move(bytes));
    }
    return img;
}

/** Empty if @p mem's DAX image equals @p ref byte for byte. Reads in
 *  small chunks, so the check adds little to the run's peak RSS. */
std::string
imageDiff(MemorySystem &mem, DaxFs &fs, const Image &ref)
{
    std::uint8_t chunk[64 << 10];
    std::size_t k = 0;
    for (std::size_t fd = 0; fd < fs.fileSlots(); fd++) {
        int f = static_cast<int>(fd);
        if (!fs.fdLive(f))
            continue;
        if (k >= ref.size() || ref[k].size() != fs.fileBytes(f))
            return "file set differs from the twin at fd " +
                std::to_string(fd);
        for (std::size_t off = 0; off < ref[k].size(); off += sizeof chunk) {
            std::size_t n = std::min(sizeof chunk, ref[k].size() - off);
            mem.peek(fs.vbase(f) + off, chunk, n);
            const std::uint8_t *want = ref[k].data() + off;
            if (std::memcmp(chunk, want, n) != 0) {
                std::size_t i = 0;
                while (chunk[i] == want[i])
                    i++;
                return "DAX image differs from the twin at fd " +
                    std::to_string(fd) + " offset " +
                    std::to_string(off + i);
            }
        }
        k++;
    }
    if (k != ref.size())
        return "twin has more files";
    return "";
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Paper reference for one design's normalized runtime (Fig 8). */
struct PaperRef {
    std::string label;  //!< design run compared
    double normRuntime;
};

struct Scenario {
    std::string name;
    SimConfig cfg;
    WorkloadFactory make;
    std::vector<DesignCase> designs;
    /** Design run whose ratios to Baseline are tvarak_norm_*. */
    std::string tvarakLabel = "tvarak";
    std::vector<PaperRef> paper;
    /** Optional line describing seed-derived inputs. */
    std::function<std::string()> describe;
};

/** Table III caches and cores; 4 x 32 MB NVM DIMMs hold every
 *  workload below, and keep machine construction and the full-DIMM
 *  rebuild short. */
SimConfig
evalConfig()
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = 32ull << 20;
    cfg.dram.sizeBytes = 128ull << 20;
    return cfg;
}

/** Factory for @p threads instances of @p W sharing one scheme. */
template <typename W, typename P>
WorkloadFactory
instances(int threads, P params, bool coldStart)
{
    return [=](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        for (int t = 0; t < threads; t++) {
            set.workloads.push_back(
                std::make_unique<W>(mem, fs, t, scheme.get(), params));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        if (coldStart)
            set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

/** Redis set-only, 6 instances (every request a pmem transaction). */
Scenario
redisScenario()
{
    Scenario s;
    s.name = "redis-txb";
    s.cfg = evalConfig();
    RedisWorkload::Params p;
    p.mode = RedisWorkload::Mode::SetOnly;
    p.requests = 2048;
    p.keyspace = 2048;
    p.poolBytes = 4ull << 20;
    s.make = instances<RedisWorkload>(6, p, false);
    s.designs = {
        {"baseline", &designOf(DesignKind::Baseline), {}, {}, {}},
        {"tvarak", &designOf(DesignKind::Tvarak), {}, {}, {}},
        {"txb-object", &designOf(DesignKind::TxBObjectCsums), {}, {}, {}},
        {"txb-page", &designOf(DesignKind::TxBPageCsums), {}, {}, {}},
    };
    // EXPERIMENTS.md, Figure 8(a-d) Redis, set-only rows.
    s.paper = {{"tvarak", 1.03}, {"txb-object", 1.50}, {"txb-page", 3.0}};
    return s;
}

/** STREAM triad, 12 threads, cold caches. */
Scenario
triadScenario()
{
    Scenario s;
    s.name = "triad-stream";
    s.cfg = evalConfig();
    StreamWorkload::Params p;
    p.kernel = StreamWorkload::Kernel::Triad;
    p.chunkBytes = 1ull << 20;
    s.make = instances<StreamWorkload>(12, p, true);
    s.designs = {
        {"baseline", &designOf(DesignKind::Baseline), {}, {}, {}},
        {"tvarak", &designOf(DesignKind::Tvarak), {}, {}, {}},
    };
    // EXPERIMENTS.md, stream copy->triad row: the triad end of 1.06-1.21.
    s.paper = {{"tvarak", 1.06}};
    return s;
}

/** When and where the ctree-rebuild DIMM failure happens. */
struct FailurePlan {
    std::size_t dimm = 0;
    std::size_t failPass = 0;
    std::size_t replacePass = 0;
};

/** Derive the failure schedule from the benchmark seed and the number
 *  of scheduling passes of the fault-free run. */
FailurePlan
planFailure(std::uint64_t seed, std::size_t passes, std::size_t dimms)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xfa11);
    std::size_t q = std::max<std::size_t>(passes / 8, 1);
    FailurePlan p;
    p.dimm = rng.nextBounded(dimms);
    p.failPass = q + rng.nextBounded(q);
    p.replacePass = p.failPass + q + rng.nextBounded(2 * q);
    return p;
}

/** Lines the online rebuild restores between two scheduling passes. */
constexpr std::size_t kRebuildBudget = 32768;

/** Shared between the fault-free TVARAK run and the failure run. */
struct TwinState {
    std::uint64_t seed = 0;
    std::size_t passes = 0;  //!< of the fault-free run
    Image image;             //!< the fault-free run's DAX image
    FailurePlan plan;
};

/** C-Tree insert-only, 12 instances; TVARAK again with a DIMM failure,
 *  replacement and online rebuild, checked against its fault-free
 *  twin. */
Scenario
ctreeScenario(std::uint64_t seed)
{
    Scenario s;
    s.name = "ctree-rebuild";
    s.cfg = evalConfig();
    TreeWorkload::Params p;
    p.kind = MapKind::CTree;
    p.mix = TreeWorkload::Mix::InsertOnly;
    p.preload = 8192;
    p.ops = 4096;
    p.sliceOps = 128;
    p.poolBytes = 4ull << 20;
    s.make = instances<TreeWorkload>(12, p, false);

    auto twin = std::make_shared<TwinState>();
    twin->seed = seed;
    std::size_t dimms = s.cfg.nvm.dimms;
    std::size_t dimmLines = s.cfg.nvm.dimmBytes / kLineBytes;

    auto twinCheck = [twin](MemorySystem &mem, DaxFs &fs, RunRecord &r) {
        if (twin->image.empty()) {
            twin->passes = r.passes;
            twin->image = daxImage(mem, fs);
            r.rssCounts = false;
            return;
        }
        std::string why = imageDiff(mem, fs, twin->image);
        if (!why.empty())
            r.failures.push_back("fault-free rerun: " + why);
    };

    auto failureHooks = [twin, dimms](RunRecord &r, Tracer &tr) {
        struct State {
            DaxFs *fs = nullptr;
            std::unique_ptr<RebuildEngine> engine;
        };
        auto st = std::make_shared<State>();
        twin->plan = planFailure(twin->seed, twin->passes, dimms);
        FailurePlan plan = twin->plan;
        RunRecord *rec = &r;
        Tracer *t = &tr;
        RunHooks h;
        h.onMachine = [st](MemorySystem &, DaxFs &fs) { st->fs = &fs; };
        h.onStep = [st, plan, rec, t](MemorySystem &mem, std::size_t pass) {
            if (pass == plan.failPass)
                mem.failDimm(plan.dimm);
            if (pass == plan.replacePass) {
                mem.replaceDimm(plan.dimm);
                st->engine = std::make_unique<RebuildEngine>(mem, st->fs);
                return;
            }
            if (st->engine != nullptr && !st->engine->done()) {
                timed(*t, "redundancy.rebuild_step", rec->t.rebuild, [&] {
                    st->engine->step(kRebuildBudget);
                });
            }
        };
        h.beforeFlush = [st, rec, t](MemorySystem &) {
            if (st->engine == nullptr) {
                rec->failures.push_back("DIMM was never replaced");
                return;
            }
            timed(*t, "redundancy.rebuild_finish", rec->t.rebuild,
                  [&] { st->engine->runToCompletion(); });
        };
        return h;
    };

    auto imageCheck = [twin](MemorySystem &mem, DaxFs &fs, RunRecord &r) {
        std::string why = imageDiff(mem, fs, twin->image);
        if (!why.empty())
            r.failures.push_back(why);
    };
    auto rebuildCheck = [dimmLines](RunRecord &r) {
        const Stats &st = r.stats;
        if (st.degradedReads == 0)
            r.failures.push_back("no degraded reads");
        if (st.rebuildLines != dimmLines) {
            r.failures.push_back(
                "rebuilt " + std::to_string(st.rebuildLines) +
                " lines, DIMM has " + std::to_string(dimmLines));
        }
    };

    s.designs = {
        {"baseline", &designOf(DesignKind::Baseline), {}, {}, {}},
        {"tvarak", &designOf(DesignKind::Tvarak), {}, twinCheck, {}},
        {"tvarak-failure", &designOf(DesignKind::Tvarak), failureHooks,
         imageCheck, rebuildCheck},
    };
    s.tvarakLabel = "tvarak-failure";
    s.describe = [twin] {
        const FailurePlan &p = twin->plan;
        return "failure seed " + std::to_string(twin->seed) + ": dimm " +
            std::to_string(p.dimm) + " fails after pass " +
            std::to_string(p.failPass) + ", replaced after pass " +
            std::to_string(p.replacePass) + " of " +
            std::to_string(twin->passes);
    };
    // EXPERIMENTS.md, Fig 8 trees, insert-only (worst tree) row: the
    // paper's bound, compared against the fault-free run.
    s.paper = {{"tvarak", 1.015}};
    return s;
}

/** For the self-test: flip one media bit of file 0 under TVARAK after
 *  a cold restart, so a fill verifies a corrupted line. */
void
injectCorruption(Scenario &s)
{
    for (DesignCase &c : s.designs) {
        if (c.label != "tvarak")
            continue;
        c.hooks = [](RunRecord &, Tracer &) {
            auto fs = std::make_shared<DaxFs *>(nullptr);
            RunHooks h;
            h.onMachine = [fs](MemorySystem &, DaxFs &f) { *fs = &f; };
            h.beforeReset = [fs](MemorySystem &m) {
                m.dropCaches();
                Addr g = (*fs)->filePage(0, 1);
                NvmArray &nvm = m.nvmArray();
                nvm.dimm(nvm.dimmOf(g)).injectBitFlip(nvm.mediaAddrOf(g), 3);
            };
            return h;
        };
    }
}

// ---------------------------------------------------------------------
// Statistics and metrics
// ---------------------------------------------------------------------

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Nearest-rank quantile @p q of @p v (copied). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto k = static_cast<std::size_t>(std::ceil(q * v.size()));
    return v[std::min(std::max<std::size_t>(k, 1), v.size()) - 1];
}

/**
 * What every calibrated host time reports over a run's repetitions:
 * the lower quartile. Slow periods only ever add time, so it holds
 * while they cover less than three quarters of a run, and it moves
 * less from run to run than the fastest repetition does.
 */
double
lowQuartile(const std::vector<double> &v)
{
    return quantile(v, 0.25);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        list.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }
    std::vector<Metric> list;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::uint64_t
nvmDataPlusRed(const Stats &s)
{
    return s.nvmDataReads + s.nvmDataWrites + s.nvmRedundancyReads +
        s.nvmRedundancyWrites;
}

// ---------------------------------------------------------------------
// Layer microbenchmarks (traced run)
// ---------------------------------------------------------------------

/** Host ns per call of @p fn over @p lines lines: fastest of 5. */
template <typename Fn>
double
nsPerLine(std::size_t lines, Fn &&fn)
{
    double best = 0;
    for (int trial = 0; trial < 5; trial++) {
        auto t0 = Clock::now();
        for (int rep = 0; rep < 64; rep++)
            fn();
        double ns = secondsSince(t0) * 1e9 / (64.0 * lines);
        best = trial == 0 ? ns : std::min(best, ns);
    }
    return best;
}

/** kernels:: per-line costs on the active backend; outputs are checked
 *  against the scalar reference. */
void
kernelMetrics(Metrics &m, std::vector<std::string> &failures)
{
    constexpr std::size_t kLines = 1024;
    constexpr std::size_t n = kLines * kLineBytes;
    std::vector<std::uint8_t> a(n), b(n), diff(n), parity(n);
    Rng rng(0x6b65726e);
    for (std::size_t i = 0; i < n; i++) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
    }
    const kernels::KernelOps &k = kernels::ops();
    const kernels::KernelOps &ref = kernels::opsFor(kernels::Backend::Scalar);

    volatile std::uint32_t sink = 0;
    m.add("kernels.crc32c_ns_per_line", nsPerLine(kLines, [&] {
              std::uint32_t acc = 0;
              for (std::size_t l = 0; l < kLines; l++)
                  acc ^= k.crc32c(&a[l * kLineBytes], kLineBytes, 0);
              sink = sink ^ acc;
          }),
          "ns");
    if (k.crc32c(a.data(), n, 0) != ref.crc32c(a.data(), n, 0))
        failures.push_back("crc32c differs from the scalar reference");

    m.add("kernels.xor_diff3_ns_per_line", nsPerLine(kLines, [&] {
              for (std::size_t l = 0; l < kLines; l++) {
                  std::size_t o = l * kLineBytes;
                  k.xorDiff3(&diff[o], &a[o], &b[o], kLineBytes);
              }
          }),
          "ns");
    std::vector<std::uint8_t> refDiff(n);
    ref.xorDiff3(refDiff.data(), a.data(), b.data(), n);
    if (diff != refDiff)
        failures.push_back("xorDiff3 differs from the scalar reference");

    std::vector<std::uint64_t> csum(kLines);
    m.add("kernels.sequence_ns_per_line", nsPerLine(kLines, [&] {
              for (std::size_t l = 0; l < kLines; l++) {
                  std::size_t o = l * kLineBytes;
                  kernels::KernelSequence()
                      .captureDiff(&diff[o], &a[o], &b[o])
                      .checksum(&csum[l], 0)
                      .parityXor(&parity[o])
                      .run();
              }
          }),
          "ns");

    // One fused writeback pass per line from zeroed outputs, on the
    // active backend and on scalar: diff, checksum and parity agree.
    auto sequencePass = [&](const kernels::KernelOps &ops,
                            std::vector<std::uint8_t> &d,
                            std::vector<std::uint64_t> &c,
                            std::vector<std::uint8_t> &p) {
        d.assign(n, 0);
        c.assign(kLines, 0);
        p.assign(2 * n, 0);  // one parity buffer per role
        for (std::size_t l = 0; l < kLines; l++) {
            std::size_t o = l * kLineBytes;
            kernels::SeqDesc s;
            s.oldData = &a[o];
            s.newData = &b[o];
            s.diffOut = &d[o];
            s.src = s.diffOut;
            s.csumOut = &c[l];
            s.parity[0] = &p[o];
            s.coeff[0] = 1;
            s.parity[1] = &p[n + o];
            s.coeff[1] = 0x1d;
            s.roles = 2;
            ops.sequence(s);
        }
    };
    std::vector<std::uint8_t> d1, d2, q1, q2;
    std::vector<std::uint64_t> c1, c2;
    sequencePass(k, d1, c1, q1);
    sequencePass(ref, d2, c2, q2);
    if (d1 != d2 || c1 != c2 || q1 != q2)
        failures.push_back("sequence differs from the scalar reference");

    m.add("kernels.gf_mul_acc_ns_per_line", nsPerLine(kLines, [&] {
              for (std::size_t l = 0; l < kLines; l++) {
                  std::size_t o = l * kLineBytes;
                  k.gfMulAcc(&parity[o], &a[o], 0x1d, kLineBytes);
              }
          }),
          "ns");
    std::vector<std::uint8_t> p1(kLineBytes, 0), p2(kLineBytes, 0);
    k.gfMulAcc(p1.data(), a.data(), 0x1d, kLineBytes);
    ref.gfMulAcc(p2.data(), a.data(), 0x1d, kLineBytes);
    if (p1 != p2)
        failures.push_back("gfMulAcc differs from the scalar reference");
    (void)sink;
}

/** Line addresses of the trace's demand reads and writes, in order. */
std::vector<Addr>
lineStream(const trace::TraceData &td, std::size_t cap)
{
    std::vector<Addr> lines;
    trace::TraceCursor cur(td);
    trace::TraceEvent e;
    while (lines.size() < cap && cur.next(e)) {
        if (e.op != trace::Op::Read && e.op != trace::Op::Write)
            continue;
        Addr first = e.vaddr & ~Addr{kLineBytes - 1};
        for (Addr a = first; a < e.vaddr + e.len && lines.size() < cap;
             a += kLineBytes)
            lines.push_back(a);
    }
    return lines;
}

/** Host ns per LLC lookup: the recorded line stream driven through
 *  stand-alone Caches in LLC-bank geometry (probe, then touch on a hit
 *  or insert on a miss). Fastest of 3 passes from empty caches. */
double
cacheNsPerLookup(const SimConfig &cfg, const std::vector<Addr> &lines)
{
    std::vector<Cache> banks;
    for (std::size_t b = 0; b < cfg.llcBanks; b++) {
        banks.push_back(Cache::fromSize("llc" + std::to_string(b),
                                        cfg.llcBank.sizeBytes,
                                        cfg.llcBank.ways, cfg.llcBanks));
    }
    double best = 0;
    Cache::Victim victim;
    for (int pass = 0; pass < 3; pass++) {
        for (Cache &c : banks)
            c.reset();
        auto t0 = Clock::now();
        for (Addr a : lines) {
            Cache &c = banks[lineNumber(a) % banks.size()];
            if (Cache::Line *l = c.probe(a))
                c.touch(*l);
            else
                c.insert(a, victim);
        }
        double ns = secondsSince(t0) * 1e9 / std::max<double>(lines.size(), 1);
        best = pass == 0 ? ns : std::min(best, ns);
    }
    return best;
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; i++) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
}

std::string
thpMode()
{
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string line;
    if (!std::getline(in, line))
        return "unknown";
    auto l = line.find('['), r = line.find(']');
    return l != std::string::npos && r > l ? line.substr(l + 1, r - l - 1)
                                           : line;
}

// ---------------------------------------------------------------------
// Command line and main
// ---------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    bool injectCorruption = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "redis-txb|triad-stream|ctree-rebuild [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans FILE] "
                 "[--inject-corruption]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string f = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((f + " needs a value").c_str());
            return argv[++i];
        };
        if (f == "--workload") {
            a.workload = value();
        } else if (f == "--seed") {
            std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("bad --seed");
        } else if (f == "--seconds") {
            std::string v = value();
            char *end = nullptr;
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("bad --seconds");
        } else if (f == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (f == "--spans") {
            a.spansPath = value();
        } else if (f == "--inject-corruption") {
            a.injectCorruption = true;
        } else {
            usage(("unknown argument " + f).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Per-design-label results across the repetitions of the sweep. */
struct DesignResults {
    RunRecord first;  //!< repetition 0: Stats and digest reference
    std::string digest;
    std::vector<Phases> untraced, traced;  //!< calibrated to the probe
    std::vector<Phases> untracedRaw;        //!< as measured
    std::vector<double> tracedStepMs;
    std::size_t stepCalls = 0;
};

/** Sum over design labels of f(results). */
template <typename Fn>
double
sumOver(const std::vector<DesignCase> &designs,
        std::map<std::string, DesignResults> &res, Fn &&f)
{
    double sum = 0;
    for (const DesignCase &c : designs)
        sum += f(res[c.label]);
    return sum;
}

std::vector<double>
field(const std::vector<Phases> &v, double (Phases::*get)() const)
{
    std::vector<double> out;
    for (const Phases &p : v)
        out.push_back((p.*get)());
    return out;
}

std::vector<double>
field(const std::vector<Phases> &v, double Phases::*member)
{
    std::vector<double> out;
    for (const Phases &p : v)
        out.push_back(p.*member);
    return out;
}

/** Per-layer self time: span duration minus its children's, summed by
 *  layer (the name before the dot), per traced repetition; median. */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans,
                const std::vector<int> &repOfRun)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, std::map<int, double>> byLayerRep;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        double self = static_cast<double>(s.endNs - s.startNs - childNs[i]);
        byLayerRep[layer][repOfRun[s.run]] += self * 1e-9;
    }
    std::map<std::string, double> out = {
        {"apps", 0}, {"harness", 0}, {"mem", 0}, {"redundancy", 0}};
    for (auto &[layer, reps] : byLayerRep) {
        std::vector<double> v;
        for (auto &[rep, sec] : reps)
            v.push_back(sec);
        out[layer] = quantile(v, 0.5);
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    for (const Span &s : spans) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"run\":" << s.run << "}\n";
    }
}

/** Fastest of @p n runs of a step-loop-timed design run. */
RunRecord
fastestRun(const SimConfig &cfg, const DesignCase &c,
           const WorkloadFactory &make, Tracer &tr, int n)
{
    RunRecord best;
    for (int i = 0; i < n; i++) {
        RunRecord r = runDesign(cfg, c, make, tr);
        if (i == 0 || r.t.step < best.t.step)
            best = std::move(r);
    }
    return best;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    Scenario sc;
    if (args.workload == "redis-txb")
        sc = redisScenario();
    else if (args.workload == "triad-stream")
        sc = triadScenario();
    else if (args.workload == "ctree-rebuild")
        sc = ctreeScenario(args.seed);
    else
        usage(("unknown workload " + args.workload).c_str());
    if (args.injectCorruption)
        injectCorruption(sc);

    // Warm the lazy state before anything is timed: kernel dispatch
    // and the design registry.
    {
        std::vector<std::uint8_t> buf(4096, 1);
        volatile std::uint32_t c = kernels::ops().crc32c(buf.data(),
                                                         buf.size(), 0);
        (void)c;
        (void)paperDesigns();
    }

    std::printf("provenance {\"cpu\": %s, \"nproc\": %ld, "
                "\"compiler\": %s, \"build_type\": %s, "
                "\"kernel_backend\": %s, \"thp\": %s, "
                "\"workload\": %s, \"seed\": %llu}\n",
                jsonString(cpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(kernels::backendName(kernels::activeBackend()))
                    .c_str(),
                jsonString(thpMode()).c_str(),
                jsonString(sc.name).c_str(),
                static_cast<unsigned long long>(args.seed));
    std::fflush(stdout);

    Tracer tr;
    std::vector<int> repOfRun;
    std::map<std::string, DesignResults> res;
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto account = [&](const std::string &what, const RunRecord &r) {
        attempted++;
        if (r.failures.empty())
            return;
        failed++;
        for (const std::string &f : r.failures)
            failures.push_back(what + ": " + f);
    };

    // The sweep repeats until the budget is spent; a traced run
    // alternates untraced and traced repetitions so both see the same
    // machine conditions.
    const int minReps = args.trace ? 4 : 3;
    // The simulator's peak RSS: what the process held before the probe
    // and any image existed, plus the largest growth of a design run.
    long baseRssKib = statusKib("VmRSS");
    long maxGrowthKib = 0;
    SpeedProbe probe;
    std::vector<ProbeReading> probes;  // the one each design run used
    ProbeReading before = probe.read();
    auto start = Clock::now();
    for (int rep = 0; rep < minReps || secondsSince(start) < args.seconds;
         rep++) {
        bool traced = args.trace && rep % 2 == 1;
        tr.enabled = traced;
        double repMeasured = 0, repRaw = 0, repSetup = 0;
        for (const DesignCase &c : sc.designs) {
            tr.run = static_cast<int>(repOfRun.size());
            repOfRun.push_back(rep);
            RunRecord r = runDesign(sc.cfg, c, sc.make, tr);
            if (r.rssCounts)
                maxGrowthKib = std::max(maxGrowthKib, r.rssGrowthKib);
            ProbeReading after = probe.read();
            probes.push_back(before.slowdown() < after.slowdown() ? before
                                                                  : after);
            before = after;
            Phases cal = r.t.scaled(1.0 / probes.back().slowdown());
            DesignResults &d = res[c.label];
            std::string digest = statsDigest(r.stats);
            if (r.stats.corruptionsDetected != 0) {
                r.failures.push_back(
                    std::to_string(r.stats.corruptionsDetected) +
                    " corruptions detected");
            }
            if (rep == 0) {
                d.digest = digest;
                d.stepCalls = r.stepCalls;
            } else if (digest != d.digest) {
                r.failures.push_back("Stats digest " + digest +
                                     " differs from repetition 0's " +
                                     d.digest);
            }
            account(c.label + " rep " + std::to_string(rep), r);
            repMeasured += cal.measured();
            repRaw += r.t.measured();
            repSetup += cal.setupTotal();
            (traced ? d.traced : d.untraced).push_back(cal);
            if (!traced)
                d.untracedRaw.push_back(r.t);
            if (traced) {
                d.tracedStepMs.insert(d.tracedStepMs.end(),
                                      r.stepMs.begin(), r.stepMs.end());
            }
            if (rep == 0) {
                r.stepMs.clear();
                d.first = std::move(r);
            }
        }
        std::fprintf(stderr,
                     "  rep %d%s: measured %.4f s (raw %.4f), setup %.4f s,"
                     " probe %.1f ns/load %.2f ns/op\n",
                     rep, traced ? " (traced)" : "", repMeasured, repRaw,
                     repSetup, probes.back().loadNs, probes.back().opNs);
    }
    tr.enabled = false;
    int reps = static_cast<int>(repOfRun.size() / sc.designs.size());

    const Stats &base = res["baseline"].first.stats;
    const Stats &tv = res[sc.tvarakLabel].first.stats;
    auto norm = [&](const std::string &label) {
        return ratio(static_cast<double>(
                         res[label].first.stats.runtimeCycles()),
                     static_cast<double>(base.runtimeCycles()));
    };

    for (const DesignCase &c : sc.designs) {
        const DesignResults &d = res[c.label];
        std::printf("digest %s %s %s\n", sc.name.c_str(), c.label.c_str(),
                    d.digest.c_str());
        std::fprintf(stderr,
                     "  %-15s norm %.4f  measured q1 %.4f med %.4f s  "
                     "setup q1 %.4f med %.4f s  (%zu reps)\n",
                     c.label.c_str(), norm(c.label),
                     lowQuartile(field(d.untraced, &Phases::measured)),
                     quantile(field(d.untraced, &Phases::measured), 0.5),
                     lowQuartile(field(d.untraced, &Phases::setupTotal)),
                     quantile(field(d.untraced, &Phases::setupTotal), 0.5),
                     d.untraced.size());
    }
    if (sc.describe)
        std::printf("%s\n", sc.describe().c_str());

    Metrics m;
    double hostS = sumOver(sc.designs, res, [](DesignResults &d) {
        return lowQuartile(field(d.untraced, &Phases::measured));
    });
    if (!args.trace) {
        double paperErr = 0;
        for (const PaperRef &p : sc.paper)
            paperErr += std::fabs(std::log(norm(p.label) / p.normRuntime));
        paperErr /= static_cast<double>(sc.paper.size());

        m.add("host_s", hostS, "s");
        m.add("setup_s", sumOver(sc.designs, res, [](DesignResults &d) {
                  return lowQuartile(field(d.untraced, &Phases::setupTotal));
              }),
              "s");
        m.add("peak_rss_mib",
              static_cast<double>(baseRssKib + maxGrowthKib) / 1024.0,
              "MiB");
        m.add("tvarak_norm_runtime", norm(sc.tvarakLabel), "ratio");
        m.add("tvarak_norm_nvm_accesses",
              ratio(static_cast<double>(nvmDataPlusRed(tv)),
                    static_cast<double>(nvmDataPlusRed(base))),
              "ratio");
        m.add("tvarak_norm_energy",
              ratio(tv.totalEnergy(), base.totalEnergy()), "ratio");
        m.add("paper_err", paperErr, "ratio");
    } else {
        // Host-time layer metrics come from the traced repetitions.
        auto tracedQ1 = [&](double Phases::*member) {
            return sumOver(sc.designs, res, [&](DesignResults &d) {
                return lowQuartile(field(d.traced, member));
            });
        };
        double tracedHost = sumOver(sc.designs, res, [](DesignResults &d) {
            return lowQuartile(field(d.traced, &Phases::measured));
        });
        std::vector<double> stepMs;
        double stepCalls = 0;
        for (const DesignCase &c : sc.designs) {
            DesignResults &d = res[c.label];
            stepMs.insert(stepMs.end(), d.tracedStepMs.begin(),
                          d.tracedStepMs.end());
            stepCalls += static_cast<double>(d.stepCalls);
        }
        // Tail: the highest of p99.9/p99/p90/p50 with >= 10 samples
        // beyond it.
        double tailPct = 50;
        for (double p : {99.9, 99.0, 90.0}) {
            if (stepMs.size() * (1 - p / 100) >= 10) {
                tailPct = p;
                break;
            }
        }
        double tvStep = lowQuartile(field(res[sc.tvarakLabel].traced,
                                    &Phases::measured));

        m.add("harness.machine_s", tracedQ1(&Phases::machine), "s");
        m.add("harness.step_s", tracedQ1(&Phases::step), "s");
        m.add("harness.host_raw_s",
              sumOver(sc.designs, res,
                      [](DesignResults &d) {
                          return lowQuartile(field(d.untracedRaw,
                                             &Phases::measured));
                      }),
              "s");
        std::vector<double> loadNs, opNs;
        for (const ProbeReading &p : probes) {
            loadNs.push_back(p.loadNs);
            opNs.push_back(p.opNs);
        }
        m.add("harness.probe_ns_per_load", quantile(loadNs, 0.5), "ns");
        m.add("harness.probe_ns_per_op", quantile(opNs, 0.5), "ns");
        m.add("harness.step_calls", stepCalls, "count");
        m.add("harness.step_ms_p50", quantile(stepMs, 0.5), "ms");
        m.add("harness.step_ms_tail", quantile(stepMs, tailPct / 100), "ms");
        m.add("harness.step_tail_pct", tailPct, "%");
        m.add("harness.step_samples", static_cast<double>(stepMs.size()),
              "count");
        m.add("harness.host_ns_per_cache_access",
              ratio(tvStep * 1e9, static_cast<double>(tv.cacheAccesses())),
              "ns");
        m.add("harness.host_ns_per_nvm_access",
              ratio(tvStep * 1e9, static_cast<double>(tv.nvmAccesses())),
              "ns");
        m.add("apps.setup_s", tracedQ1(&Phases::setup) +
                  tracedQ1(&Phases::factory),
              "s");
        m.add("mem.drop_caches_s", tracedQ1(&Phases::beforeMeasure), "s");
        m.add("mem.flush_s", tracedQ1(&Phases::flush), "s");
        m.add("trace.overhead_s", tracedHost - hostS, "s");
        m.add("trace.spans", static_cast<double>(tr.spans.size()), "count");
        for (auto &[layer, sec] : selfTimeByLayer(tr.spans, repOfRun))
            m.add("self." + layer + "_s", sec, "s");

        // Simulated counters of the TVARAK run.
        m.add("pmemlib.tx_commits", static_cast<double>(tv.txCommits),
              "count");
        m.add("mem.l1_miss_ratio",
              ratio(static_cast<double>(tv.l1Misses),
                    static_cast<double>(tv.l1Accesses)),
              "ratio");
        m.add("mem.l2_miss_ratio",
              ratio(static_cast<double>(tv.l2Misses),
                    static_cast<double>(tv.l2Accesses)),
              "ratio");
        m.add("mem.llc_miss_ratio",
              ratio(static_cast<double>(tv.llcMisses),
                    static_cast<double>(tv.llcAccesses)),
              "ratio");
        m.add("core.read_verifications",
              static_cast<double>(tv.readVerifications), "count");
        m.add("core.redundancy_updates",
              static_cast<double>(tv.redundancyUpdates), "count");
        m.add("core.diff_captures", static_cast<double>(tv.diffCaptures),
              "count");
        m.add("core.diff_evictions", static_cast<double>(tv.diffEvictions),
              "count");
        m.add("core.tvarak_cache_hit_ratio",
              1.0 - ratio(static_cast<double>(tv.tvarakCacheMisses),
                          static_cast<double>(tv.tvarakCacheAccesses)),
              "ratio");
        m.add("nvm.data_accesses",
              static_cast<double>(tv.nvmDataReads + tv.nvmDataWrites),
              "count");
        m.add("nvm.redundancy_accesses",
              static_cast<double>(tv.nvmRedundancyReads +
                                  tv.nvmRedundancyWrites),
              "count");
        m.add("nvm.csum_line_accesses",
              static_cast<double>(tv.nvmCsumLineAccesses), "count");
        m.add("nvm.parity_line_accesses",
              static_cast<double>(tv.nvmParityLineAccesses), "count");
        m.add("nvm.max_dimm_busy_mcycles",
              static_cast<double>(tv.maxDimmBusyCycles()) / 1e6, "Mcycles");

        double swBytes = 0;
        for (const DesignCase &c : sc.designs)
            swBytes += static_cast<double>(
                res[c.label].first.stats.swChecksumBytes);
        m.add("redundancy.sw_checksum_mib", swBytes / (1 << 20), "MiB");
        m.add("redundancy.txb_object_norm_runtime",
              res.count("txb-object") ? norm("txb-object") : 0.0, "ratio");
        m.add("redundancy.txb_page_norm_runtime",
              res.count("txb-page") ? norm("txb-page") : 0.0, "ratio");
        double rebuildS = lowQuartile(field(res[sc.tvarakLabel].traced,
                                      &Phases::rebuild));
        m.add("redundancy.rebuild_s", rebuildS, "s");
        m.add("redundancy.rebuild_ns_per_line",
              ratio(rebuildS * 1e9, static_cast<double>(tv.rebuildLines)),
              "ns");
        m.add("redundancy.degraded_reads",
              static_cast<double>(tv.degradedReads), "count");
        m.add("redundancy.degraded_red_skips",
              static_cast<double>(tv.degradedRedSkips), "count");
        m.add("redundancy.rebuild_lines",
              static_cast<double>(tv.rebuildLines), "count");
        m.add("redundancy.failure_norm_runtime",
              res.count("tvarak-failure")
                  ? ratio(static_cast<double>(tv.runtimeCycles()),
                          static_cast<double>(res["tvarak"]
                                                  .first.stats
                                                  .runtimeCycles()))
                  : 0.0,
              "ratio");

        // Record the Baseline run and replay it: the replay must
        // reproduce the direct run's Stats exactly.
        trace::RecordResult recd = trace::recordExperiment(
            sc.cfg, designOf(DesignKind::Baseline), sc.make, sc.name);
        const trace::TraceData &td = *recd.trace;
        RunRecord decode;
        double decodeS = 0;
        for (int i = 0; i < 3; i++) {
            auto t0 = Clock::now();
            trace::TraceCursor cur(td);
            trace::TraceEvent e;
            std::size_t events = 0;
            while (cur.next(e))
                events++;
            double s = secondsSince(t0);
            decodeS = i == 0 ? s : std::min(decodeS, s);
            if (events != td.eventCount && i == 0)
                decode.failures.push_back("decoded event count differs");
        }
        account("baseline trace decode", decode);
        DesignCase replay{"baseline-replay",
                          &designOf(DesignKind::Baseline), {}, {}, {}};
        RunRecord rr = fastestRun(
            td.cfg, replay, trace::makeReplayFactory(recd.trace), tr, 2);
        if (std::string d = statsDiff(rr.stats, base); !d.empty())
            rr.failures.push_back("replay Stats differ: " + d);
        account("baseline replay", rr);
        double directStep = minOf(field(res["baseline"].untracedRaw,
                                        &Phases::step));
        m.add("trace.decode_s", decodeS, "s");
        m.add("apps.host_share",
              1.0 - ratio(rr.t.step - decodeS, directStep), "ratio");

        std::vector<Addr> lines = lineStream(td, 4u << 20);
        m.add("mem.cache_ns_per_lookup", cacheNsPerLookup(sc.cfg, lines),
              "ns");
        m.add("mem.cache_lookups", static_cast<double>(lines.size()),
              "count");

        RunRecord kr;
        kernelMetrics(m, kr.failures);
        account("kernels", kr);

        if (!args.spansPath.empty())
            writeSpans(args.spansPath, tr.spans);
    }

    for (const std::string &f : failures)
        std::fprintf(stderr, "FAILED %s\n", f.c_str());
    std::fprintf(stderr, "  %d repetitions, %zu design runs, %zu failed\n",
                 reps, attempted, failed);

    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < m.list.size(); i++) {
        const Metric &x = m.list[i];
        out += (i ? ", " : "") + jsonString(x.name) + ": {\"value\": " +
            jsonNumber(x.value) + ", \"unit\": " + jsonString(x.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return failed == 0 ? 0 : 1;
}
