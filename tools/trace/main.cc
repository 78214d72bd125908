/**
 * @file
 * tvarak-trace: record, inspect and replay access traces.
 *
 *   tvarak-trace record <stream|ctree> <out.trace> [--scale N]
 *                                                  [--design <d>]
 *   tvarak-trace info   <file.trace>
 *   tvarak-trace stat   <file.trace>
 *   tvarak-trace replay <file.trace> --design <d> [--verify]
 *
 * `record` runs a canned workload (stream = STREAM triad over
 * persistent arrays, ctree = C-Tree insert-only over pmemlib) with the
 * recorder attached and writes the trace. The canned identity and
 * scale are embedded in the trace's workload name ("stream@2"), which
 * is how `replay --verify` reconstructs the matching direct run and
 * asserts the replayed Stats are bit-identical.
 *
 * `stat` decodes the record stream and reports per-thread footprints,
 * the read/write mix, and a line-reuse histogram — the trace-level
 * quantities that explain per-design replay behavior (reuse hits in
 * cache; unique lines pay NVM and redundancy costs).
 */

#include <cstdlib>
#include <string>
#include <map>
#include <unordered_set>
#include <vector>

#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "harness/cli.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "sim/log.hh"
#include "trace/trace.hh"

namespace tvarak::tracecli {
namespace {

/** Is @p id one of the canned workloads cannedFactory builds? */
bool
isCannedId(const std::string &id)
{
    return id == "stream" || id == "ctree";
}

/** The canned machine: Table III, NVM sized for the canned workloads. */
SimConfig
cannedConfig()
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = 96ull << 20;
    return cfg;
}

/** Canned workload factory; @p id is "stream" or "ctree". */
WorkloadFactory
cannedFactory(const std::string &id, std::size_t scale)
{
    if (id == "stream") {
        return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
            auto scheme = mem.designObj().makeScheme(mem);
            WorkloadSet set;
            StreamWorkload::Params p;
            p.kernel = StreamWorkload::Kernel::Triad;
            p.chunkBytes = 256 * 1024 * scale;
            for (int t = 0; t < 12; t++) {
                set.workloads.push_back(
                    std::make_unique<StreamWorkload>(mem, fs, t,
                                                     scheme.get(), p));
            }
            set.shared = std::shared_ptr<void>(
                scheme.release(), [](void *q) {
                    delete static_cast<RedundancyScheme *>(q);
                });
            set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
            return set;
        };
    }
    if (id == "ctree") {
        return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
            auto scheme = mem.designObj().makeScheme(mem);
            WorkloadSet set;
            TreeWorkload::Params p;
            p.kind = MapKind::CTree;
            p.mix = TreeWorkload::Mix::InsertOnly;
            p.preload = 4096;
            p.ops = 4096 * scale;
            for (int t = 0; t < 12; t++) {
                set.workloads.push_back(
                    std::make_unique<TreeWorkload>(mem, fs, t,
                                                   scheme.get(), p));
            }
            set.shared = std::shared_ptr<void>(
                scheme.release(), [](void *q) {
                    delete static_cast<RedundancyScheme *>(q);
                });
            return set;
        };
    }
    fatal("unknown canned workload '%s' (want stream or ctree)",
          id.c_str());
}

/** Split a canned workload name, e.g. "stream@2" -> ("stream", 2). */
bool
splitCannedName(const std::string &name, std::string &id,
                std::size_t &scale)
{
    auto at = name.find('@');
    if (at == std::string::npos)
        return false;
    id = name.substr(0, at);
    std::uint64_t v = 0;
    if (!isCannedId(id) ||
        !cli::parseInteger(name.substr(at + 1), 1, SIZE_MAX, v)) {
        return false;
    }
    scale = static_cast<std::size_t>(v);
    return true;
}

/** Load @p path or exit with the usage status: a truncated, corrupt
 *  or otherwise unusable trace is a command-line input error (load
 *  already printed the specific diagnostic), not a simulator fault. */
std::shared_ptr<trace::TraceData>
loadOrDie(const std::string &path)
{
    auto t = trace::TraceData::load(path);
    if (t == nullptr) {
        std::fprintf(stderr, "tvarak-trace: cannot load trace %s\n",
                     path.c_str());
        std::exit(2);
    }
    return t;
}

void
printRunResult(const RunResult &r)
{
    std::printf("  design           %s\n", designName(r.design));
    std::printf("  runtime          %llu cycles (%.3f ms)\n",
                static_cast<unsigned long long>(r.runtimeCycles),
                r.runtimeMs);
    std::printf("  energy           %.3f mJ\n", r.energyMj);
    std::printf("  nvm accesses     %llu data + %llu redundancy\n",
                static_cast<unsigned long long>(r.nvmDataAccesses),
                static_cast<unsigned long long>(r.nvmRedAccesses));
    std::printf("  cache accesses   %llu\n",
                static_cast<unsigned long long>(r.cacheAccesses));
}

int
cmdRecord(const cli::Args &a)
{
    const std::string &id = a.positional[0];
    const std::string &out = a.positional[1];
    if (!isCannedId(id)) {
        a.fail("unknown canned workload '" + id +
               "' (want stream or ctree)");
    }
    std::size_t scale = a.number("--scale", 1);
    const Design &design = a.design(a.value("--design", "baseline"));

    std::string name = id + "@" + std::to_string(scale);
    inform("recording %s under %s ...", name.c_str(),
           design.displayName());
    trace::RecordResult rec = trace::recordExperiment(
        cannedConfig(), design, cannedFactory(id, scale), name);
    fatal_if(!rec.trace->save(out), "cannot write %s", out.c_str());
    std::printf("recorded %s: %llu events, %zu record bytes, "
                "%u threads\n",
                out.c_str(),
                static_cast<unsigned long long>(rec.trace->eventCount),
                rec.trace->records.size(), rec.trace->threads);
    printRunResult(rec.result);
    return 0;
}

int
cmdInfo(const cli::Args &a)
{
    auto t = loadOrDie(a.positional[0]);
    std::printf("trace            %s\n", a.positional[0].c_str());
    std::printf("format version   %u\n", t->version);
    std::printf("recorded design  %s\n", designName(t->recordedDesign));
    std::printf("config fp        %016llx\n",
                static_cast<unsigned long long>(t->configFingerprint));
    std::printf("workload         %s\n", t->workloadName.c_str());
    std::printf("threads          %u\n", t->threads);
    std::printf("events           %llu\n",
                static_cast<unsigned long long>(t->eventCount));
    std::printf("record bytes     %zu (%.2f B/event)\n",
                t->records.size(),
                t->eventCount == 0
                    ? 0.0
                    : static_cast<double>(t->records.size()) /
                        static_cast<double>(t->eventCount));
    std::printf("machine          %zu cores, %zu x %zu MB NVM DIMMs\n",
                t->cfg.cores, t->cfg.nvm.dimms,
                t->cfg.nvm.dimmBytes >> 20);
    return 0;
}

int
cmdStat(const cli::Args &a)
{
    auto t = loadOrDie(a.positional[0]);

    struct PerThread {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t readBytes = 0;
        std::uint64_t writeBytes = 0;
        std::unordered_set<std::uint64_t> lines;
    };
    std::vector<PerThread> threads(t->threads);
    // Ordered map: the reuse histogram below iterates it, and stat
    // output must not depend on hash iteration order (lint R10).
    std::map<std::uint64_t, std::uint64_t> lineAccesses;

    trace::TraceCursor cursor(*t);
    trace::TraceEvent e;
    while (cursor.next(e)) {
        if (e.op != trace::Op::Read && e.op != trace::Op::Write)
            continue;
        auto idx = static_cast<std::size_t>(e.tid);
        if (idx >= threads.size())
            threads.resize(idx + 1);
        PerThread &pt = threads[idx];
        if (e.op == trace::Op::Read) {
            pt.reads++;
            pt.readBytes += e.len;
        } else {
            pt.writes++;
            pt.writeBytes += e.len;
        }
        std::uint64_t first = lineNumber(e.vaddr);
        std::uint64_t last = lineNumber(e.vaddr + e.len - 1);
        for (std::uint64_t ln = first; ln <= last; ln++) {
            pt.lines.insert(ln);
            lineAccesses[ln]++;
        }
    }

    std::printf("%-6s %12s %12s %14s %14s %12s\n", "tid", "reads",
                "writes", "read-bytes", "write-bytes", "footprint");
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < threads.size(); i++) {
        const PerThread &pt = threads[i];
        if (pt.reads == 0 && pt.writes == 0)
            continue;
        std::printf("%-6zu %12llu %12llu %14llu %14llu %9zu KiB\n", i,
                    static_cast<unsigned long long>(pt.reads),
                    static_cast<unsigned long long>(pt.writes),
                    static_cast<unsigned long long>(pt.readBytes),
                    static_cast<unsigned long long>(pt.writeBytes),
                    pt.lines.size() * kLineBytes / 1024);
        reads += pt.reads;
        writes += pt.writes;
    }
    double total = static_cast<double>(reads + writes);
    std::printf("mix: %llu reads / %llu writes (%.1f%% reads)\n",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(reads) / total);

    // Line-reuse histogram: how often is the same 64 B line touched?
    // log2 buckets; bucket 0 = touched once (streaming), high buckets
    // = hot lines that replay from cache under every design.
    std::vector<std::uint64_t> histogram;
    for (const auto &[ln, count] : lineAccesses) {
        (void)ln;
        std::size_t bucket = 0;
        for (std::uint64_t c = count; c > 1; c >>= 1)
            bucket++;
        if (bucket >= histogram.size())
            histogram.resize(bucket + 1, 0);
        histogram[bucket]++;
    }
    std::printf("line reuse (distinct lines: %zu)\n",
                lineAccesses.size());
    for (std::size_t b = 0; b < histogram.size(); b++) {
        if (histogram[b] == 0)
            continue;
        std::uint64_t lo = std::uint64_t{1} << b;
        std::uint64_t hi = (std::uint64_t{1} << (b + 1)) - 1;
        std::printf("  %6llu-%-6llu accesses: %10llu lines\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi),
                    static_cast<unsigned long long>(histogram[b]));
    }
    return 0;
}

int
cmdReplay(const cli::Args &a)
{
    if (!a.has("--design"))
        a.fail("missing --design");
    const Design &design = a.design(a.value("--design"));
    auto t = loadOrDie(a.positional[0]);
    bool verify = a.has("--verify");
    std::string id;
    std::size_t scale = 1;
    if (verify && !splitCannedName(t->workloadName, id, scale)) {
        a.fail("--verify needs a trace of a canned workload (stream@N "
               "or ctree@N), not '" + t->workloadName + "'");
    }

    inform("replaying %s (%llu events) under %s ...",
           t->workloadName.c_str(),
           static_cast<unsigned long long>(t->eventCount),
           design.displayName());
    RunResult replayed = trace::replayExperiment(t, design);
    printRunResult(replayed);

    if (!verify)
        return 0;
    inform("verifying against direct execution ...");
    RunResult direct =
        runExperiment(t->cfg, design, cannedFactory(id, scale));
    std::string diff = statsDiff(direct.stats, replayed.stats);
    if (!diff.empty()) {
        std::fprintf(stderr, "VERIFY FAILED: %s\n", diff.c_str());
        return 1;
    }
    std::printf("verify: replayed Stats bit-identical to direct "
                "execution\n");
    return 0;
}

/** The grammar of tvarak-trace. */
cli::Tool
traceTool()
{
    std::string designs = "; registered: " + registeredNameList() + ")";
    return {"tvarak-trace", "",
            {{"record", "<stream|ctree> <out.trace>", 2,
              {{"--scale", "N", "workload size multiplier (default 1)"},
               {"--design", "NAME",
                "design to record under (default baseline" + designs}}},
             {"info", "<file.trace>", 1, {}},
             {"stat", "<file.trace>", 1, {}},
             {"replay", "<file.trace>", 1,
              {{"--design", "NAME",
                "design to replay under (required" + designs},
               {"--verify", nullptr,
                "check the Stats against a direct run of the canned "
                "workload"}}}}};
}

}  // namespace
}  // namespace tvarak::tracecli

int
main(int argc, char **argv)
{
    using namespace tvarak::tracecli;
    tvarak::cli::Args a(traceTool(), argc, argv);
    if (a.command == "record")
        return cmdRecord(a);
    if (a.command == "info")
        return cmdInfo(a);
    if (a.command == "stat")
        return cmdStat(a);
    return cmdReplay(a);
}
