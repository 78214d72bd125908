/**
 * @file
 * Self-profiling microbench: how fast does the *simulator itself*
 * run? Each experiment is timed individually on the calling thread
 * and reported as simulated-cycles-per-wall-second, so hot-path work
 * in mem/ shows up as a number, not a vibe. The workloads are chosen
 * to stress the per-access paths differently:
 *
 *   stream-triad   streaming fills -> Cache::insert + prefetch path
 *   ctree-insert   pointer chasing -> accessLine hit path + LRU churn
 *
 * Runs each under Baseline and TVARAK, once per kernel backend this
 * CPU supports, and reports each backend's simulator speed. Backends
 * must simulate the same machine: if any (workload, design) row's
 * Stats differ between them, the bench exits 1. --jobs is accepted
 * for flag uniformity but measurement is always sequential:
 * co-scheduled experiments would steal cycles from each other and
 * corrupt the per-experiment wall times.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "bench_common.hh"
#include "kernels/kernels.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

WorkloadFactory
triadFactory(std::size_t chunk)
{
    return [chunk](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Triad;
        p.chunkBytes = chunk;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<StreamWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

WorkloadFactory
ctreeFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.mix = TreeWorkload::Mix::InsertOnly;
        p.preload = 16384 * scale;
        p.ops = 16384 * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

/**
 * The perf-trajectory file CHANGES.md used to narrate: simulator
 * speed (Mcycles of simulated time per wall second) per (workload,
 * design), so a slowdown in the mem/ hot paths shows up as a diff in
 * results/BENCH_selfperf.json rather than a vibe.
 */
/** Per-backend totals of one full (workload x design) sweep. */
struct BackendTotal {
    std::string kernel;
    double mcycles = 0;
    double wall = 0;
};

void
writeSelfperfTrajectory(const BenchArgs &args,
                        const std::vector<BenchJsonEntry> &entries,
                        const std::vector<BackendTotal> &backends,
                        double totalMcycles, double totalWall)
{
    if (!args.json)
        return;
    std::filesystem::create_directories("results");
    const char *path = "results/BENCH_selfperf.json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path);
        return;
    }
    out << "{\n  \"bench\": \"selfperf\",\n"
        << "  \"scale\": " << args.scale << ",\n"
        << "  \"kernel\": \""
        << kernels::backendName(kernels::activeBackend()) << "\",\n"
        << "  \"total_mcycles_per_sec\": "
        << (totalWall > 0 ? totalMcycles / totalWall : 0.0) << ",\n"
        << "  \"backends\": [\n";
    for (std::size_t i = 0; i < backends.size(); i++) {
        const BackendTotal &b = backends[i];
        out << "    {\"kernel\": \"" << b.kernel
            << "\", \"total_mcycles_per_sec\": "
            << (b.wall > 0 ? b.mcycles / b.wall : 0.0) << "}"
            << (i + 1 < backends.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"results\": [\n";
    for (std::size_t i = 0; i < entries.size(); i++) {
        const BenchJsonEntry &e = entries[i];
        double mcycles = static_cast<double>(e.runtimeCycles) / 1e6;
        out << "    {\"workload\": \"" << e.workload
            << "\", \"design\": \"" << e.design
            << "\", \"sim_mcycles\": " << mcycles
            << ", \"wall_seconds\": " << e.wallSeconds
            << ", \"mcycles_per_sec\": "
            << (e.wallSeconds > 0 ? mcycles / e.wallSeconds : 0.0)
            << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "  wrote %s\n", path);
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Simulator self-profiling: sim-cycles per wall-sec",
        "selfperf");
    SimConfig cfg = evalConfig();

    struct Case {
        const char *name;
        WorkloadFactory make;
    };
    const std::vector<Case> cases = {
        {"stream-triad", triadFactory(args.scale * (2ull << 20))},
        {"ctree-insert", ctreeFactory(args.scale)},
    };
    const std::vector<DesignKind> designs = {DesignKind::Baseline,
                                             DesignKind::Tvarak};

    std::printf("== Simulator self-profiling "
                "(higher cycles/sec = faster simulator) ==\n");
    std::printf("%-16s %-16s %-8s %14s %10s %16s\n", "workload",
                "design", "kernel", "sim Mcycles", "wall s",
                "Mcycles/sec");

    // The full matrix runs once per available kernel backend, in
    // ascending preference order, so the best one is active when the
    // loop ends. The entries block (consumed by scripts/perf_compare.py)
    // records the best backend's run.
    const kernels::Backend best = kernels::bestBackend();
    std::vector<BenchJsonEntry> entries;
    std::vector<BackendTotal> backends;
    // Each row's Stats under the first backend; the others must match.
    std::vector<Stats> reference;
    bool identical = true;
    double totalCycles = 0, totalWall = 0;
    for (std::size_t i = 0; i < kernels::kBackendCount; i++) {
        auto b = static_cast<kernels::Backend>(i);
        if (!kernels::selectBackend(b))
            continue;  // this CPU lacks it
        const char *kname = kernels::backendName(b);
        BackendTotal bt;
        bt.kernel = kname;
        std::size_t row = 0;
        for (const Case &c : cases) {
            for (DesignKind d : designs) {
                std::fprintf(stderr, "  timing %-16s under %s (%s)...\n",
                             c.name, designName(d), kname);
                auto t0 = std::chrono::steady_clock::now();
                RunResult r = runExperiment(cfg, d, c.make);
                double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count();
                double mcycles =
                    static_cast<double>(r.runtimeCycles) / 1e6;
                std::printf("%-16s %-16s %-8s %14.1f %10.3f %16.1f\n",
                            c.name, designName(d), kname, mcycles,
                            wall, mcycles / wall);
                bt.mcycles += mcycles;
                bt.wall += wall;
                if (backends.empty()) {
                    reference.push_back(r.stats);
                } else if (std::string diff =
                               statsDiff(reference[row], r.stats);
                           !diff.empty()) {
                    std::fprintf(stderr, "MISMATCH %s/%s: %s vs %s: %s\n",
                                 c.name, designName(d),
                                 backends.front().kernel.c_str(), kname,
                                 diff.c_str());
                    identical = false;
                }
                row++;
                if (b != best)
                    continue;
                totalCycles += mcycles;
                totalWall += wall;
                BenchJsonEntry e;
                e.workload = c.name;
                e.design = designName(d);
                e.runtimeCycles = r.runtimeCycles;
                e.normRuntime = 1.0;
                e.energyMj = r.energyMj;
                e.nvmDataAccesses = r.nvmDataAccesses;
                e.nvmRedAccesses = r.nvmRedAccesses;
                e.cacheAccesses = r.cacheAccesses;
                e.wallSeconds = wall;
                entries.push_back(std::move(e));
            }
        }
        std::printf("%-16s %-16s %-8s %14.1f %10.3f %16.1f\n",
                    "TOTAL", "-", kname, bt.mcycles, bt.wall,
                    bt.wall > 0 ? bt.mcycles / bt.wall : 0.0);
        backends.push_back(std::move(bt));
    }
    writeBenchJson(args, entries);
    writeSelfperfTrajectory(args, entries, backends, totalCycles,
                            totalWall);
    if (!identical) {
        std::fprintf(stderr, "FAIL: kernel backends simulated "
                             "different Stats\n");
        return 1;
    }
    std::printf("identity ok: %zu rows bit-identical across %zu "
                "backends\n",
                reference.size(), backends.size());
    return 0;
}
