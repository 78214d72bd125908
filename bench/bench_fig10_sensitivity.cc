/**
 * @file
 * Figure 10: sensitivity to the LLC way-partition sizes.
 *
 * (a) ways (out of 16) reserved for caching redundancy information;
 * (b) ways reserved for storing data diffs.
 *
 * Expected shape (paper Section IV-H): Redis and C-Tree largely flat;
 * stream and fio improve with more redundancy-cache ways; N-Store is
 * cache-sensitive and degrades as ways are taken from application
 * data; the data-diff sweep is non-monotone for stream/fio (fewer
 * diff evictions vs. less application cache).
 *
 * Both sweeps share one batch, so each workload's Baseline runs once
 * (the sequential version ran it twice) and the whole figure fans out
 * across --jobs workers.
 */

#include "bench_workloads.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

void
printSweep(const char *caption, const char *csvId,
           const std::vector<std::size_t> &ways,
           const std::vector<std::string> &row_names,
           const std::vector<std::vector<double>> &table)
{
    std::vector<std::string> columns;
    for (std::size_t n : ways)
        columns.push_back(std::to_string(n) + " ways");
    printRuntimeTable(caption, columns, row_names, table);

    std::printf("\ncsv,%s,workload", csvId);
    for (std::size_t n : ways)
        std::printf(",%zu", n);
    std::printf("\n");
    for (std::size_t i = 0; i < row_names.size(); i++) {
        std::printf("csv,%s,%s", csvId, row_names[i].c_str());
        for (double v : table[i])
            std::printf(",%.4f", v);
        std::printf("\n");
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Fig 10: LLC partition sensitivity sweeps",
        "fig10_sensitivity");
    rejectDesignFlag(args);
    const std::vector<std::size_t> ways = {1, 2, 4, 6, 8};

    // Per workload: one baseline, then the redundancy-way sweep and
    // the diff-way sweep. Stride through the flat results below.
    const auto workloads = fig9Workloads(args.scale);
    std::vector<ExperimentJob> batch;
    for (auto &w : workloads) {
        SimConfig cfg = evalConfig();
        cfg.nvm.dimmBytes = w.dimmBytes;
        batch.push_back({std::string(w.name) + " baseline", cfg,
                         &designOf(DesignKind::Baseline), w.factory});
        for (std::size_t n : ways) {
            SimConfig vcfg = cfg;
            vcfg.tvarak.redundancyWays = n;
            batch.push_back({std::string(w.name) + " red-ways " +
                                 std::to_string(n),
                             vcfg, &designOf(DesignKind::Tvarak),
                             w.factory});
        }
        for (std::size_t n : ways) {
            SimConfig vcfg = cfg;
            vcfg.tvarak.diffWays = n;
            batch.push_back({std::string(w.name) + " diff-ways " +
                                 std::to_string(n),
                             vcfg, &designOf(DesignKind::Tvarak),
                             w.factory});
        }
    }
    std::vector<RunResult> results = runExperiments(batch, args.jobs);

    std::vector<std::string> row_names;
    std::vector<std::vector<double>> redTable, diffTable;
    std::vector<BenchJsonEntry> entries;
    const std::size_t stride = 1 + 2 * ways.size();
    auto record = [&entries](const char *workload, std::string design,
                             const RunResult &r, double norm) {
        BenchJsonEntry e;
        e.workload = workload;
        e.design = std::move(design);
        e.runtimeCycles = r.runtimeCycles;
        e.normRuntime = norm;
        e.energyMj = r.energyMj;
        e.nvmDataAccesses = r.nvmDataAccesses;
        e.nvmRedAccesses = r.nvmRedAccesses;
        e.cacheAccesses = r.cacheAccesses;
        entries.push_back(std::move(e));
    };
    for (std::size_t i = 0; i < workloads.size(); i++) {
        const RunResult &base = results[i * stride];
        record(workloads[i].name, "baseline", base, 1.0);
        std::vector<double> redRow, diffRow;
        for (std::size_t k = 0; k < ways.size(); k++) {
            const RunResult &r = results[i * stride + 1 + k];
            double norm = static_cast<double>(r.runtimeCycles) /
                static_cast<double>(base.runtimeCycles);
            redRow.push_back(norm);
            record(workloads[i].name,
                   "red-ways-" + std::to_string(ways[k]), r, norm);
        }
        for (std::size_t k = 0; k < ways.size(); k++) {
            const RunResult &r =
                results[i * stride + 1 + ways.size() + k];
            double norm = static_cast<double>(r.runtimeCycles) /
                static_cast<double>(base.runtimeCycles);
            diffRow.push_back(norm);
            record(workloads[i].name,
                   "diff-ways-" + std::to_string(ways[k]), r, norm);
        }
        row_names.emplace_back(workloads[i].name);
        redTable.push_back(redRow);
        diffTable.push_back(diffRow);
    }

    printSweep(
        "Figure 10(a): redundancy-cache ways (runtime / Baseline)",
        "fig10a", ways, row_names, redTable);
    printSweep("Figure 10(b): data-diff ways (runtime / Baseline)",
               "fig10b", ways, row_names, diffTable);
    writeBenchJson(args, entries);
    return 0;
}
