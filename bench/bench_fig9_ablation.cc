/**
 * @file
 * Figure 9: impact of TVARAK's design choices. Starting from the
 * naive redundancy controller (page-granular checksums recomputed by
 * reading whole pages, no redundancy caching, old-data reads instead
 * of diffs), the optimizations are enabled cumulatively:
 *
 *   naive -> +DAX-CL-checksums -> +redundancy caching -> +data diffs
 *
 * The last configuration is full TVARAK; the one before it (diffs
 * off) is also the recommended configuration for exclusive-LLC
 * systems (paper Section IV-G).
 *
 * Expected shape: every step helps Redis, C-Tree and stream-triad;
 * redundancy caching and data diffs *hurt* N-Store and fio random
 * writes (taking LLC space from application data buys nothing when
 * redundancy lines have no reuse).
 */

#include "bench_workloads.hh"

using namespace tvarak;
using namespace tvarak::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Fig 9: TVARAK design-choice ablation",
        "fig9_ablation");
    rejectDesignFlag(args);

    // The cumulative ablation points are registered design variants
    // (each one's coverage sets its rungs); the classic Fig-9 column
    // labels stay as output labels.
    struct Config {
        const char *name;
        const Design *design;
    };
    const std::vector<Config> configs = {
        {"naive", findDesign("tvarak-naive")},
        {"+dax-cl-csums", findDesign("tvarak-no-red-cache")},
        {"+red-caching", findDesign("tvarak-no-diffs")},
        {"+data-diffs (TVARAK)", findDesign("tvarak")},
    };

    // One batch: per workload, the baseline plus every cumulative
    // configuration. Stride through the flat result array below.
    const auto workloads = fig9Workloads(args.scale);
    std::vector<ExperimentJob> batch;
    for (auto &w : workloads) {
        SimConfig cfg = evalConfig();
        cfg.nvm.dimmBytes = w.dimmBytes;
        batch.push_back({std::string(w.name) + " baseline", cfg,
                         &designOf(DesignKind::Baseline), w.factory});
        for (const Config &c : configs) {
            batch.push_back({std::string(w.name) + " " + c.name, cfg,
                             c.design, w.factory});
        }
    }
    std::vector<RunResult> results = runExperiments(batch, args.jobs);

    std::vector<std::string> row_names;
    std::vector<std::vector<double>> table;
    std::vector<BenchJsonEntry> entries;
    const std::size_t stride = 1 + configs.size();
    for (std::size_t i = 0; i < workloads.size(); i++) {
        const RunResult &base = results[i * stride];
        BenchJsonEntry be;
        be.workload = workloads[i].name;
        be.design = "baseline";
        be.runtimeCycles = base.runtimeCycles;
        be.normRuntime = 1.0;
        be.energyMj = base.energyMj;
        be.nvmDataAccesses = base.nvmDataAccesses;
        be.nvmRedAccesses = base.nvmRedAccesses;
        be.cacheAccesses = base.cacheAccesses;
        entries.push_back(be);

        std::vector<double> row;
        for (std::size_t c = 0; c < configs.size(); c++) {
            const RunResult &r = results[i * stride + 1 + c];
            double norm = static_cast<double>(r.runtimeCycles) /
                static_cast<double>(base.runtimeCycles);
            row.push_back(norm);
            BenchJsonEntry e;
            e.workload = workloads[i].name;
            e.design = configs[c].name;
            e.runtimeCycles = r.runtimeCycles;
            e.normRuntime = norm;
            e.energyMj = r.energyMj;
            e.nvmDataAccesses = r.nvmDataAccesses;
            e.nvmRedAccesses = r.nvmRedAccesses;
            e.cacheAccesses = r.cacheAccesses;
            entries.push_back(e);
        }
        row_names.emplace_back(workloads[i].name);
        table.push_back(row);
    }

    std::vector<std::string> columns;
    for (const Config &c : configs)
        columns.emplace_back(c.name);
    printRuntimeTable(
        "Figure 9: design ablation (runtime / Baseline)", columns,
        row_names, table);

    std::printf("\ncsv,fig9,workload");
    for (const Config &c : configs)
        std::printf(",%s", c.name);
    std::printf("\n");
    for (std::size_t i = 0; i < row_names.size(); i++) {
        std::printf("csv,fig9,%s", row_names[i].c_str());
        for (double v : table[i])
            std::printf(",%.4f", v);
        std::printf("\n");
    }
    writeBenchJson(args, entries);
    return 0;
}
