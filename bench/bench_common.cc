#include "bench_common.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/json.hh"

namespace tvarak::bench {

SimConfig
evalConfig()
{
    SimConfig cfg;  // Table III defaults
    cfg.nvm.dimmBytes = 96ull << 20;  // 4 x 96 MB: fits every bench
    cfg.dram.sizeBytes = 128ull << 20;
    return cfg;
}

BenchArgs
parseBenchArgs(int argc, char **argv, const char *what,
               const char *benchName, std::vector<cli::Flag> extra)
{
    std::vector<cli::Flag> rows = {
        {"--scale", "N", "workload size multiplier (default 1)"},
        {"--jobs", "N",
         "experiment worker threads (default: hardware concurrency)"},
        {"--json", nullptr,
         std::string("also write results/bench_") + benchName + ".json"},
        {"--design", "NAME",
         "sweep only this design (repeatable; registered: " +
             registeredNameList() + ")",
         true},
    };
    rows.insert(rows.end(), extra.begin(), extra.end());
    cli::Tool tool{std::string("bench_") + benchName, what,
                   {{"", "", 0, rows}}};
    cli::Args a(tool, argc, argv);
    std::vector<const Design *> designs;
    for (const std::string &name : a.values("--design")) {
        const Design &d = a.design(name);
        for (const Design *prev : designs) {
            if (prev == &d)
                a.fail("design '" + d.cliName() + "' selected twice");
        }
        designs.push_back(&d);
    }
    if (!designs.empty()) {
        // Baseline is the normalization reference of every report.
        bool haveBaseline = false;
        for (const Design *d : designs)
            haveBaseline =
                haveBaseline || d->kind() == DesignKind::Baseline;
        if (!haveBaseline)
            designs.insert(designs.begin(), &designOf(DesignKind::Baseline));
    }
    return {.cmdline = a,
            .scale = a.number("--scale", 1),
            .jobs = a.number("--jobs", 0),
            .json = a.has("--json"),
            .designs = designs,
            .benchName = benchName,
            .start = std::chrono::steady_clock::now()};
}

void
rejectDesignFlag(const BenchArgs &args)
{
    if (!args.designs.empty())
        args.cmdline.fail("--design: this bench runs a fixed design set");
}

std::vector<FigureRow>
sweepRows(const std::vector<WorkloadSpec> &specs, const BenchArgs &args)
{
    const std::vector<const Design *> designs =
        args.designs.empty() ? paperDesigns() : args.designs;
    for (std::size_t i = 0; i < designs.size(); i++) {
        for (std::size_t j = 0; j < i; j++) {
            // Two designs sharing a kind (e.g. tvarak variants) would
            // silently overwrite each other's column.
            if (designs[j]->kind() == designs[i]->kind()) {
                args.cmdline.fail("design '" + designs[i]->cliName() +
                                  "' duplicates '" +
                                  designs[j]->cliName() +
                                  "' (same result column)");
            }
        }
    }
    std::vector<ExperimentJob> batch;
    batch.reserve(specs.size() * designs.size());
    for (const WorkloadSpec &spec : specs) {
        for (const Design *d : designs)
            batch.push_back({spec.name, spec.cfg, d, spec.make});
    }

    std::vector<RunResult> results = runExperiments(batch, args.jobs);

    std::vector<FigureRow> rows(specs.size());
    std::size_t k = 0;
    for (std::size_t s = 0; s < specs.size(); s++) {
        rows[s].workload = specs[s].name;
        for (const Design *d : designs)
            rows[s].results[d->kind()] = results[k++];
    }
    return rows;
}

std::vector<BenchJsonEntry>
jsonEntries(const std::vector<FigureRow> &rows)
{
    std::vector<BenchJsonEntry> entries;
    for (const FigureRow &row : rows) {
        for (const auto &[design, res] : row.results) {
            BenchJsonEntry e;
            e.workload = row.workload;
            e.design = designName(design);
            e.runtimeCycles = res.runtimeCycles;
            e.normRuntime = normRuntime(row, design);
            e.energyMj = res.energyMj;
            e.nvmDataAccesses = res.nvmDataAccesses;
            e.nvmRedAccesses = res.nvmRedAccesses;
            e.cacheAccesses = res.cacheAccesses;
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

void
writeBenchJson(const BenchArgs &args,
               const std::vector<BenchJsonEntry> &entries)
{
    if (!args.json)
        return;

    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - args.start).count();

    std::filesystem::create_directories("results");
    std::string path = "results/bench_" + args.benchName + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }

    std::size_t jobs = args.jobs == 0 ? defaultJobs() : args.jobs;
    out << "{\n"
        << "  \"bench\": \"" << jsonEscape(args.benchName) << "\",\n"
        << "  \"scale\": " << args.scale << ",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"wall_seconds\": " << wall << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < entries.size(); i++) {
        const BenchJsonEntry &e = entries[i];
        out << "    {\"workload\": \"" << jsonEscape(e.workload)
            << "\", \"design\": \"" << jsonEscape(e.design)
            << "\", \"runtime_cycles\": " << e.runtimeCycles
            << ", \"norm_runtime\": " << e.normRuntime
            << ", \"energy_mj\": " << e.energyMj
            << ", \"nvm_data_accesses\": " << e.nvmDataAccesses
            << ", \"nvm_red_accesses\": " << e.nvmRedAccesses
            << ", \"cache_accesses\": " << e.cacheAccesses << "}"
            << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

}  // namespace tvarak::bench
