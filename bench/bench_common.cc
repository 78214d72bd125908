#include "bench_common.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

namespace {

/** Prog name + extra-flag usage of the parse in progress, so the
 *  exported parse*Value helpers (called from ExtraFlag::apply during
 *  parseBenchArgs) can print a full usage message. */
std::string gProg = "bench";
std::string gExtraUsage;

[[noreturn]] void
usageError(const char *prog, const char *msg, const char *arg)
{
    std::fprintf(stderr, "%s: %s%s%s\n", prog, msg, arg ? ": " : "",
                 arg ? arg : "");
    std::fprintf(stderr,
                 "usage: %s [--scale N] [--jobs N] [--json]"
                 " [--design NAME]...%s\n",
                 prog, gExtraUsage.c_str());
    std::exit(2);
}

/** True if argv[i] is `--flag` or `--flag=value`. */
bool
matchesFlag(const char *arg, const char *flag)
{
    std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 &&
        (arg[n] == '\0' || arg[n] == '=');
}

/** The value of `--flag=value` or `--flag value`; advances @p i in
 *  the space-separated form. Empty values are usage errors. */
std::string
flagValue(const char *prog, const char *flag, int argc, char **argv,
          int &i)
{
    const char *arg = argv[i];
    std::size_t n = std::strlen(flag);
    std::string value;
    if (arg[n] == '=') {
        value = arg + n + 1;
    } else {
        if (i + 1 >= argc) {
            std::string msg = std::string(flag) + " needs a value";
            usageError(prog, msg.c_str(), nullptr);
        }
        value = argv[++i];
    }
    if (value.empty()) {
        std::string msg = std::string("empty value for ") + flag;
        usageError(prog, msg.c_str(), nullptr);
    }
    return value;
}

/** Strict decimal parse of a flag value: the whole string must be a
 *  number, and zero / negative / overflow are rejected. */
std::size_t
parseCount(const char *prog, const char *flag, const char *value)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' || errno == ERANGE ||
        v == 0) {
        std::string msg = std::string("invalid value for ") + flag;
        usageError(prog, msg.c_str(), value);
    }
    return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t
parseCountValue(const char *flag, const std::string &value)
{
    return parseCount(gProg.c_str(), flag, value.c_str());
}

double
parseFracValue(const char *flag, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v != v || v > 1e18) {
        std::string msg = std::string("invalid value for ") + flag;
        usageError(gProg.c_str(), msg.c_str(), value.c_str());
    }
    return v;
}

void
benchUsageError(const std::string &msg)
{
    usageError(gProg.c_str(), msg.c_str(), nullptr);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const char *what,
               const char *benchName)
{
    BenchArgsSpec spec;
    spec.what = what;
    spec.benchName = benchName;
    return parseBenchArgs(argc, argv, spec);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const BenchArgsSpec &spec)
{
    gProg = argv[0];
    gExtraUsage.clear();
    for (const ExtraFlag &x : spec.extras) {
        gExtraUsage += std::string(" [") + x.flag;
        if (x.valueName != nullptr)
            gExtraUsage += std::string(" ") + x.valueName;
        gExtraUsage += "]";
    }
    const char *what = spec.what;
    const char *benchName = spec.benchName;

    BenchArgs args;
    args.benchName = benchName;
    args.start = std::chrono::steady_clock::now();
    for (int i = 1; i < argc; i++) {
        const ExtraFlag *extra = nullptr;
        for (const ExtraFlag &x : spec.extras) {
            bool match = x.valueName != nullptr
                ? matchesFlag(argv[i], x.flag)
                : std::strcmp(argv[i], x.flag) == 0;
            if (match) {
                extra = &x;
                break;
            }
        }
        if (extra != nullptr) {
            std::string value;
            if (extra->valueName != nullptr)
                value = flagValue(argv[0], extra->flag, argc, argv, i);
            extra->apply(value);
            continue;
        }
        if (std::strcmp(argv[i], "--scale") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--scale needs a value", nullptr);
            args.scale = parseCount(argv[0], "--scale", argv[++i]);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--jobs needs a value", nullptr);
            args.jobs = parseCount(argv[0], "--jobs", argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            args.json = true;
        } else if (matchesFlag(argv[i], "--design")) {
            std::string name =
                flagValue(argv[0], "--design", argc, argv, i);
            const Design *d = findDesign(name);
            if (d == nullptr) {
                std::string msg = "unknown design '" + name +
                    "' (registered: " + registeredNameList() + ")";
                usageError(argv[0], msg.c_str(), nullptr);
            }
            for (const Design *prev : args.designs) {
                if (prev == d) {
                    std::string msg = std::string("design '") +
                        d->cliName() + "' selected twice";
                    usageError(argv[0], msg.c_str(), nullptr);
                }
                if (spec.uniqueDesignKinds && prev->kind() == d->kind()) {
                    // Figure rows are keyed by DesignKind, so two
                    // designs sharing one (e.g. tvarak variants) would
                    // silently overwrite each other's column.
                    std::string msg = std::string("design '") +
                        d->cliName() + "' duplicates '" +
                        prev->cliName() + "' (same result column)";
                    usageError(argv[0], msg.c_str(), nullptr);
                }
            }
            args.designs.push_back(d);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("%s\nusage: %s [--scale N] [--jobs N] [--json]"
                        " [--design NAME]...%s\n"
                        "  --scale N  workload size multiplier "
                        "(default 1)\n"
                        "  --jobs N   experiment worker threads "
                        "(default: hardware concurrency)\n"
                        "  --json     write results/bench_%s.json\n"
                        "  --design NAME  sweep only the named design "
                        "(repeatable; registered: %s)\n",
                        what, argv[0], gExtraUsage.c_str(), benchName,
                        registeredNameList().c_str());
            for (const ExtraFlag &x : spec.extras) {
                std::string head = x.flag;
                if (x.valueName != nullptr)
                    head += std::string(" ") + x.valueName;
                std::printf("  %-14s %s\n", head.c_str(), x.help);
            }
            std::exit(0);
        } else {
            usageError(argv[0], "unknown argument", argv[i]);
        }
    }
    if (!args.designs.empty()) {
        // Baseline is the normalization reference of every report.
        bool haveBaseline = false;
        for (const Design *d : args.designs)
            haveBaseline =
                haveBaseline || d->kind() == DesignKind::Baseline;
        if (!haveBaseline) {
            args.designs.insert(args.designs.begin(),
                                &designOf(DesignKind::Baseline));
        }
    }
    return args;
}

void
rejectDesignFlag(const BenchArgs &args)
{
    if (!args.designs.empty())
        benchUsageError("--design: this bench runs a fixed design set");
}

std::vector<FigureRow>
sweepRows(const std::vector<WorkloadSpec> &specs, const BenchArgs &args)
{
    const std::vector<const Design *> designs =
        args.designs.empty() ? paperDesigns() : args.designs;
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
