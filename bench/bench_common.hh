/**
 * @file
 * Shared plumbing for the figure benches: the evaluation machine
 * configuration (Table III scaled to tractable workload sizes),
 * command-line handling, design-sweep helpers built on the parallel
 * experiment engine, and machine-readable JSON result emission.
 *
 * Every bench accepts:
 *
 *   --scale N   multiply the workload size (default 1), so tables can
 *               be regenerated at larger fixed-work sizes.
 *   --jobs N    worker threads for the experiment fan-out (default:
 *               hardware concurrency). Results are bit-identical for
 *               every N; only wall-clock changes.
 *   --json      also write results/bench_<name>.json with the
 *               per-design numbers and the wall time of the sweep.
 *   --design NAME
 *               sweep only the named registered design (repeatable;
 *               e.g. --design vilamb). Baseline is added
 *               automatically as the normalization reference.
 *               Default: the four paper designs. Benches with a
 *               fixed design set reject it (rejectDesignFlag()).
 *
 * Every design runs directly; recording a trace once and replaying
 * it per design is tvarak-trace's job. There is no kernel-backend
 * flag: src/kernels/ picks AVX2 or scalar once by CPUID, and
 * simulated results do not depend on the choice.
 *
 * Unknown flags and malformed values are usage errors (exit 2) — a
 * typo must never silently run the wrong experiment.
 */

#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"

namespace tvarak::bench {

/** Table III machine; NVM DIMM capacity sized for the bench suite. */
SimConfig evalConfig();

/** Parsed common command line (see file header for the flags). */
struct BenchArgs {
    std::size_t scale = 1;
    /** Worker threads; 0 = defaultJobs() (hardware concurrency). */
    std::size_t jobs = 0;
    bool json = false;
    /** Designs selected via repeatable --design flags (Baseline is
     *  auto-prepended); empty = the four paper designs. */
    std::vector<const Design *> designs;
    /** results/bench_<name>.json target (set by parseBenchArgs). */
    std::string benchName;
    /** Start of the run, for the wall-time field of the JSON dump. */
    std::chrono::steady_clock::time_point start;
};

/**
 * Parse `--scale N`, `--jobs N`, `--json` and `--help`. @p what is
 * the one-line description printed by --help; @p benchName names the
 * JSON output file. Rejects unknown arguments and malformed or
 * out-of-range values with a usage message and exit(2).
 */
BenchArgs parseBenchArgs(int argc, char **argv, const char *what,
                         const char *benchName);

/**
 * A bench-specific flag handled inside parseBenchArgs, so extended
 * benches keep the common strictness (unknown flags and malformed
 * values exit 2) without reimplementing the parser.
 */
struct ExtraFlag {
    const char *flag;       //!< e.g. "--servers"
    /** Placeholder in help/usage (e.g. "N"); null = boolean switch. */
    const char *valueName = nullptr;
    const char *help = "";  //!< one help line (without the flag)
    /** Called with the parsed value ("" for switches). Use the
     *  parse*Value helpers below to reject malformed values. */
    std::function<void(const std::string &value)> apply;
};

/** Extension knobs for parseBenchArgs. */
struct BenchArgsSpec {
    const char *what = "";
    const char *benchName = "";
    /** Reject two --design selections sharing a DesignKind. Figure
     *  benches need this (rows are keyed by kind); benches keyed by
     *  registry name (bench_service) turn it off so the Fig-9 tvarak
     *  variants can be swept together. */
    bool uniqueDesignKinds = true;
    std::vector<ExtraFlag> extras;
};

/** parseBenchArgs with bench-specific extra flags. */
BenchArgs parseBenchArgs(int argc, char **argv,
                         const BenchArgsSpec &spec);

/** @name Strict value parsers for ExtraFlag::apply
 *  Malformed values print a usage message and exit(2), matching the
 *  common flags' behaviour. */
/**@{*/
/** Positive integer (zero and garbage rejected). */
std::size_t parseCountValue(const char *flag, const std::string &value);
/** Positive finite double. */
double parseFracValue(const char *flag, const std::string &value);
/** Print "<prog>: <msg>" + usage and exit(2). */
[[noreturn]] void benchUsageError(const std::string &msg);
/**@}*/

/** For benches that run a fixed design set: exit(2) if --design was
 *  given, rather than silently run designs the user did not ask for. */
void rejectDesignFlag(const BenchArgs &args);

/** One workload of a figure: a label, the machine it runs on, and its
 *  factory. sweepRows() fans specs x designs in a single batch. */
struct WorkloadSpec {
    std::string name;
    SimConfig cfg;
    WorkloadFactory make;
};

/** Run every spec under @p args.designs (the four paper designs if
 *  --design was not given) in one parallel batch of args.jobs
 *  workers; one FigureRow per spec, in spec order. */
std::vector<FigureRow> sweepRows(const std::vector<WorkloadSpec> &specs,
                                 const BenchArgs &args);

/** One record of the machine-readable result dump. */
struct BenchJsonEntry {
    std::string workload;
    std::string design;   //!< design or config label ("+red-caching")
    std::uint64_t runtimeCycles = 0;
    double normRuntime = 0;    //!< runtime / Baseline runtime
    double energyMj = 0;
    std::uint64_t nvmDataAccesses = 0;
    std::uint64_t nvmRedAccesses = 0;
    std::uint64_t cacheAccesses = 0;
};

/** Flatten figure rows into JSON entries (norm against Baseline). */
std::vector<BenchJsonEntry>
jsonEntries(const std::vector<FigureRow> &rows);

/**
 * If @p args.json is set, write results/bench_<benchName>.json with
 * @p entries plus the sweep metadata (scale, jobs, wall seconds since
 * args.start). No-op otherwise.
 */
void writeBenchJson(const BenchArgs &args,
                    const std::vector<BenchJsonEntry> &entries);

}  // namespace tvarak::bench
