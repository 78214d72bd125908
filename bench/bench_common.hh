/**
 * @file
 * Shared plumbing for the figure benches: the evaluation machine
 * configuration (Table III scaled to tractable workload sizes), the
 * bench command line, design-sweep helpers built on the parallel
 * experiment engine, and machine-readable JSON result emission.
 *
 * Every bench parses its command line with src/harness/cli.hh (so
 * `--flag v` and `--flag=v`, exit 2 on a usage error, `--help`),
 * against these rows plus its own:
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
 */

#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "harness/cli.hh"
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
    /** The whole parsed command line: a bench's own rows are read
     *  from it, and its fail() is the usage-error exit. */
    cli::Args cmdline;
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
 * Parse the common rows plus @p extra (a bench's own) as the command
 * line of bench_<@p benchName>; @p what heads its usage. Exits 0 on
 * --help and 2 on a usage error.
 */
BenchArgs parseBenchArgs(int argc, char **argv, const char *what,
                         const char *benchName,
                         std::vector<cli::Flag> extra = {});

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
 *  workers; one FigureRow per spec, in spec order. Rows are keyed by
 *  DesignKind, so two selected designs of one kind are a usage
 *  error. */
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
