/**
 * @file
 * tvarak-lint: project-specific static analysis for the simulator.
 *
 * The engine walks a source tree and enforces rules that generic
 * tooling cannot know about — the same class of silent-corruption
 * hazards TVARAK itself exists to catch:
 *
 *   R1  No naked 64/4096/8-style geometry literals in address math;
 *       use kLineBytes / kPageBytes / kChecksumBytes /
 *       kChecksumsPerLine from sim/types.hh.
 *   R3  Every config field in src/sim/config.hh appears in the
 *       bench_table3 parameter dump and in DESIGN.md §6
 *       (config-docs drift check).
 *   R4  Header hygiene: every .hh starts with `#pragma once` (or a
 *       classic include guard) and has no `using namespace` at
 *       header scope.
 *   R5  Latency/energy constants live in sim/config.hh, never inline
 *       in mem/, nvm/, or core/.
 *   R6  Raw threading primitives (std::thread, std::jthread,
 *       std::mutex, locks, futures and their headers) are confined to
 *       src/harness/ — the simulator core is single-threaded by
 *       construction; parallelism goes through harness/parallel.hh.
 *   R7  Binary file I/O (fopen in a binary mode, std::ofstream /
 *       std::ifstream / std::fstream with std::ios::binary) is
 *       confined to src/trace/, src/harness/ and tools/ — every
 *       on-disk format has exactly one owner.
 *   R8  DesignKind enumerator dispatch (`DesignKind::...` switches and
 *       comparisons) in src/ is confined to src/redundancy/registry.* —
 *       everything else resolves behaviour through the Design registry
 *       (designOf / findDesign) and the Design's coverage and hooks.
 *   R14 SIMD intrinsics — <immintrin.h>-family includes, _mm_* /
 *       _mm256_* / _mm512_* calls and the __m128/__m256/__m512 vector
 *       types — are confined to src/kernels/: the data-plane kernel
 *       layer is the single owner of vector code, everything else goes
 *       through kernels::ops() so backends stay swappable and
 *       bit-identity is provable in one place.
 *
 * On top of the per-file rules, the repo-model pass (tvarak-analyze)
 * builds the `#include` graph and symbol/use tables and checks:
 *
 *   R9  Architecture layering: include edges follow the dependency
 *       DAG in DESIGN.md section 11 (no upward edges, no include
 *       cycles).
 *   R10 Determinism hazards (rand(), std::random_device, wall-clock
 *       reads, unordered-container iteration, pointer-keyed maps) on
 *       any path that feeds Stats, trace output or campaign JSON.
 *   R11 Stats dataflow: every row of the Stats counter table
 *       (src/sim/stats.hh) is referenced somewhere in src/ outside
 *       sim/stats.*; an unreferenced counter can only ever print 0.
 *   R12 Config-knob drift: SimConfig fields never read (or set but
 *       never read) by the simulator.
 *   R13 Lock discipline: naked lock()/unlock() in src/harness/.
 *
 * Rule ids are stable: R2 (the stats-key registry) is retired, and
 * its id is not reused.
 *
 * A finding on line N is suppressed by `// lint:allow(R#)` (comma
 * lists allowed) on line N or on the line directly above it.
 */

#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace tvarak::lint {

/** One rule: its id and a one-line summary. */
struct RuleInfo {
    const char *id;
    const char *summary;
};

/** Every rule the analyzer runs, in SARIF ruleIndex order. The SARIF
 *  rules array and the --self-test coverage check both read it. */
inline constexpr RuleInfo kRules[] = {
    {"R1", "No naked geometry literals in address math"},
    {"R3", "Config fields documented in bench_table3 and DESIGN.md"},
    {"R4", "Header hygiene: guards, no using namespace at header scope"},
    {"R5", "Timing/energy constants live in sim/config.hh"},
    {"R6", "Raw threading confined to src/harness/"},
    {"R7", "Binary file I/O confined to trace/harness/tools"},
    {"R8", "DesignKind dispatch confined to the design registry"},
    {"R9", "Include edges follow the architecture layering DAG"},
    {"R10", "No nondeterminism on stats/report-feeding paths"},
    {"R11", "Stats counter table rows referenced outside sim/stats.*"},
    {"R12", "Config knobs read by the simulator, not just declared"},
    {"R13", "No naked lock()/unlock() in the harness"},
    {"R14", "SIMD intrinsics confined to src/kernels/"},
};

/** One rule violation. */
struct Finding {
    std::string file;    //!< path as reported (relative to root)
    std::size_t line;    //!< 1-based
    std::string rule;    //!< "R1".."R14"
    std::string message;

    /** `file:line: [R#] message` */
    std::string str() const;
};

struct Options {
    /** Repo root; the R3/R11 artifacts (src/sim/config.hh,
     *  bench/bench_table3.cc, DESIGN.md, src/sim/stats.hh) are
     *  located relative to it. */
    std::filesystem::path root;
    /** Directories (or files), relative to root, to scan.
     *  Empty = {"src", "tests", "bench", "tools", "examples"}
     *  (missing defaults are skipped; explicitly named paths must
     *  exist). */
    std::vector<std::string> paths;
    /** Worker threads for the file scan (0 = one per core). The scan
     *  is deterministic regardless: results land in per-file slots. */
    std::size_t jobs = 0;
};

/**
 * Run every rule; findings come back sorted by (file, line, rule).
 * Throws std::runtime_error on I/O errors (unreadable file, explicit
 * path that does not exist) — the CLI maps that to exit code 2.
 */
std::vector<Finding> run(const Options &opts);

/** @name Exposed for the self-test / unit tests. */
/**@{*/

/** Per-line view of one source file with literals/comments separated. */
struct SourceFile {
    std::string path;                      //!< as reported in findings
    std::vector<std::string> raw;          //!< original lines
    std::vector<std::string> code;         //!< comments+literals blanked
    struct StringLit {
        std::size_t line;                  //!< 1-based
        std::string value;
    };
    std::vector<StringLit> strings;        //!< string literal contents

    /** True iff @p rule is suppressed on 1-based line @p line. */
    bool allows(const std::string &rule, std::size_t line) const;
};

/** Load and pre-lex @p file; @p reportPath is used in findings. */
SourceFile lexFile(const std::filesystem::path &file,
                   const std::string &reportPath);

/** Pre-lex in-memory text (fixture-free unit tests). */
SourceFile lexText(const std::string &text, const std::string &reportPath);

/** Data-member names of every struct in a config header, with the
 *  1-based line each was declared on. */
struct ConfigField {
    std::string structName;
    std::string name;
    std::size_t line;
};
std::vector<ConfigField> parseConfigFields(const SourceFile &f);

/**@}*/

}  // namespace tvarak::lint
