/**
 * @file
 * tvarak-lint CLI.
 *
 *   tvarak-lint [--root DIR] [--sarif FILE] [--baseline FILE]
 *               [--jobs N] [paths...]
 *       Scan DIR (default: cwd) — paths are root-relative directories
 *       or files, default {src, tests, bench, tools, examples}.
 *       Prints one `file:line: [R#] message` per non-baselined
 *       finding; --sarif also writes a SARIF 2.1.0 document (byte-
 *       deterministic; baselined findings carry an external
 *       suppression). --baseline defaults to DIR/.lint-baseline when
 *       that file exists.
 *
 *   tvarak-lint --self-test DIR
 *       DIR must hold `goodroot/` (expected clean) and `badroot/`
 *       (expected to trip every rule in kRules). Exit 0 iff both
 *       hold.
 *
 * Exit codes: 0 clean (all findings baselined), 1 findings, 2 usage
 * or I/O error.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "lint.hh"
#include "sarif.hh"

namespace fs = std::filesystem;
using namespace tvarak::lint;

namespace {

int
selfTest(const fs::path &dir)
{
    if (!fs::is_directory(dir / "goodroot") ||
        !fs::is_directory(dir / "badroot")) {
        std::fprintf(stderr,
                     "self-test: %s must contain goodroot/ and badroot/\n",
                     dir.string().c_str());
        return 2;
    }

    int failures = 0;

    Options good{dir / "goodroot", {}};
    for (const Finding &f : run(good)) {
        std::fprintf(stderr, "self-test: goodroot not clean: %s\n",
                     f.str().c_str());
        failures++;
    }

    Options bad{dir / "badroot", {}};
    std::set<std::string> hit;
    for (const Finding &f : run(bad))
        hit.insert(f.rule);
    for (const RuleInfo &rule : kRules) {
        if (!hit.count(rule.id)) {
            std::fprintf(stderr,
                         "self-test: badroot did not trip %s\n", rule.id);
            failures++;
        }
    }

    if (failures == 0) {
        std::printf("tvarak-lint self-test: OK "
                    "(goodroot clean, badroot trips all %zu rules)\n",
                    std::size(kRules));
        return 0;
    }
    return 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    const tvarak::cli::Args a(
        {"tvarak-lint", "",
         {{"", "[paths...]", -1,
           {{"--root", "DIR", "tree to scan (default: the working directory)"},
            {"--sarif", "FILE", "also write a SARIF 2.1.0 report"},
            {"--baseline", "FILE",
             "findings to suppress (default: DIR/.lint-baseline)"},
            {"--jobs", "N", "scan threads (default: hardware concurrency)"},
            {"--self-test", "DIR",
             "check DIR/goodroot is clean and DIR/badroot trips every "
             "rule"}}}}},
        argc, argv);
    if (a.has("--self-test"))
        return selfTest(a.value("--self-test"));
    Options opts;
    opts.root = a.value("--root", fs::current_path().string());
    opts.paths = a.positional;
    opts.jobs = a.number("--jobs", 0, 0, SIZE_MAX);
    std::string sarifPath = a.value("--sarif");
    std::string baselinePath = a.value("--baseline");

    if (!fs::is_directory(opts.root)) {
        std::fprintf(stderr, "tvarak-lint: no such directory: %s\n",
                     opts.root.string().c_str());
        return 2;
    }
    if (baselinePath.empty() &&
        fs::is_regular_file(opts.root / ".lint-baseline"))
        baselinePath = (opts.root / ".lint-baseline").string();

    try {
        std::set<std::string> baseline;
        if (!baselinePath.empty())
            baseline = loadBaseline(baselinePath);

        std::vector<Finding> findings = run(opts);

        if (!sarifPath.empty()) {
            std::ofstream os(sarifPath);
            if (!os)
                throw std::runtime_error("cannot write SARIF file: " +
                                         sarifPath);
            os << toSarif(findings, baseline);
        }

        std::size_t fresh = 0, suppressed = 0;
        std::set<std::string> matched;
        for (const Finding &f : findings) {
            if (baseline.count(baselineKey(f))) {
                matched.insert(baselineKey(f));
                suppressed++;
                continue;
            }
            fresh++;
            std::printf("%s\n", f.str().c_str());
        }
        for (const std::string &entry : baseline)
            if (!matched.count(entry))
                std::fprintf(stderr,
                             "tvarak-lint: stale baseline entry "
                             "(no matching finding): %s\n",
                             entry.c_str());

        if (fresh > 0) {
            std::fprintf(stderr,
                         "tvarak-lint: %zu finding(s), %zu baselined\n",
                         fresh, suppressed);
            return 1;
        }
        if (suppressed > 0)
            std::fprintf(stderr, "tvarak-lint: clean (%zu baselined)\n",
                         suppressed);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tvarak-lint: %s\n", e.what());
        return 2;
    }
}
