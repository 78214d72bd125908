/**
 * @file
 * tvarak-lint rule-engine tests: lexer behaviour, config-field
 * extraction, exact rule hits over the seeded fixture trees
 * (tests/lint_fixtures/), suppression handling, and the requirement
 * that the repo itself stays lint-clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"
#include "repo_model.hh"
#include "sarif.hh"

namespace tvarak::lint {
namespace {

std::vector<Finding>
runOn(const std::string &root)
{
    Options opts;
    opts.root = root;
    return run(opts);
}

std::map<std::string, int>
countByRule(const std::vector<Finding> &findings)
{
    std::map<std::string, int> n;
    for (const Finding &f : findings)
        n[f.rule]++;
    return n;
}

bool
hasFinding(const std::vector<Finding> &findings, const std::string &file,
           std::size_t line, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) {
                           return f.file == file && f.line == line &&
                               f.rule == rule;
                       });
}

// ------------------------------------------------------------- lexer

TEST(LintLexer, StripsCommentsButKeepsLineStructure)
{
    SourceFile f = lexText("int a; // trailing 64\n"
                           "/* block\n"
                           "   spanning */ int b;\n",
                           "t.cc");
    ASSERT_EQ(f.code.size(), 3u);
    EXPECT_EQ(f.code[0].substr(0, 6), "int a;");
    EXPECT_EQ(f.code[0].find("64"), std::string::npos);
    EXPECT_EQ(f.code[1].find("block"), std::string::npos);
    EXPECT_NE(f.code[2].find("int b;"), std::string::npos);
}

TEST(LintLexer, ExtractsStringLiteralsWithLineNumbers)
{
    SourceFile f = lexText("const char *a = \"cache.l1.misses\";\n"
                           "const char *b = \"plain\";\n",
                           "t.cc");
    ASSERT_EQ(f.strings.size(), 2u);
    EXPECT_EQ(f.strings[0].line, 1u);
    EXPECT_EQ(f.strings[0].value, "cache.l1.misses");
    EXPECT_EQ(f.strings[1].value, "plain");
    // Literal contents must not leak into the code view.
    EXPECT_EQ(f.code[0].find("misses"), std::string::npos);
}

TEST(LintLexer, CharLiteralsAndDigitSeparators)
{
    SourceFile f = lexText("char c = '\"'; int n = 1'000'000;\n", "t.cc");
    EXPECT_TRUE(f.strings.empty()) << "quote inside char literal";
    EXPECT_NE(f.code[0].find("1'000'000"), std::string::npos);
}

TEST(LintLexer, SuppressionAppliesToSameAndNextLine)
{
    SourceFile f = lexText("// lint:allow(R1, R4)\n"
                           "int a;\n"
                           "int b;\n",
                           "t.cc");
    EXPECT_TRUE(f.allows("R1", 1));
    EXPECT_TRUE(f.allows("R4", 2));
    EXPECT_TRUE(f.allows("R1", 2));
    EXPECT_FALSE(f.allows("R3", 2));
    EXPECT_FALSE(f.allows("R1", 3));
}

// ------------------------------------------------- config-field parse

TEST(LintConfig, ParsesMembersSkipsFunctionsAndEnums)
{
    SourceFile f = lexText(
        "enum class Kind { A, B };\n"
        "struct Inner {\n"
        "    std::size_t sizeBytes;\n"
        "    double factor = 0.25;\n"
        "    Thing braceInit{1, 2, 3};\n"
        "    Cycles toCycles(double ns) const\n"
        "    {\n"
        "        return static_cast<Cycles>(ns);\n"
        "    }\n"
        "    void validate() const;\n"
        "};\n",
        "config.hh");
    std::vector<ConfigField> fields = parseConfigFields(f);
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0].structName, "Inner");
    EXPECT_EQ(fields[0].name, "sizeBytes");
    EXPECT_EQ(fields[0].line, 3u);
    EXPECT_EQ(fields[1].name, "factor");
    EXPECT_EQ(fields[2].name, "braceInit");
}

TEST(LintConfig, ParsesTheRealConfigHeader)
{
    SourceFile f = lexFile(std::string(TVARAK_REPO_ROOT) +
                               "/src/sim/config.hh",
                           "src/sim/config.hh");
    std::vector<ConfigField> fields = parseConfigFields(f);
    auto has = [&](const char *s, const char *n) {
        return std::any_of(fields.begin(), fields.end(),
                           [&](const ConfigField &c) {
                               return c.structName == s && c.name == n;
                           });
    };
    EXPECT_TRUE(has("CacheParams", "sizeBytes"));
    EXPECT_TRUE(has("NvmParams", "occupancyWriteFactor"));
    EXPECT_TRUE(has("TvarakParams", "diffWays"));
    EXPECT_TRUE(has("SimConfig", "prefetchDegree"));
    EXPECT_TRUE(has("SimConfig", "llcBank"));
    // Member functions and enums must not show up as fields.
    EXPECT_FALSE(has("SimConfig", "nsToCycles"));
    EXPECT_FALSE(has("SimConfig", "validate"));
    EXPECT_FALSE(has("DesignKind", "Baseline"));
}

// -------------------------------------------------------- fixtures

const std::string kFixtures = TVARAK_LINT_FIXTURES;

TEST(LintFixtures, GoodRootIsClean)
{
    std::vector<Finding> findings = runOn(kFixtures + "/goodroot");
    for (const Finding &f : findings)
        ADD_FAILURE() << f.str();
}

TEST(LintFixtures, BadRootTripsEveryRuleExactly)
{
    std::vector<Finding> findings = runOn(kFixtures + "/badroot");
    std::map<std::string, int> n = countByRule(findings);
    EXPECT_EQ(n["R1"], 2) << "naked 63 mask + naked 4096 divide";
    EXPECT_EQ(n["R3"], 2) << "undocumentedKnob missing from dump and doc";
    EXPECT_EQ(n["R4"], 2) << "missing guard + using namespace";
    EXPECT_EQ(n["R5"], 2) << "inline float + inline latency assignment";
    EXPECT_EQ(n["R6"], 2) << "threading header + std::thread member";
    EXPECT_EQ(n["R7"], 2) << "binary fopen + std::ios::binary stream";
    EXPECT_EQ(n["R8"], 2) << "two DesignKind comparisons outside registry";
    EXPECT_EQ(n["R9"], 4)
        << "upward nvm->mem edge + harness->service edge + layout "
           "cycle + checksum->mem edge";
    EXPECT_EQ(n["R10"], 3)
        << "rand() + unordered-container iteration + random_device";
    EXPECT_EQ(n["R11"], 1) << "unreferenced table row 'stale'";
    EXPECT_EQ(n["R12"], 2) << "dead 'deadKnob' + write-only 'writeOnlyKnob'";
    EXPECT_EQ(n["R13"], 2) << "naked .lock() + naked .unlock()";
    EXPECT_EQ(n["R14"], 2) << "SIMD header include + intrinsic call";
    EXPECT_EQ(findings.size(), 28u);
}

TEST(LintFixtures, BadRootFindingLocations)
{
    std::vector<Finding> findings = runOn(kFixtures + "/badroot");
    EXPECT_TRUE(hasFinding(findings, "src/bad_addr_math.cc", 7, "R1"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_addr_math.cc", 13, "R1"));
    EXPECT_TRUE(hasFinding(findings, "src/sim/config.hh", 8, "R3"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_header.hh", 1, "R4"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_header.hh", 3, "R4"));
    EXPECT_TRUE(hasFinding(findings, "src/mem/bad_timing.cc", 5, "R5"));
    EXPECT_TRUE(hasFinding(findings, "src/mem/bad_timing.cc", 6, "R5"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_threading.cc", 2, "R6"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_threading.cc", 7, "R6"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_binary_io.cc", 8, "R7"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_binary_io.cc", 15, "R7"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_design_dispatch.cc", 9,
                           "R8"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_design_dispatch.cc", 15,
                           "R8"));
    EXPECT_TRUE(hasFinding(findings, "src/nvm/bad_upward.cc", 3, "R9"));
    EXPECT_TRUE(hasFinding(findings, "src/checksum/bad_gf_upward.cc", 4,
                           "R9"));
    EXPECT_TRUE(hasFinding(findings, "src/harness/bad_service_upward.cc",
                           4, "R9"));
    EXPECT_TRUE(hasFinding(findings, "src/layout/a.hh", 4, "R9"));
    EXPECT_TRUE(hasFinding(findings, "src/core/bad_nondet.cc", 20, "R10"));
    EXPECT_TRUE(hasFinding(findings, "src/core/bad_nondet.cc", 33, "R10"));
    EXPECT_TRUE(hasFinding(findings, "src/service/bad_nondet_service.cc",
                           12, "R10"));
    EXPECT_TRUE(hasFinding(findings, "src/sim/stats.hh", 9, "R11"));
    EXPECT_TRUE(hasFinding(findings, "src/sim/config.hh", 9, "R12"));
    EXPECT_TRUE(hasFinding(findings, "src/sim/config.hh", 10, "R12"));
    EXPECT_TRUE(hasFinding(findings, "src/harness/bad_locks.cc", 8,
                           "R13"));
    EXPECT_TRUE(hasFinding(findings, "src/harness/bad_locks.cc", 10,
                           "R13"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_simd.cc", 2, "R14"));
    EXPECT_TRUE(hasFinding(findings, "src/bad_simd.cc", 7, "R14"));
}

TEST(LintFixtures, SuppressedSiteStaysQuiet)
{
    std::vector<Finding> findings = runOn(kFixtures + "/badroot");
    EXPECT_FALSE(hasFinding(findings, "src/bad_addr_math.cc", 19, "R1"))
        << "lint:allow(R1) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/bad_threading.cc", 15, "R6"))
        << "lint:allow(R6) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/bad_binary_io.cc", 32, "R7"))
        << "lint:allow(R7) on the line above must suppress the finding";
    EXPECT_FALSE(
        hasFinding(findings, "src/bad_design_dispatch.cc", 21, "R8"))
        << "lint:allow(R8) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/nvm/bad_upward.cc", 6, "R9"))
        << "lint:allow(R9) on the line above must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/core/bad_nondet.cc", 26,
                            "R10"))
        << "lint:allow(R10) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/harness/bad_locks.cc", 17,
                            "R13"))
        << "lint:allow(R13) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/harness/bad_locks.cc", 19,
                            "R13"))
        << "lint:allow(R13) on the line must suppress the finding";
    EXPECT_FALSE(hasFinding(findings, "src/bad_simd.cc", 13, "R14"))
        << "lint:allow(R14) on the line must suppress the finding";
}

// ------------------------------------------------- repo model (R9+)

TEST(LintModel, ParsesAndResolvesIncludes)
{
    std::vector<SourceFile> files;
    files.push_back(lexText("#include <vector>\n"
                            "#include \"sim/types.hh\"\n"
                            "#include \"cache.hh\"\n"
                            "#include \"missing.hh\"\n",
                            "src/mem/memory_system.cc"));
    files.push_back(lexText("#pragma once\n", "src/sim/types.hh"));
    files.push_back(lexText("#pragma once\n", "src/mem/cache.hh"));
    RepoModel m = buildRepoModel(files);

    const std::vector<IncludeEdge> &e = m.includes[0];
    ASSERT_EQ(e.size(), 4u);
    EXPECT_TRUE(e[0].angled);
    EXPECT_FALSE(e[0].resolved()) << "system headers stay external";
    EXPECT_EQ(m.files[e[1].target].path, "src/sim/types.hh")
        << "quoted specs resolve against src/";
    EXPECT_EQ(m.files[e[2].target].path, "src/mem/cache.hh")
        << "quoted specs resolve against the includer's directory";
    EXPECT_FALSE(e[3].resolved());

    std::set<std::size_t> closure = m.includeClosure(0);
    EXPECT_EQ(closure.size(), 3u);
    EXPECT_TRUE(m.closureHas(0, "sim/types.hh"));
    EXPECT_FALSE(m.closureHas(0, "sim/stats.hh"));
}

TEST(LintModel, ClassifiesModulesAndRanks)
{
    EXPECT_EQ(moduleOf("src/sim/config.hh"), "sim");
    EXPECT_EQ(moduleOf("src/redundancy/scheme.cc"), "redundancy");
    EXPECT_EQ(moduleOf("tools/lint/lint.cc"), "tools");
    EXPECT_EQ(moduleOf("bench/bench_common.hh"), "bench");
    EXPECT_EQ(moduleOf("tests/test_lint.cc"), "tests");
    EXPECT_EQ(moduleOf("src/toplevel.cc"), "") << "no subdirectory";
    // Sanctioned interface-header overrides.
    EXPECT_EQ(moduleOf("src/trace/sink.hh"), "trace_abi");
    EXPECT_EQ(moduleOf("src/trace/writer.cc"), "trace");
    EXPECT_EQ(moduleOf("src/redundancy/registry.hh"), "design_api");
    EXPECT_EQ(moduleOf("src/mem/cache.hh"), "cache");
    EXPECT_EQ(moduleOf("src/harness/workload.hh"), "workload_api");

    EXPECT_EQ(moduleOf("src/service/dispatcher.cc"), "service");

    EXPECT_EQ(moduleOf("src/kernels/dispatch.cc"), "kernels");

    EXPECT_EQ(moduleRank("sim"), 0);
    // The kernel layer sits between sim/ and every byte-moving module.
    EXPECT_LT(moduleRank("sim"), moduleRank("kernels"));
    EXPECT_LT(moduleRank("kernels"), moduleRank("checksum"));
    EXPECT_LT(moduleRank("kernels"), moduleRank("mem"));
    EXPECT_LT(moduleRank("checksum"), moduleRank("nvm"));
    EXPECT_LT(moduleRank("core"), moduleRank("mem"));
    EXPECT_LT(moduleRank("mem"), moduleRank("redundancy"));
    EXPECT_LT(moduleRank("harness"), moduleRank("service"));
    EXPECT_LT(moduleRank("service"), moduleRank("bench"));
    EXPECT_LT(moduleRank("harness"), moduleRank("tests"));
    EXPECT_EQ(moduleRank("no_such_module"), -1);
}

TEST(LintModel, ClassifiesLayerEdges)
{
    // Downward: higher rank may include lower rank.
    EXPECT_TRUE(layerEdgeLegal("src/mem/memory_system.cc",
                               "src/sim/types.hh"));
    EXPECT_TRUE(layerEdgeLegal("tests/test_lint.cc",
                               "src/harness/parallel.hh"));
    // Same module: always fine.
    EXPECT_TRUE(layerEdgeLegal("src/mem/memory_system.cc",
                               "src/mem/dram.hh"));
    // The service front-end drives the harness, never the reverse.
    EXPECT_TRUE(layerEdgeLegal("src/service/sweep.cc",
                               "src/harness/parallel.hh"));
    EXPECT_TRUE(layerEdgeLegal("bench/bench_service.cc",
                               "src/service/sweep.hh"));
    // Upward: forbidden.
    EXPECT_FALSE(layerEdgeLegal("src/sim/config.hh",
                                "src/mem/memory_system.hh"));
    EXPECT_FALSE(layerEdgeLegal("src/harness/report.cc",
                                "src/service/dispatcher.hh"));
    EXPECT_FALSE(layerEdgeLegal("src/fs/scrubber.cc",
                                "src/pmemlib/pmem_pool.hh"));
    // Interface-header overrides change the verdict: the registry
    // *interface* is below the cache, the implementation is not.
    EXPECT_TRUE(layerEdgeLegal("src/mem/cache.cc",
                               "src/redundancy/registry.hh"));
    EXPECT_FALSE(layerEdgeLegal("src/mem/cache.cc",
                                "src/redundancy/registry.cc"));
    // Unclassified paths never violate the DAG.
    EXPECT_TRUE(layerEdgeLegal("src/toplevel.cc", "src/sim/types.hh"));
    EXPECT_TRUE(layerEdgeLegal("src/sim/config.hh", "src/toplevel.hh"));
}

TEST(LintModel, DetectsIncludeCycles)
{
    std::vector<SourceFile> files;
    files.push_back(lexText("#include \"layout/b.hh\"\n",
                            "src/layout/a.hh"));
    files.push_back(lexText("#include \"layout/c.hh\"\n",
                            "src/layout/b.hh"));
    files.push_back(lexText("#include \"layout/a.hh\"\n",
                            "src/layout/c.hh"));
    files.push_back(lexText("#include \"layout/a.hh\"\n",
                            "src/layout/standalone.hh"));
    std::vector<std::vector<std::string>> cycles =
        findIncludeCycles(buildRepoModel(files));
    ASSERT_EQ(cycles.size(), 1u) << "one 3-cycle, standalone is not in it";
    EXPECT_EQ(cycles[0],
              (std::vector<std::string>{"src/layout/a.hh",
                                        "src/layout/b.hh",
                                        "src/layout/c.hh"}));

    std::vector<SourceFile> acyclic;
    acyclic.push_back(lexText("#include \"sim/types.hh\"\n",
                              "src/sim/config.hh"));
    acyclic.push_back(lexText("#pragma once\n", "src/sim/types.hh"));
    EXPECT_TRUE(findIncludeCycles(buildRepoModel(acyclic)).empty());
}

// ------------------------------------------------- SARIF + baseline

TEST(LintSarif, EscapesAndMarksSuppressions)
{
    std::vector<Finding> findings{
        {"src/a.cc", 3, "R1", "quote \" backslash \\ and\ttab"},
        {"src/b.cc", 7, "R10", "baselined finding"},
    };
    std::set<std::string> baseline{baselineKey(findings[1])};
    std::string sarif = toSarif(findings, baseline);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("quote \\\" backslash \\\\ and\\ttab"),
              std::string::npos);
    EXPECT_NE(sarif.find("\"suppressions\": [{\"kind\": \"external\"}]"),
              std::string::npos);
    // Only the baselined result carries a suppression.
    EXPECT_EQ(sarif.find("suppressions"), sarif.rfind("suppressions"));
}

TEST(LintSarif, BadRootMatchesGoldenByteForByte)
{
    std::vector<Finding> findings = runOn(kFixtures + "/badroot");
    std::string sarif = toSarif(findings, {});
    std::ifstream is(std::string(TVARAK_REPO_ROOT) +
                     "/tests/golden/lint_badroot.sarif");
    ASSERT_TRUE(is.good()) << "golden SARIF missing";
    std::ostringstream golden;
    golden << is.rdbuf();
    EXPECT_EQ(sarif, golden.str())
        << "SARIF output drifted; regenerate with tvarak-lint --root "
           "tests/lint_fixtures/badroot --sarif "
           "tests/golden/lint_badroot.sarif";
}

TEST(LintSarif, EveryRuleIndexNamesItsOwnRuleId)
{
    std::vector<Finding> findings = runOn(kFixtures + "/badroot");
    std::istringstream is(toSarif(findings, {}));
    std::string line, ruleId;
    std::size_t results = 0;
    while (std::getline(is, line)) {
        const std::string idKey = "\"ruleId\": \"";
        const std::string indexKey = "\"ruleIndex\": ";
        if (std::size_t p = line.find(idKey); p != std::string::npos) {
            p += idKey.size();
            ruleId = line.substr(p, line.find('"', p) - p);
        } else if (std::size_t q = line.find(indexKey);
                   q != std::string::npos) {
            std::size_t index = std::stoul(line.substr(q + indexKey.size()));
            ASSERT_LT(index, std::size(kRules)) << ruleId;
            EXPECT_EQ(kRules[index].id, ruleId) << "ruleIndex " << index;
            results++;
        }
    }
    EXPECT_EQ(results, findings.size());
}

TEST(LintBaseline, KeyIsLineNumberInsensitive)
{
    Finding a{"src/a.cc", 3, "R1", "msg"};
    Finding b{"src/a.cc", 99, "R1", "msg"};
    EXPECT_EQ(baselineKey(a), baselineKey(b));
    EXPECT_EQ(baselineKey(a), "src/a.cc: [R1] msg");
}

TEST(LintBaseline, LoadsEntriesSkipsCommentsThrowsOnMissing)
{
    std::string path = ::testing::TempDir() + "lint_baseline_test.txt";
    {
        std::ofstream os(path);
        os << "# comment line\n"
           << "\n"
           << "  src/a.cc: [R1] msg  \n";
    }
    std::set<std::string> entries = loadBaseline(path);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries.count("src/a.cc: [R1] msg"));
    EXPECT_THROW(loadBaseline(path + ".does_not_exist"),
                 std::runtime_error);
}

TEST(LintRun, ExplicitMissingPathThrows)
{
    Options opts;
    opts.root = kFixtures + "/goodroot";
    opts.paths = {"no_such_dir"};
    EXPECT_THROW(run(opts), std::runtime_error);
}

TEST(LintRun, SingleThreadedScanMatchesParallel)
{
    Options serial;
    serial.root = kFixtures + "/badroot";
    serial.jobs = 1;
    Options parallel;
    parallel.root = kFixtures + "/badroot";
    parallel.jobs = 8;
    std::vector<Finding> a = run(serial);
    std::vector<Finding> b = run(parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].str(), b[i].str());
}

// ------------------------------------------------------------- repo

TEST(LintRepo, RepositoryIsLintClean)
{
    std::vector<Finding> findings = runOn(TVARAK_REPO_ROOT);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.str();
}

}  // namespace
}  // namespace tvarak::lint
