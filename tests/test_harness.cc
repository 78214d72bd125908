/**
 * @file
 * Harness tests: experiment runner semantics (setup/measure split,
 * interleaving, beforeMeasure), report normalization, SimConfig
 * validation, and the command-line parser every bench and tool uses.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

/** Trivial workload: N timed reads over a small DAX file. */
class PingWorkload final : public Workload
{
  public:
    PingWorkload(MemorySystem &mem, DaxFs &fs, int tid, int steps)
        : mem_(mem), fs_(fs), tid_(tid), steps_(steps)
    {}

    void setup() override
    {
        int fd = fs_.create("ping" + std::to_string(tid_),
                            4 * kPageBytes);
        base_ = fs_.daxMap(fd);
        // Setup work that must NOT be measured:
        for (int i = 0; i < 100; i++)
            mem_.write64(tid_, base_ + 8 * (i % 64), 1);
    }

    bool step() override
    {
        (void)mem_.read64(tid_, base_);
        stepsRun_++;
        return stepsRun_ < steps_;
    }

    int tid() const override { return tid_; }
    std::string name() const override { return "ping"; }
    int stepsRun() const { return stepsRun_; }

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    int steps_;
    Addr base_ = 0;
    int stepsRun_ = 0;
};

TEST(Runner, SetupIsNotMeasured)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 3));
        return set;
    };
    RunResult r =
        runExperiment(test::smallConfig(), DesignKind::Baseline, make);
    // 3 steps x 1 read + the flush tail; far fewer than the 100 setup
    // writes, which must have been excluded by the stats reset.
    EXPECT_LE(r.stats.l1Accesses, 10u);
    EXPECT_GE(r.stats.l1Accesses, 3u);
}

TEST(Runner, InterleavesUnevenWorkloads)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 2));
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 1, 7));
        return set;
    };
    RunResult r =
        runExperiment(test::smallConfig(), DesignKind::Baseline, make);
    EXPECT_EQ(r.stats.l1Accesses, 9u + /*flush-path accesses*/ 0u);
}

TEST(Runner, BeforeMeasureHookRuns)
{
    bool ran = false;
    auto make = [&ran](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 1));
        set.beforeMeasure = [&ran](MemorySystem &) { ran = true; };
        return set;
    };
    (void)runExperiment(test::smallConfig(), DesignKind::Baseline, make);
    EXPECT_TRUE(ran);
}

TEST(Runner, ResultFieldsConsistent)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 50));
        return set;
    };
    SimConfig cfg = test::smallConfig();
    RunResult r = runExperiment(cfg, DesignKind::Tvarak, make);
    EXPECT_EQ(r.design, DesignKind::Tvarak);
    EXPECT_EQ(r.runtimeCycles, r.stats.runtimeCycles());
    EXPECT_NEAR(r.runtimeMs,
                static_cast<double>(r.runtimeCycles) /
                    (cfg.coreGhz * 1e6),
                1e-9);
    EXPECT_NEAR(r.energyMj, r.stats.totalEnergy() * 1e-9, 1e-12);
}

TEST(Report, NormalizationAgainstBaseline)
{
    FigureRow row;
    row.workload = "w";
    RunResult base;
    base.runtimeCycles = 1000;
    RunResult tv;
    tv.runtimeCycles = 1030;
    row.results[DesignKind::Baseline] = base;
    row.results[DesignKind::Tvarak] = tv;
    EXPECT_DOUBLE_EQ(normRuntime(row, DesignKind::Tvarak), 1.03);
    EXPECT_DOUBLE_EQ(normRuntime(row, DesignKind::Baseline), 1.0);
}

TEST(Report, AllDesignsInPaperOrder)
{
    const auto &d = allDesigns();
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0], DesignKind::Baseline);
    EXPECT_EQ(d[1], DesignKind::Tvarak);
    EXPECT_EQ(d[2], DesignKind::TxBObjectCsums);
    EXPECT_EQ(d[3], DesignKind::TxBPageCsums);
}

TEST(Runner, FullyDeterministic)
{
    // Same config + same workload => bit-identical statistics. The
    // whole simulator is deterministic (no wall-clock, no host
    // randomness), which is what makes results reproducible and
    // resumable debugging possible.
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 200));
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 1, 100));
        return set;
    };
    SimConfig cfg = test::smallConfig();
    RunResult a = runExperiment(cfg, DesignKind::Tvarak, make);
    RunResult b = runExperiment(cfg, DesignKind::Tvarak, make);
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.stats.l1Accesses, b.stats.l1Accesses);
    EXPECT_EQ(a.stats.llcMisses, b.stats.llcMisses);
    EXPECT_EQ(a.stats.nvmAccesses(), b.stats.nvmAccesses());
    EXPECT_DOUBLE_EQ(a.stats.totalEnergy(), b.stats.totalEnergy());
    EXPECT_EQ(a.stats.readVerifications, b.stats.readVerifications);
}

TEST(Config, ValidateCatchesBadGeometry)
{
    SimConfig cfg = test::smallConfig();
    cfg.llcBank.sizeBytes = 100;  // not divisible into ways of lines
    EXPECT_DEATH(cfg.validate(), "ways");

    cfg = test::smallConfig();
    cfg.tvarak.redundancyWays = 10;
    cfg.tvarak.diffWays = 6;  // no data ways left
    EXPECT_DEATH(cfg.validate(), "no data ways");

    cfg = test::smallConfig();
    cfg.nvm.dimms = 1;  // cross-DIMM parity impossible
    EXPECT_DEATH(cfg.validate(), "striped parity");

    // One data member per stripe: parity would be a plain copy, and
    // the stripe code needs n >= 2.
    cfg = test::smallConfig();
    cfg.nvm.dimms = 2;
    EXPECT_DEATH(cfg.validate(), "dimms - nvm.parityDimms >= 2");
    cfg = test::smallConfig();
    cfg.nvm.dimms = 3;
    cfg.nvm.parityDimms = 2;
    EXPECT_DEATH(cfg.validate(), "dimms - nvm.parityDimms >= 2");

    // The on-controller cache is checked like every other cache level:
    // zero ways would divide by zero, and 12 KiB in 8 ways is 24 sets.
    cfg = test::smallConfig();
    cfg.tvarak.cacheWays = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "on-controller cache: zero size or ways");
    cfg = test::smallConfig();
    cfg.tvarak.cacheBytes = 12288;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "on-controller cache: set count 24 not a power of two");

    // Sharer masks hold one bit per core and per bank in 32 bits.
    cfg = test::smallConfig();
    cfg.cores = 32;
    cfg.llcBanks = 32;
    cfg.validate();
    cfg.cores = 40;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "cores \\(40\\) exceeds the 32 bits of a sharer mask");
    cfg = test::smallConfig();
    cfg.llcBanks = 33;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "llcBanks \\(33\\) exceeds the 32 bits of a sharer mask");
}

TEST(Config, MemorySystemRejectsBadGeometryBeforeBuildingIt)
{
    // The config is validated before the layout and the stripe code
    // are built from it: a bad geometry is a fatal diagnostic (exit
    // 1), not a panic from a member's constructor.
    SimConfig cfg = test::smallConfig();
    cfg.nvm.dimms = 2;
    EXPECT_EXIT(MemorySystem(cfg, DesignKind::Tvarak),
                ::testing::ExitedWithCode(1),
                "fatal: striped parity needs at least 2 data DIMMs");
    cfg.nvm.dimms = 1;
    EXPECT_EXIT(MemorySystem(cfg, DesignKind::Baseline),
                ::testing::ExitedWithCode(1), "fatal: striped parity");
}

TEST(Config, DesignNamesAreStable)
{
    EXPECT_STREQ(designName(DesignKind::Baseline), "Baseline");
    EXPECT_STREQ(designName(DesignKind::Tvarak), "Tvarak");
    EXPECT_STREQ(designName(DesignKind::TxBObjectCsums),
                 "TxB-Object-Csums");
    EXPECT_STREQ(designName(DesignKind::TxBPageCsums),
                 "TxB-Page-Csums");
}

/** A one-command tool: an operand, a number, a switch and a
 *  repeatable name. */
const cli::Tool kTool{"tool", "",
                      {{"", "<in>", 1,
                        {{"--n", "N", "a number"},
                         {"--on", nullptr, "a switch"},
                         {"--d", "NAME", "a name", true}}}}};

/** A tool with two subcommands. */
const cli::Tool kSubTool{"sub", "",
                         {{"a", "", 0, {}},
                          {"b", "<f>", 1, {{"--n", "N", "a number"}}}}};

/** Parse @p words (argv[0] first) against @p tool. */
cli::Args
parse(const cli::Tool &tool, std::vector<std::string> words)
{
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    return cli::Args(tool, static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesBothValueSpellingsSwitchesAndRepeats)
{
    cli::Args a = parse(kTool, {"tool", "--n=7", "in", "--d", "x",
                                "--on", "--d=y"});
    EXPECT_EQ(a.positional, std::vector<std::string>{"in"});
    EXPECT_EQ(a.number("--n", 1), 7u);
    EXPECT_TRUE(a.has("--on"));
    EXPECT_EQ(a.values("--d"), (std::vector<std::string>{"x", "y"}));

    cli::Args b = parse(kTool, {"tool", "in"});
    EXPECT_EQ(b.number("--n", 5), 5u);
    EXPECT_FALSE(b.has("--on"));
    EXPECT_TRUE(b.values("--d").empty());

    cli::Args c = parse(kSubTool, {"sub", "b", "f", "--n", "3"});
    EXPECT_EQ(c.command, "b");
    EXPECT_EQ(c.number("--n", 1), 3u);
}

TEST(Cli, IntegersAreStrictAndRanged)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(cli::parseInteger("42", 1, 100, v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(cli::parseInteger("18446744073709551615", 0, UINT64_MAX,
                                  v));
    for (const char *bad : {"", " -1", "-1", "+3", "3x", " 3", "0x10",
                            "18446744073709551616"})
        EXPECT_FALSE(cli::parseInteger(bad, 0, UINT64_MAX, v)) << bad;
    EXPECT_FALSE(cli::parseInteger("0", 1, 100, v));
    EXPECT_FALSE(cli::parseInteger("101", 1, 100, v));
}

TEST(Cli, IndexLists)
{
    std::vector<std::size_t> v;
    EXPECT_TRUE(cli::parseList("0,1", v));
    EXPECT_EQ(v, (std::vector<std::size_t>{0, 1}));
    EXPECT_TRUE(cli::parseList("3", v));
    EXPECT_EQ(v, std::vector<std::size_t>{3});
    for (const char *bad : {"", "0,", ",1", "0,,1", "0,x", "0, 1", "-1"})
        EXPECT_FALSE(cli::parseList(bad, v)) << bad;
}

TEST(Cli, UsageComesFromTheRows)
{
    EXPECT_EQ(cli::usage(kTool),
              "usage: tool <in> [--n N] [--on] [--d NAME]...\n"
              "  --n N              a number\n"
              "  --on               a switch\n"
              "  --d NAME           a name\n"
              "  --help             print this usage and exit\n");
    EXPECT_EQ(cli::usage(kSubTool),
              "usage: sub a\n"
              "usage: sub b <f> [--n N]\n"
              "  --n N              a number\n"
              "  --help             print this usage and exit\n");
}

TEST(Cli, UsageErrorsExitTwoAndHelpExitsZero)
{
    const std::vector<std::vector<std::string>> bad = {
        {"tool", "in", "--n", "1", "--n", "2"},  // not repeatable
        {"tool", "in", "--n="},                  // empty value
        {"tool", "in", "--n"},                   // missing value
        {"tool", "in", "--on=1"},                // switch with a value
        {"tool", "in", "--bogus"},               // unknown flag
        {"tool", "in", "-h"},                    // no short flags
        {"tool"},                                // operand count
        {"tool", "in", "extra"},
        {"sub"},                                 // missing command
        {"sub", "c"},                            // unknown command
        {"sub", "a", "--n", "1"},                // flag of another
    };
    for (const std::vector<std::string> &words : bad) {
        const cli::Tool &tool = words[0] == "sub" ? kSubTool : kTool;
        EXPECT_EXIT(parse(tool, words), ::testing::ExitedWithCode(2),
                    "^" + words[0] + ": ");
    }
    EXPECT_EXIT(parse(kTool, {"tool", "in", "--n", "-1"}).number("--n", 1),
                ::testing::ExitedWithCode(2), "bad value for --n: '-1'");
    EXPECT_EXIT(parse(kTool, {"tool", "in", "--d", "no-such"})
                    .design("no-such"),
                ::testing::ExitedWithCode(2), "unknown design 'no-such'");
    EXPECT_EXIT(parse(kTool, {"tool", "--help"}),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parse(kSubTool, {"sub", "--help"}),
                ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace tvarak
