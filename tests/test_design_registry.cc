/**
 * @file
 * The design registry: lookup semantics, registration invariants, and
 * the refactor's machine-checkable correctness pin — replaying the
 * recorded golden traces under every registered design, with the four
 * paper designs required to reproduce their pre-refactor Stats dumps
 * bit for bit (tests/golden/stats_*.txt).
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.hh"
#include "mem/memory_system.hh"
#include "sim/stats.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "trace/trace.hh"

namespace tvarak {
namespace {

std::string
goldenPath(const std::string &file)
{
    return std::string(TVARAK_GOLDEN_DIR) + "/" + file;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ------------------------------------------------------------------
// Registry lookup semantics.
// ------------------------------------------------------------------

TEST(DesignRegistry, BuiltinsRegisteredInStableOrder)
{
    const auto &all = allRegisteredDesigns();
    ASSERT_GE(all.size(), 8u);
    const char *expect[] = {"baseline",
                            "tvarak",
                            "txb-object-csums",
                            "txb-page-csums",
                            "vilamb",
                            "tvarak-naive",
                            "tvarak-no-red-cache",
                            "tvarak-no-diffs"};
    for (std::size_t i = 0; i < 8; i++)
        EXPECT_EQ(all[i]->cliName(), expect[i]);
    // Same order again: iteration order is stable across calls.
    const auto &again = allRegisteredDesigns();
    EXPECT_EQ(&all, &again);
}

TEST(DesignRegistry, FindDesignIsCaseInsensitiveOnBothNames)
{
    ASSERT_NE(findDesign("vilamb"), nullptr);
    EXPECT_EQ(findDesign("Vilamb"), findDesign("vilamb"));
    EXPECT_EQ(findDesign("VILAMB"), findDesign("vilamb"));
    // displayName spellings resolve too (classic CLI compatibility).
    EXPECT_EQ(findDesign("TxB-Page-Csums"), findDesign("txb-page-csums"));
    EXPECT_EQ(findDesign("Baseline"), findDesign("baseline"));
    EXPECT_EQ(findDesign("no-such-design"), nullptr);
    EXPECT_EQ(findDesign(""), nullptr);
}

TEST(DesignRegistry, DesignOfReturnsCanonicalNotVariant)
{
    EXPECT_EQ(designOf(DesignKind::Tvarak).cliName(), "tvarak");
    EXPECT_EQ(designOf(DesignKind::Baseline).cliName(), "baseline");
    EXPECT_EQ(designOf(DesignKind::Vilamb).cliName(), "vilamb");
    for (DesignKind d : allDesigns())
        EXPECT_TRUE(isRegisteredKind(d));
    EXPECT_TRUE(isRegisteredKind(DesignKind::Vilamb));
    EXPECT_FALSE(isRegisteredKind(static_cast<DesignKind>(200)));
}

TEST(DesignRegistry, PaperDesignsInPaperOrder)
{
    auto paper = paperDesigns();
    ASSERT_EQ(paper.size(), 4u);
    EXPECT_EQ(paper[0]->displayName(), std::string("Baseline"));
    EXPECT_EQ(paper[1]->displayName(), std::string("Tvarak"));
    EXPECT_EQ(paper[2]->displayName(), std::string("TxB-Object-Csums"));
    EXPECT_EQ(paper[3]->displayName(), std::string("TxB-Page-Csums"));
}

TEST(DesignRegistry, RegisteredNameListMentionsEveryDesign)
{
    std::string names = registeredNameList();
    for (const Design *d : allRegisteredDesigns())
        EXPECT_NE(names.find(d->cliName()), std::string::npos)
            << d->cliName();
}

// ------------------------------------------------------------------
// Policy bits and variant config pinning.
// ------------------------------------------------------------------

TEST(DesignRegistry, PolicyBitsMatchTheDesignTaxonomy)
{
    const Design &base = designOf(DesignKind::Baseline);
    EXPECT_FALSE(base.engineCoversDaxData());
    EXPECT_TRUE(base.absorbsWritesWhileDegraded());
    EXPECT_EQ(base.faultDetection(), FaultDetection::None);

    const Design &tvk = designOf(DesignKind::Tvarak);
    EXPECT_TRUE(tvk.engineCoversDaxData());
    EXPECT_TRUE(tvk.coversMappedFiles());
    EXPECT_TRUE(tvk.absorbsWritesWhileDegraded());
    EXPECT_TRUE(tvk.maintainsMappedParity());
    EXPECT_TRUE(tvk.detectsTransientReads());
    EXPECT_EQ(tvk.faultDetection(), FaultDetection::FillVerify);

    const Design &obj = designOf(DesignKind::TxBObjectCsums);
    EXPECT_FALSE(obj.coversMappedFiles());
    EXPECT_TRUE(obj.maintainsMappedParity());
    EXPECT_EQ(obj.faultDetection(), FaultDetection::ObjectSweep);

    // Vilamb is the TxB-Page machine model, batched: same coverage
    // surface, same scrub-based detection.
    const Design &pg = designOf(DesignKind::TxBPageCsums);
    const Design &vl = designOf(DesignKind::Vilamb);
    for (const Design *d : {&pg, &vl}) {
        EXPECT_FALSE(d->engineCoversDaxData()) << d->cliName();
        EXPECT_TRUE(d->coversMappedFiles()) << d->cliName();
        EXPECT_FALSE(d->absorbsWritesWhileDegraded()) << d->cliName();
        EXPECT_TRUE(d->maintainsMappedParity()) << d->cliName();
        EXPECT_FALSE(d->detectsTransientReads()) << d->cliName();
        EXPECT_EQ(d->faultDetection(), FaultDetection::PageScrub)
            << d->cliName();
    }
}

TEST(DesignRegistry, VariantsPinAblationSwitchesPlainTvarakDoesNot)
{
    struct Expect {
        const char *name;
        bool cl, cache, diffs;
    };
    const Expect expects[] = {
        {"tvarak-naive", false, false, false},
        {"tvarak-no-red-cache", true, false, false},
        {"tvarak-no-diffs", true, true, false},
    };
    for (const Expect &e : expects) {
        const Design *d = findDesign(e.name);
        ASSERT_NE(d, nullptr) << e.name;
        EXPECT_EQ(d->kind(), DesignKind::Tvarak) << e.name;
        SimConfig cfg;
        d->adjustConfig(cfg);
        EXPECT_EQ(cfg.tvarak.useDaxClChecksums, e.cl) << e.name;
        EXPECT_EQ(cfg.tvarak.useRedundancyCaching, e.cache) << e.name;
        EXPECT_EQ(cfg.tvarak.useDataDiffs, e.diffs) << e.name;
    }
    // The plain design leaves the deprecated switches alone, so traces
    // that serialized non-default values replay identically.
    SimConfig cfg;
    cfg.tvarak.useDataDiffs = false;
    designOf(DesignKind::Tvarak).adjustConfig(cfg);
    EXPECT_FALSE(cfg.tvarak.useDataDiffs);
}

TEST(DesignRegistry, VilambDesignVendsItsAsyncScheme)
{
    SimConfig cfg;
    cfg.cores = 2;
    cfg.nvm.dimmBytes = 16ull << 20;
    MemorySystem mem(cfg, designOf(DesignKind::Vilamb));
    auto scheme = mem.designObj().makeScheme(mem);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(std::string(scheme->name()), "Vilamb-Async");
    // The scheme-less designs vend nothing.
    EXPECT_EQ(designOf(DesignKind::Baseline).makeScheme(mem), nullptr);
    EXPECT_EQ(designOf(DesignKind::Tvarak).makeScheme(mem), nullptr);
}

// ------------------------------------------------------------------
// Refactor invariance: golden traces replayed under every design.
// ------------------------------------------------------------------

class TraceInvariance : public ::testing::TestWithParam<const char *>
{};

TEST_P(TraceInvariance, ReplayMatchesPreRefactorGoldens)
{
    const std::string id = GetParam();
    auto trace = trace::TraceData::load(goldenPath(id + ".trace"));
    ASSERT_NE(trace, nullptr);

    for (const Design *d : allRegisteredDesigns()) {
        RunResult r = trace::replayExperiment(trace, *d);
        EXPECT_GT(r.runtimeCycles, 0u) << d->cliName();
        if (d != &designOf(d->kind()))
            continue;  // variants have no pre-refactor golden
        if (d->kind() == DesignKind::Vilamb)
            continue;  // promoted post-goldens; pinned for cycles below
        std::ostringstream os;
        r.stats.dump(os);
        EXPECT_EQ(os.str(),
                  readFile(goldenPath("stats_" + id + "_" +
                                      d->displayName() + ".txt")))
            << id << " under " << d->displayName()
            << ": replayed Stats differ from the pre-refactor golden";
    }
}

TEST_P(TraceInvariance, KernelBackendsReplayBitIdentical)
{
    // The dispatch contract: simulated Stats are a function of the
    // trace and the design, never of the host's SIMD level. Replay
    // every design under the forced scalar backend and under the best
    // available one; statsDiff must come back empty.
    const std::string id = GetParam();
    auto trace = trace::TraceData::load(goldenPath(id + ".trace"));
    ASSERT_NE(trace, nullptr);
    kernels::Backend best = kernels::bestBackend();
    for (const Design *d : allRegisteredDesigns()) {
        ASSERT_TRUE(kernels::selectBackend(kernels::Backend::Scalar));
        RunResult scalar = trace::replayExperiment(trace, *d);
        ASSERT_TRUE(kernels::selectBackend(best));
        RunResult simd = trace::replayExperiment(trace, *d);
        EXPECT_EQ(statsDiff(scalar.stats, simd.stats), "")
            << id << " under " << d->cliName() << ": scalar vs "
            << kernels::backendName(best);
    }
}

INSTANTIATE_TEST_SUITE_P(GoldenTraces, TraceInvariance,
                         ::testing::Values("stream", "ctree"));

TEST(TraceInvariance, AblationVariantsActuallyAblate)
{
    auto trace = trace::TraceData::load(goldenPath("stream.trace"));
    ASSERT_NE(trace, nullptr);
    RunResult full =
        trace::replayExperiment(trace, designOf(DesignKind::Tvarak));
    RunResult naive =
        trace::replayExperiment(trace, *findDesign("tvarak-naive"));
    // The naive controller re-reads whole pages per writeback; on the
    // streaming trace it must cost strictly more than full TVARAK.
    EXPECT_GT(naive.runtimeCycles, full.runtimeCycles);
}

// ------------------------------------------------------------------
// Registration invariants (mutating; keep these last in the file).
// ------------------------------------------------------------------

class NullTestDesign final : public Design
{
  public:
    NullTestDesign(std::string cli, std::string display)
        : Design(DesignKind::Baseline, std::move(cli),
                 std::move(display))
    {}
};

TEST(DesignRegistryMutation, DuplicateRegistrationDies)
{
    static NullTestDesign dupeCli("TVARAK", "Test-Dupe-A");
    static NullTestDesign dupeDisplay("test-dupe-b", "txb-page-csums");
    EXPECT_DEATH(registerDesign(&dupeCli), "collides");
    EXPECT_DEATH(registerDesign(&dupeDisplay), "collides");
}

TEST(DesignRegistryMutation, NewDesignsAppendInRegistrationOrder)
{
    static NullTestDesign extra("test-extra", "Test-Extra");
    std::size_t before = allRegisteredDesigns().size();
    registerDesign(&extra);
    const auto &all = allRegisteredDesigns();
    ASSERT_EQ(all.size(), before + 1);
    EXPECT_EQ(all.back(), &extra);
    EXPECT_EQ(findDesign("Test-Extra"), &extra);
    EXPECT_NE(registeredNameList().find("test-extra"),
              std::string::npos);
    // Kind-based resolution still prefers the canonical design.
    EXPECT_EQ(designOf(DesignKind::Baseline).cliName(), "baseline");
}

}  // namespace
}  // namespace tvarak
