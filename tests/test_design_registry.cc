/**
 * @file
 * The design registry: lookup semantics, registration invariants, and
 * the refactor's machine-checkable correctness pin — replaying the
 * recorded golden traces under every registered design, each required
 * to reproduce its committed Stats dump bit for bit
 * (tests/golden/stats_<trace>_<displayName>.txt).
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

/** The built-in designs, in registration order. The mutation tests
 *  at the end of this file append more, which have no goldens. */
const char *const kBuiltins[] = {"baseline",
                                 "tvarak",
                                 "txb-object-csums",
                                 "txb-page-csums",
                                 "vilamb",
                                 "tvarak-naive",
                                 "tvarak-no-red-cache",
                                 "tvarak-no-diffs",
                                 "tvarak-rs4+2",
                                 "tvarak-rs6+2"};

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
    ASSERT_GE(all.size(), std::size(kBuiltins));
    for (std::size_t i = 0; i < std::size(kBuiltins); i++)
        EXPECT_EQ(all[i]->cliName(), kBuiltins[i]);
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
// Paper Table I: every built-in design's coverage, and every policy
// answer derived from it.
// ------------------------------------------------------------------

TEST(DesignRegistry, CoverageMatchesPaperTableOne)
{
    using MC = MappedChecksum;
    using PK = ParityKeeper;
    using FD = FaultDetection;
    struct Row {
        const char *name;
        // The coverage fields.
        MappedChecksum checksum;
        ParityKeeper parity;
        std::size_t survivable;
        bool caching, diffs;
        // The derived answers; ways under the Table III machine.
        FaultDetection detection;
        bool controller, mappedParity, degradedWrites, scrubsMapped,
            onRead;
        std::size_t ways;
    };
    const Row rows[] = {
        {"baseline", MC::None, PK::None, 0, false, false,
         FD::None, false, false, true, false, false, 0},
        {"tvarak", MC::DaxCl, PK::Controller, 1, true, true,
         FD::FillVerify, true, true, true, true, true, 3},
        {"txb-object-csums", MC::Object, PK::Software, 1, false, false,
         FD::ObjectSweep, false, true, false, false, false, 0},
        {"txb-page-csums", MC::Page, PK::Software, 1, false, false,
         FD::PageScrub, false, true, false, true, false, 0},
        {"vilamb", MC::Page, PK::Software, 1, false, false,
         FD::PageScrub, false, true, false, true, false, 0},
        {"tvarak-naive", MC::Page, PK::Controller, 1, false, false,
         FD::FillVerify, true, true, true, true, true, 0},
        {"tvarak-no-red-cache", MC::DaxCl, PK::Controller, 1, false, false,
         FD::FillVerify, true, true, true, true, true, 0},
        {"tvarak-no-diffs", MC::DaxCl, PK::Controller, 1, true, false,
         FD::FillVerify, true, true, true, true, true, 2},
        {"tvarak-rs4+2", MC::DaxCl, PK::Controller, 2, true, true,
         FD::FillVerify, true, true, true, true, true, 3},
        {"tvarak-rs6+2", MC::DaxCl, PK::Controller, 2, true, true,
         FD::FillVerify, true, true, true, true, true, 3},
    };
    ASSERT_EQ(std::size(rows), std::size(kBuiltins));
    const SimConfig cfg;
    for (std::size_t i = 0; i < std::size(rows); i++) {
        const Row &r = rows[i];
        EXPECT_STREQ(r.name, kBuiltins[i]);
        const Design *d = findDesign(r.name);
        ASSERT_NE(d, nullptr) << r.name;
        const Coverage &c = d->coverage();
        EXPECT_EQ(c.mappedChecksum, r.checksum) << r.name;
        EXPECT_EQ(c.parity, r.parity) << r.name;
        EXPECT_EQ(c.survivableFailures, r.survivable) << r.name;
        EXPECT_EQ(c.redundancyCaching, r.caching) << r.name;
        EXPECT_EQ(c.dataDiffs, r.diffs) << r.name;
        EXPECT_EQ(c.detection(), r.detection) << r.name;
        EXPECT_EQ(c.controllerKeepsParity(), r.controller) << r.name;
        EXPECT_EQ(c.hasMappedParity(), r.mappedParity) << r.name;
        EXPECT_EQ(c.writesWhileDegraded(), r.degradedWrites) << r.name;
        EXPECT_EQ(c.scrubsMappedFiles(), r.scrubsMapped) << r.name;
        EXPECT_EQ(c.checksOnRead(), r.onRead) << r.name;
        EXPECT_EQ(c.reservedLlcWays(cfg), r.ways) << r.name;
    }
}

TEST(DesignRegistry, EveryBuiltinVendsItsSchemeAndShape)
{
    // Each built-in's transaction-commit scheme (nullptr: it vends
    // none) and the array shape adjustConfig leaves in a default
    // config: only the Reed-Solomon designs pin theirs.
    const SimConfig def;
    const std::size_t dimms = def.nvm.dimms;
    const std::size_t parity = def.nvm.parityDimms;
    struct Row {
        const char *name;
        const char *scheme;
        std::size_t dimms, parityDimms;
    };
    const Row rows[] = {
        {"baseline", nullptr, dimms, parity},
        {"tvarak", nullptr, dimms, parity},
        {"txb-object-csums", "TxB-Object-Csums", dimms, parity},
        {"txb-page-csums", "TxB-Page-Csums", dimms, parity},
        {"vilamb", "Vilamb-Async", dimms, parity},
        {"tvarak-naive", nullptr, dimms, parity},
        {"tvarak-no-red-cache", nullptr, dimms, parity},
        {"tvarak-no-diffs", nullptr, dimms, parity},
        {"tvarak-rs4+2", nullptr, 6, 2},
        {"tvarak-rs6+2", nullptr, 8, 2},
    };
    ASSERT_EQ(std::size(rows), std::size(kBuiltins));
    SimConfig cfg;
    cfg.cores = 2;
    cfg.nvm.dimmBytes = 16ull << 20;
    for (std::size_t i = 0; i < std::size(rows); i++) {
        const Row &r = rows[i];
        EXPECT_STREQ(r.name, kBuiltins[i]);
        const Design *d = findDesign(r.name);
        ASSERT_NE(d, nullptr) << r.name;
        SimConfig adjusted;
        d->adjustConfig(adjusted);
        EXPECT_EQ(adjusted.nvm.dimms, r.dimms) << r.name;
        EXPECT_EQ(adjusted.nvm.parityDimms, r.parityDimms) << r.name;
        MemorySystem mem(cfg, *d);
        auto scheme = d->makeScheme(mem);
        if (r.scheme == nullptr) {
            EXPECT_EQ(scheme, nullptr) << r.name;
        } else {
            ASSERT_NE(scheme, nullptr) << r.name;
            EXPECT_STREQ(scheme->name(), r.scheme) << r.name;
        }
    }
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

    for (const char *name : kBuiltins) {
        const Design *d = findDesign(name);
        ASSERT_NE(d, nullptr) << name;
        RunResult r = trace::replayExperiment(trace, *d);
        EXPECT_GT(r.runtimeCycles, 0u) << d->cliName();
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

TEST(DesignRegistryMutation, DuplicateRegistrationDies)
{
    static const Design dupeCli(DesignKind::Baseline, "TVARAK",
                                "Test-Dupe-A", {});
    static const Design dupeDisplay(DesignKind::Baseline, "test-dupe-b",
                                    "txb-page-csums", {});
    EXPECT_DEATH(registerDesign(&dupeCli), "collides");
    EXPECT_DEATH(registerDesign(&dupeDisplay), "collides");
}

TEST(DesignRegistryMutation, NewDesignsAppendInRegistrationOrder)
{
    static const Design extra(DesignKind::Baseline, "test-extra",
                              "Test-Extra", {});
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
