/**
 * @file
 * The paper's headline claims as executable assertions. Each test
 * runs a scaled-down experiment on the small test machine and checks
 * the *qualitative* result the paper reports — who wins, in which
 * direction, never absolute numbers. If a model change breaks one of
 * these, the reproduction has regressed.
 */

#include <gtest/gtest.h>

#include <memory>

#include "apps/fio/fio.hh"
#include "apps/redis/redis.hh"
#include "apps/trees/tree_workload.hh"
#include "harness/runner.hh"
#include "redundancy/scheme.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

WorkloadFactory
treeInsertFactory(int instances = 2)
{
    return [instances](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.preload = 2048;
        p.ops = 4096;
        p.poolBytes = 4ull << 20;
        for (int t = 0; t < instances; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

WorkloadFactory
redisFactory(RedisWorkload::Mode mode)
{
    return [mode](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        RedisWorkload::Params p;
        p.mode = mode;
        p.requests = 4096;
        p.keyspace = 4096;
        p.poolBytes = 4ull << 20;
        for (int t = 0; t < 2; t++) {
            set.workloads.push_back(std::make_unique<RedisWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

WorkloadFactory
fioFactory(FioWorkload::Pattern pattern)
{
    return [pattern](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = pattern;
        p.regionBytes = 2ull << 20;
        // 12 threads on 4 DIMMs, as in the paper: the random-write
        // penalty is a bandwidth effect and needs the full machine.
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

Cycles
runtimeOf(DesignKind design, const WorkloadFactory &make)
{
    return runExperiment(test::smallConfig(), design, make)
        .runtimeCycles;
}

/** The Table III machine with a small NVM array: claims about cache
 *  partitions, prefetching and bandwidth need the real geometry. */
SimConfig
evalConfig()
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = 32ull << 20;
    cfg.dram.sizeBytes = 32ull << 20;
    return cfg;
}

// Claim (abstract): "TVARAK reduces Redis set-only performance by only
// 3%, compared to 50% for a state-of-the-art software-only approach."
TEST(PaperClaims, TvarakFarCheaperThanSoftwareOnRedisSets)
{
    auto factory = redisFactory(RedisWorkload::Mode::SetOnly);
    Cycles base = runtimeOf(DesignKind::Baseline, factory);
    Cycles tvarak = runtimeOf(DesignKind::Tvarak, factory);
    Cycles txb_o = runtimeOf(DesignKind::TxBObjectCsums, factory);
    double tv = static_cast<double>(tvarak) / static_cast<double>(base);
    double to = static_cast<double>(txb_o) / static_cast<double>(base);
    EXPECT_LT(tv, 1.25) << "TVARAK must stay within a few percent";
    EXPECT_GT(to, tv + 0.10)
        << "software redundancy must cost far more";
}

// Claim (IV-B): the software schemes pay even on get-only workloads
// (transactional metadata writes), and page granularity pays most.
TEST(PaperClaims, SoftwareSchemesPayOnGetsPageWorstObjectNext)
{
    auto factory = redisFactory(RedisWorkload::Mode::GetOnly);
    Cycles base = runtimeOf(DesignKind::Baseline, factory);
    Cycles tvarak = runtimeOf(DesignKind::Tvarak, factory);
    Cycles txb_o = runtimeOf(DesignKind::TxBObjectCsums, factory);
    Cycles txb_p = runtimeOf(DesignKind::TxBPageCsums, factory);
    EXPECT_LT(tvarak, txb_o);
    EXPECT_LT(txb_o, txb_p);
    EXPECT_GT(txb_p, base) << "page checksums cost even for gets";
}

// Claim (IV-A): TVARAK provides efficient redundancy for inserts
// ("only 1.5% overhead ... insert-only ... tree-based stores").
TEST(PaperClaims, TreeInsertOrderingAcrossAllDesigns)
{
    auto factory = treeInsertFactory();
    Cycles base = runtimeOf(DesignKind::Baseline, factory);
    Cycles tvarak = runtimeOf(DesignKind::Tvarak, factory);
    Cycles txb_o = runtimeOf(DesignKind::TxBObjectCsums, factory);
    Cycles txb_p = runtimeOf(DesignKind::TxBPageCsums, factory);
    EXPECT_LT(static_cast<double>(tvarak) / static_cast<double>(base),
              1.30);
    EXPECT_LT(tvarak, txb_o);
    EXPECT_LT(txb_o, txb_p);
}

// Claim (IV-E): locality drives TVARAK's cost — sequential writes are
// (nearly) free, random writes are its expensive case.
TEST(PaperClaims, SequentialCheaperThanRandomForTvarak)
{
    auto seq = fioFactory(FioWorkload::Pattern::SeqWrite);
    auto rand = fioFactory(FioWorkload::Pattern::RandWrite);
    SimConfig cfg = evalConfig();
    auto runtime = [&](DesignKind d, const WorkloadFactory &f) {
        return static_cast<double>(
            runExperiment(cfg, d, f).runtimeCycles);
    };
    double seq_overhead = runtime(DesignKind::Tvarak, seq) /
        runtime(DesignKind::Baseline, seq);
    double rand_overhead = runtime(DesignKind::Tvarak, rand) /
        runtime(DesignKind::Baseline, rand);
    EXPECT_GT(rand_overhead, seq_overhead + 0.05)
        << "random writes must cost TVARAK visibly more";
    EXPECT_LT(seq_overhead, 1.10);
}

// Claim (III/IV-G): the naive controller is much slower than TVARAK;
// DAX-CL-checksums are the dominant optimization.
TEST(PaperClaims, NaiveControllerFarWorseThanTvarak)
{
    auto factory = treeInsertFactory(12);  // full machine load
    SimConfig cfg = evalConfig();
    Cycles tvarak = runExperiment(cfg, DesignKind::Tvarak, factory)
                        .runtimeCycles;
    Cycles naive =
        runExperiment(cfg, *findDesign("tvarak-naive"), factory)
            .runtimeCycles;
    EXPECT_GT(static_cast<double>(naive),
              1.5 * static_cast<double>(tvarak));
}

// Claim (IV-A, energy): efficiency shows up in energy too.
TEST(PaperClaims, TvarakEnergyBelowSoftwareSchemes)
{
    auto factory = treeInsertFactory();
    SimConfig cfg = test::smallConfig();
    double tvarak =
        runExperiment(cfg, DesignKind::Tvarak, factory).energyMj;
    double txb_p =
        runExperiment(cfg, DesignKind::TxBPageCsums, factory).energyMj;
    EXPECT_LT(tvarak, txb_p);
}

// Claim (II/III): coverage without compromise — every NVM->LLC fill of
// DAX data is verified, every DAX writeback updates redundancy.
TEST(PaperClaims, FullCoverageCounters)
{
    auto factory = fioFactory(FioWorkload::Pattern::RandWrite);
    RunResult r =
        runExperiment(test::smallConfig(), DesignKind::Tvarak, factory);
    EXPECT_GT(r.stats.readVerifications, 0u);
    // Every DAX fill is verified; the handful of extra data-reads are
    // old-data fetches for writebacks whose diff was unavailable.
    EXPECT_GE(r.stats.nvmDataReads, r.stats.readVerifications);
    EXPECT_LE(static_cast<double>(r.stats.nvmDataReads -
                                  r.stats.readVerifications),
              0.05 * static_cast<double>(r.stats.readVerifications));
    EXPECT_EQ(r.stats.redundancyUpdates, r.stats.nvmDataWrites)
        << "every DAX writeback covered";
}

}  // namespace
}  // namespace tvarak
