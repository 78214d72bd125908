/**
 * @file
 * Service front-end tests: seeded arrival streams replay exactly, the
 * log-bucketed histogram tracks exact percentiles within its error
 * bound, the dispatcher's cycle accounting is conserved, and sweeps
 * are bit-identical for any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "redundancy/registry.hh"
#include "service/arrival.hh"
#include "service/histogram.hh"
#include "service/sweep.hh"
#include "sim/rng.hh"
#include "test_util.hh"

using namespace tvarak;
using namespace tvarak::service;

namespace {

std::vector<Cycles>
gaps(const ArrivalParams &p, std::size_t n)
{
    std::unique_ptr<ArrivalProcess> a = makeArrivalProcess(p);
    std::vector<Cycles> out;
    for (std::size_t i = 0; i < n; i++)
        out.push_back(a->nextGap());
    return out;
}

double
meanOf(const std::vector<Cycles> &v)
{
    double sum = 0;
    for (Cycles g : v)
        sum += static_cast<double>(g);
    return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------- arrivals

TEST(Arrival, SameSeedReplaysExactly)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty}) {
        ArrivalParams p;
        p.kind = kind;
        p.meanGapCycles = 500.0;
        p.seed = 42;
        EXPECT_EQ(gaps(p, 4096), gaps(p, 4096));

        ArrivalParams q = p;
        q.seed = 43;
        EXPECT_NE(gaps(p, 4096), gaps(q, 4096));
    }
}

TEST(Arrival, PoissonMeanMatchesOfferedRate)
{
    ArrivalParams p;
    p.kind = ArrivalKind::Poisson;
    p.meanGapCycles = 1000.0;
    double mean = meanOf(gaps(p, 65536));
    EXPECT_NEAR(mean, 1000.0, 25.0) << "exponential gaps, mean 1/lambda";
}

TEST(Arrival, BurstyPreservesLongRunRate)
{
    // The ON-OFF stream must offer the same long-run rate as Poisson
    // at the same meanGapCycles: short intra-burst gaps are paid for
    // by long OFF gaps.
    ArrivalParams p;
    p.kind = ArrivalKind::Bursty;
    p.meanGapCycles = 1000.0;
    std::vector<Cycles> g = gaps(p, 65536);
    EXPECT_NEAR(meanOf(g), 1000.0, 50.0);
    // And it must actually be bursty: the minimum gap is the
    // intra-burst spacing, far below the mean.
    Cycles shortest = *std::min_element(g.begin(), g.end());
    EXPECT_LE(shortest, static_cast<Cycles>(
                  p.burstGapFactor * p.meanGapCycles) + 1);
}

TEST(Arrival, ClosedLoopLimitIsUnitGap)
{
    ArrivalParams p;
    p.meanGapCycles = 0.0;  // closed loop
    for (Cycles g : gaps(p, 64))
        EXPECT_EQ(g, 1u);
}

// --------------------------------------------------------- histogram

TEST(Histogram, BucketGeometryRoundTrips)
{
    // Exact unit buckets below 16.
    for (Cycles v = 0; v < 16; v++) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketUpper(v), v);
    }
    // Every value must land in a bucket whose range contains it.
    for (Cycles v : {16ull, 17ull, 255ull, 256ull, 4095ull, 1ull << 40}) {
        std::size_t idx = LatencyHistogram::bucketIndex(v);
        EXPECT_LE(v, LatencyHistogram::bucketUpper(idx));
        if (idx > 0) {
            EXPECT_GT(v, LatencyHistogram::bucketUpper(idx - 1));
        }
    }
}

TEST(Histogram, PercentilesTrackExactReferenceWithinBound)
{
    // Record a heavy-tailed sample and compare against the exact
    // sorted reference: the reported quantile must be >= the exact one
    // (upper bucket edge) and within the 1/16 relative error bound.
    Rng rng(7);
    LatencyHistogram h;
    std::vector<Cycles> exact;
    for (int i = 0; i < 100000; i++) {
        double u = rng.nextDouble();
        Cycles v = static_cast<Cycles>(std::pow(10.0, 2.0 + 4.0 * u));
        h.record(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.50, 0.90, 0.99, 0.999}) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(exact.size())));
        Cycles ref = exact[rank - 1];
        Cycles got = h.percentile(q);
        EXPECT_GE(got, ref) << "q=" << q;
        EXPECT_LE(static_cast<double>(got),
                  static_cast<double>(ref) * (1.0 + 1.0 / 16.0) + 1.0)
            << "q=" << q;
    }
    EXPECT_EQ(h.count(), exact.size());
    EXPECT_EQ(h.min(), exact.front());
    EXPECT_EQ(h.max(), exact.back());
    EXPECT_EQ(h.percentile(1.0), exact.back())
        << "p100 clamps to the observed max";
}

TEST(Histogram, MergeEqualsRecordingEverything)
{
    Rng rng(3);
    LatencyHistogram all, a, b;
    for (int i = 0; i < 4096; i++) {
        Cycles v = rng.nextBounded(1u << 20);
        all.record(v);
        (i % 2 ? a : b).record(v);
    }
    a.merge(b);
    EXPECT_EQ(a, all);
    EXPECT_NE(a, b);
}

// -------------------------------------------------------- dispatcher

ServiceConfig
tinyService()
{
    ServiceConfig svc;
    svc.workload = "redis-set";
    svc.servers = 2;  // smallConfig() has 2 cores
    svc.requests = 192;
    svc.arrival.meanGapCycles = 2000.0;
    svc.arrival.seed = 9;
    return svc;
}

TEST(Service, AccountingIsConserved)
{
    // Every workload, each with two servers sharing one machine (and
    // so one file system).
    const Design *d = findDesign("baseline");
    ASSERT_NE(d, nullptr);
    for (const ServiceWorkloadInfo &w : serviceWorkloads()) {
        ServiceConfig svc = tinyService();
        svc.workload = w.name;
        ServiceResult r = runService(test::smallConfig(), *d, svc);
        const ServiceStats &s = r.service;

        EXPECT_EQ(s.requests, 192u) << w.name;
        EXPECT_EQ(s.completed, 192u)
            << w.name << ": open loop completes every request";
        EXPECT_EQ(s.latency.count(), s.completed) << w.name;
        EXPECT_EQ(s.totalLatencyCycles,
                  s.totalQueueCycles + s.totalServiceCycles)
            << w.name << ": latency = queueing delay + service time";
        EXPECT_GT(s.totalServiceCycles, 0u) << w.name;
        EXPECT_GE(s.spanCycles, s.lastArrivalCycle) << w.name;
        EXPECT_GT(s.offeredPerMcycle, 0.0) << w.name;
        EXPECT_GT(s.achievedPerMcycle, 0.0) << w.name;
        EXPECT_GE(s.maxOutstanding, 1u) << w.name;
    }
}

TEST(Service, SameSeedIsBitIdentical)
{
    const Design *d = findDesign("tvarak");
    ASSERT_NE(d, nullptr);
    ServiceResult a = runService(test::smallConfig(), *d, tinyService());
    ServiceResult b = runService(test::smallConfig(), *d, tinyService());
    EXPECT_EQ(serviceStatsDiff(a.service, b.service), "");
    EXPECT_EQ(statsDiff(a.sim, b.sim), "");

    ServiceConfig other = tinyService();
    other.arrival.seed = 10;
    ServiceResult c = runService(test::smallConfig(), *d, other);
    EXPECT_NE(serviceStatsDiff(a.service, c.service), "");
}

TEST(Service, SweepIsJobCountInvariant)
{
    // Every (design x load) point is an independent machine; the
    // assembled sweep must be bit-identical for any worker count.
    std::vector<const Design *> designs = {findDesign("baseline"),
                                           findDesign("vilamb")};
    ASSERT_NE(designs[0], nullptr);
    ASSERT_NE(designs[1], nullptr);
    ServiceConfig svc = tinyService();
    svc.requests = 96;
    SimConfig cfg = test::smallConfig();

    std::vector<double> cap1 = calibrateCapacities(cfg, designs, svc, 1);
    std::vector<double> cap4 = calibrateCapacities(cfg, designs, svc, 4);
    ASSERT_EQ(cap1.size(), 2u);
    for (std::size_t i = 0; i < cap1.size(); i++)
        EXPECT_EQ(cap1[i], cap4[i]) << designs[i]->cliName();

    const std::vector<double> fracs = {0.5, 1.0};
    std::vector<DesignSweep> s1 =
        runSweep(cfg, designs, svc, cap1, fracs, 1);
    std::vector<DesignSweep> s4 =
        runSweep(cfg, designs, svc, cap4, fracs, 4);
    ASSERT_EQ(s1.size(), s4.size());
    for (std::size_t d = 0; d < s1.size(); d++) {
        EXPECT_EQ(s1[d].kneeIndex, s4[d].kneeIndex);
        ASSERT_EQ(s1[d].points.size(), s4[d].points.size());
        for (std::size_t i = 0; i < s1[d].points.size(); i++) {
            EXPECT_EQ(serviceStatsDiff(s1[d].points[i].result.service,
                                       s4[d].points[i].result.service),
                      "")
                << designs[d]->cliName() << " point " << i;
        }
    }
}

TEST(Service, KneeDetectionUsesPrefixSemantics)
{
    auto mkSweep = [](std::vector<std::pair<double, double>> points) {
        DesignSweep sw;
        for (auto [offered, achieved] : points) {
            SweepPoint p;
            p.result.service.offeredPerMcycle = offered;
            p.result.service.achievedPerMcycle = achieved;
            sw.points.push_back(p);
        }
        detectKnee(sw);
        return sw;
    };
    // Monotone-then-saturating: knee at the last sustained point.
    EXPECT_EQ(mkSweep({{10, 10}, {20, 20}, {30, 24}}).kneeIndex, 1);
    // Saturated from the first point: no knee.
    EXPECT_EQ(mkSweep({{10, 5}, {20, 6}}).kneeIndex, -1);
    // A sustained point after a saturated one is a finite-run artifact
    // and must not resurrect the knee.
    EXPECT_EQ(mkSweep({{10, 10}, {20, 15}, {30, 30}}).kneeIndex, 0);
}

TEST(Service, FaultScheduleCompletesWithRebuild)
{
    const Design *d = findDesign("tvarak");
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->coverage().controllerKeepsParity());
    ServiceConfig svc = tinyService();
    svc.requests = 128;
    svc.faults.push_back({1, 32, 64});
    ServiceResult r = runService(test::smallConfig(), *d, svc);
    EXPECT_EQ(r.service.completed, 128u)
        << "degraded mode absorbs every request";
    EXPECT_GT(r.service.rebuildIdleLines, 0u)
        << "rebuild progressed in reactor idle gaps";

    // The fault path must not break determinism.
    ServiceResult r2 = runService(test::smallConfig(), *d, svc);
    EXPECT_EQ(serviceStatsDiff(r.service, r2.service), "");
}

TEST(Service, MultiDimmFaultScheduleCompletesWithRebuild)
{
    // Staggered two-DIMM schedule under an erasure-coded design: DIMM 1
    // fails while DIMM 0's rebuild is still in flight, so the run
    // passes through genuine two-failure operation. The open loop must
    // still complete every request, the single rebuild engine must
    // adopt both DIMMs, and the whole thing must stay deterministic.
    const Design *d = findDesign("tvarak-rs4+2");
    ASSERT_NE(d, nullptr);
    ASSERT_GE(d->coverage().survivableFailures, 2u);
    ServiceConfig svc = tinyService();
    svc.requests = 160;
    svc.faults = {{0, 32, 64}, {1, 80, 112}};
    ServiceResult r = runService(test::smallConfig(), *d, svc);
    EXPECT_EQ(r.service.completed, 160u)
        << "two-failure operation absorbs every request";
    EXPECT_GT(r.service.rebuildIdleLines, 0u)
        << "rebuild progressed in reactor idle gaps";
    EXPECT_GT(r.sim.rebuildLines, 0u);
    EXPECT_EQ(r.sim.corruptionsDetected, 0u)
        << "a 2-of-6 schedule is inside rs4+2's budget";

    ServiceResult r2 = runService(test::smallConfig(), *d, svc);
    EXPECT_EQ(serviceStatsDiff(r.service, r2.service), "");
}

}  // namespace
