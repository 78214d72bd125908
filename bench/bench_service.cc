/**
 * @file
 * Open-loop service sweep: tail latency vs offered load, per design.
 *
 * The bench calibrates each design's closed-loop capacity, then
 * sweeps every selected design over fractions of its own capacity
 * (src/service/sweep.hh), printing the latency table, the
 * knee-of-the-curve summary, and — with --json — a deterministic
 * results/bench_service.json (no timestamps: the same seed must
 * produce a byte-identical file, which the service_fault_reports
 * ctest pins against tests/golden/service/).
 *
 * Designs are resolved through the registry and keyed by cliName, so
 * the Fig-9 tvarak variants can be swept side by side; the default
 * design set is *every* registered design. --fail-dimm additionally
 * fails DIMM 1 a quarter into the run and replaces it at the halfway
 * point (online rebuild in reactor idle gaps), making degraded-mode
 * and rebuild-in-progress tail latency visible; --fail-dimms i,j,...
 * generalizes that to a staggered multi-DIMM schedule where each
 * later DIMM fails while the previous one is still rebuilding, so the
 * erasure-coded designs' two-failure operation shows up at the knee
 * and the tail. Designs that cannot rebuild online (no controller
 * keeps their parity) or cannot survive the schedule's
 * failure count are skipped in either mode; fault-DIMM indices are
 * validated against every selected design's (post-adjustConfig) DIMM
 * count before anything runs.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "service/sweep.hh"

using namespace tvarak;
using namespace tvarak::bench;
using namespace tvarak::service;

namespace {

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

void
writeServiceJson(const std::string &path, const ServiceConfig &svc,
                 std::size_t scale,
                 const std::vector<DesignSweep> &sweeps,
                 bool faultMode,
                 const std::vector<std::size_t> &faultDimms)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    out << "{\n"
        << "  \"bench\": \"service\",\n"
        << "  \"workload\": \"" << svc.workload << "\",\n"
        << "  \"arrival\": \"" << arrivalKindName(svc.arrival.kind)
        << "\",\n"
        << "  \"servers\": " << svc.servers << ",\n"
        << "  \"requests\": " << svc.requests << ",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"seed\": " << svc.arrival.seed << ",\n"
        << "  \"fault_mode\": " << (faultMode ? "true" : "false") << ",\n"
        << "  \"fault_dimms\": [";
    for (std::size_t i = 0; i < faultDimms.size(); i++)
        out << (i ? ", " : "") << faultDimms[i];
    out << "],\n"
        << "  \"designs\": [\n";
    for (std::size_t d = 0; d < sweeps.size(); d++) {
        const DesignSweep &sw = sweeps[d];
        out << "    {\"design\": \"" << sw.design->cliName() << "\",\n"
            << "     \"capacity_per_mcycle\": "
            << fmtDouble(sw.capacityPerMcycle) << ",\n";
        if (sw.kneeIndex >= 0) {
            const ServiceStats &k =
                sw.points[static_cast<std::size_t>(sw.kneeIndex)]
                    .result.service;
            out << "     \"knee_load_frac\": "
                << fmtDouble(sw.points[static_cast<std::size_t>(
                       sw.kneeIndex)].loadFrac)
                << ",\n     \"knee_achieved_per_mcycle\": "
                << fmtDouble(k.achievedPerMcycle) << ",\n";
        } else {
            out << "     \"knee_load_frac\": null,\n"
                << "     \"knee_achieved_per_mcycle\": null,\n";
        }
        out << "     \"points\": [\n";
        for (std::size_t i = 0; i < sw.points.size(); i++) {
            const SweepPoint &p = sw.points[i];
            const ServiceStats &s = p.result.service;
            out << "       {\"load_frac\": " << fmtDouble(p.loadFrac)
                << ", \"offered_per_mcycle\": "
                << fmtDouble(s.offeredPerMcycle)
                << ", \"achieved_per_mcycle\": "
                << fmtDouble(s.achievedPerMcycle)
                << ", \"completed\": " << s.completed
                << ", \"p50\": " << s.latency.percentile(0.50)
                << ", \"p99\": " << s.latency.percentile(0.99)
                << ", \"p999\": " << s.latency.percentile(0.999)
                << ", \"max\": " << s.latency.max()
                << ", \"mean\": " << fmtDouble(s.latency.mean())
                << ", \"max_outstanding\": " << s.maxOutstanding
                << ", \"idle_drains\": " << s.idleDrains
                << ", \"sustained\": "
                << (s.achievedPerMcycle >=
                    kKneeThreshold * s.offeredPerMcycle
                    ? "true" : "false")
                << "}" << (i + 1 < sw.points.size() ? "," : "") << "\n";
        }
        out << "     ]}" << (d + 1 < sweeps.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workloads;
    for (const ServiceWorkloadInfo &w : serviceWorkloads())
        workloads += (workloads.empty() ? "" : ", ") + std::string(w.name);
    BenchArgs args = parseBenchArgs(
        argc, argv,
        "Open-loop service front-end: latency vs offered load per design",
        "service",
        {{"--workload", "NAME",
          "service workload (" + workloads + "); default redis-set"},
         {"--servers", "N", "reactor threads (default 4)"},
         {"--requests", "N", "open-loop requests per point (default 4096)"},
         {"--arrival", "KIND", "arrival process: poisson | bursty"},
         {"--seed", "N", "arrival/request stream seed (default 1)"},
         {"--fail-dimm", nullptr,
          "fail DIMM 1 at 1/4 of the run, replace + rebuild at 1/2"},
         {"--fail-dimms", "LIST",
          "comma-separated DIMM indices failed in a staggered schedule "
          "(each later DIMM fails mid-rebuild of the previous one)"}});
    const cli::Args &a = args.cmdline;
    ServiceConfig svc;
    svc.scale = args.scale;
    svc.workload = a.value("--workload", svc.workload);
    bool known = false;
    for (const ServiceWorkloadInfo &w : serviceWorkloads())
        known = known || svc.workload == w.name;
    if (!known)
        a.fail("unknown service workload '" + svc.workload + "'");
    svc.servers = a.number("--servers", svc.servers);
    svc.requests = a.number("--requests", svc.requests);
    if (a.has("--arrival") &&
        !parseArrivalKind(a.value("--arrival"), svc.arrival.kind)) {
        a.fail("unknown arrival kind '" + a.value("--arrival") +
               "' (poisson, bursty)");
    }
    svc.arrival.seed = a.number("--seed", svc.arrival.seed);
    bool faultMode = a.has("--fail-dimm");

    std::vector<std::size_t> faultDimms;
    if (a.has("--fail-dimms")) {
        if (faultMode)
            a.fail("--fail-dimm and --fail-dimms are mutually exclusive");
        faultDimms = a.list("--fail-dimms");
        for (std::size_t i = 0; i < faultDimms.size(); i++) {
            for (std::size_t j = 0; j < i; j++) {
                if (faultDimms[i] == faultDimms[j]) {
                    a.fail("--fail-dimms indices must be distinct (DIMM " +
                           std::to_string(faultDimms[i]) +
                           " appears twice)");
                }
            }
        }
        // Staggered schedule: each DIMM's rebuild window is a quarter
        // of the run, and the next failure lands one sixteenth after
        // the previous replacement — well inside its idle-gap rebuild,
        // so every later failure is a fail-during-rebuild event.
        std::size_t base = svc.requests / 4;
        std::size_t gap = svc.requests / 16 > 0 ? svc.requests / 16 : 1;
        std::size_t at = base + 1;
        for (std::size_t dimm : faultDimms) {
            DimmFault f;
            f.dimm = dimm;
            f.failAt = at;
            f.replaceAt = at + base;
            if (f.failAt > svc.requests) {
                a.fail("--fail-dimms schedule does not fit in " +
                       std::to_string(svc.requests) +
                       " requests; raise --requests");
            }
            svc.faults.push_back(f);
            at = f.replaceAt + gap;
        }
    } else if (faultMode) {
        svc.faults.push_back(
            {1, svc.requests / 4 + 1, svc.requests / 2 + 1});
        faultDimms.push_back(1);
    }
    bool anyFault = !svc.faults.empty();

    // Default to every registered design: the service layer turns each
    // one into a latency-vs-load curve, variants included.
    std::vector<const Design *> designs =
        args.designs.empty() ? allRegisteredDesigns() : args.designs;
    if (anyFault) {
        // A staggered --fail-dimms schedule can hold every listed DIMM
        // dead-or-rebuilding at once, so a design must survive that
        // many concurrent failures to run under it.
        std::size_t need = svc.faults.size();
        const char *flag = faultMode ? "--fail-dimm" : "--fail-dimms";
        std::vector<const Design *> survivors;
        for (const Design *d : designs) {
            const Coverage &cov = d->coverage();
            if (!cov.controllerKeepsParity()) {
                std::fprintf(stderr,
                             "  skipping %s under %s (no controller "
                             "keeps its parity, so it cannot rebuild "
                             "a DIMM while writes continue)\n",
                             d->cliName().c_str(), flag);
            } else if (cov.survivableFailures < need) {
                std::fprintf(stderr,
                             "  skipping %s under %s (cannot survive "
                             "%zu concurrent DIMM %s)\n",
                             d->cliName().c_str(), flag, need,
                             need == 1 ? "loss" : "losses");
            } else {
                survivors.push_back(d);
            }
        }
        designs = survivors;
        if (designs.empty()) {
            std::fprintf(stderr,
                         "error: no selected design survives the "
                         "fault schedule\n");
            return 1;
        }
    }

    SimConfig cfg = evalConfig();
    // Range-check fault indices against each surviving design's own
    // machine shape (adjustConfig can change the DIMM count) before
    // anything runs, so a bad index is a clean usage error instead of
    // a panic deep inside MemorySystem.
    for (const Design *d : designs) {
        SimConfig probe = cfg;
        d->adjustConfig(probe);
        for (std::size_t dimm : faultDimms) {
            if (dimm >= probe.nvm.dimms) {
                a.fail("--fail-dimms index " + std::to_string(dimm) +
                       " out of range: design " + d->cliName() +
                       " has " + std::to_string(probe.nvm.dimms) +
                       " DIMMs");
            }
        }
    }

    std::fprintf(stderr, "  calibrating closed-loop capacity per "
                 "design (%s, %zu servers)...\n",
                 svc.workload.c_str(), svc.servers);
    std::vector<double> capacities =
        calibrateCapacities(cfg, designs, svc, args.jobs);
    std::string faultNote;
    if (anyFault) {
        faultNote = "  [fault mode: DIMM";
        if (faultDimms.size() > 1)
            faultNote += "s";
        for (std::size_t i = 0; i < faultDimms.size(); i++) {
            faultNote += i ? "," : " ";
            faultNote += std::to_string(faultDimms[i]);
        }
        faultNote += faultDimms.size() > 1
            ? " fail staggered mid-run]" : " fails mid-run]";
    }
    std::printf("== bench_service: %s, %s arrivals, %zu servers, "
                "%zu requests/point%s ==\n",
                svc.workload.c_str(),
                arrivalKindName(svc.arrival.kind), svc.servers,
                svc.requests, faultNote.c_str());

    std::vector<DesignSweep> sweeps =
        runSweep(cfg, designs, svc, capacities, defaultLoadFracs(),
                 args.jobs);

    std::vector<LatencyPoint> table;
    std::vector<KneeRow> knees;
    for (const DesignSweep &sw : sweeps) {
        for (const SweepPoint &p : sw.points) {
            const ServiceStats &s = p.result.service;
            LatencyPoint lp;
            lp.design = sw.design->cliName();
            lp.loadFrac = p.loadFrac;
            lp.offeredPerMcycle = s.offeredPerMcycle;
            lp.achievedPerMcycle = s.achievedPerMcycle;
            lp.p50 = s.latency.percentile(0.50);
            lp.p99 = s.latency.percentile(0.99);
            lp.p999 = s.latency.percentile(0.999);
            lp.maxLatency = s.latency.max();
            lp.sustained = s.achievedPerMcycle >=
                kKneeThreshold * s.offeredPerMcycle;
            table.push_back(std::move(lp));
        }
        KneeRow kr;
        kr.design = sw.design->cliName();
        kr.capacityPerMcycle = sw.capacityPerMcycle;
        kr.found = sw.kneeIndex >= 0;
        if (kr.found) {
            const SweepPoint &k =
                sw.points[static_cast<std::size_t>(sw.kneeIndex)];
            kr.kneeFrac = k.loadFrac;
            kr.kneeAchievedPerMcycle =
                k.result.service.achievedPerMcycle;
            kr.p999AtKnee = k.result.service.latency.percentile(0.999);
        }
        knees.push_back(std::move(kr));
    }

    printLatencySection(
        "Latency vs offered load (cycles; load = fraction of each "
        "design's capacity)", table);
    printKneeTable("Knee of the curve (largest sustained load)", knees);

    if (args.json) {
        writeServiceJson("results/bench_service.json", svc, args.scale,
                         sweeps, anyFault, faultDimms);
    }
    return 0;
}
