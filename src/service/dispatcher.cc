#include "service/dispatcher.hh"

#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <vector>

#include "redundancy/rebuild.hh"
#include "redundancy/scheme.hh"
#include "sim/log.hh"

namespace tvarak::service {

namespace {

/** Demand cycles @p fn adds to thread @p tid. */
template <typename Fn>
Cycles
measuredCycles(MemorySystem &mem, int tid, Fn &&fn)
{
    Cycles before = mem.stats().threadCycles[static_cast<std::size_t>(tid)];
    fn();
    Cycles after = mem.stats().threadCycles[static_cast<std::size_t>(tid)];
    return after - before;
}

}  // namespace

std::string
serviceStatsDiff(const ServiceStats &a, const ServiceStats &b)
{
    std::ostringstream os;
    auto field = [&os](const char *name, auto va, auto vb) {
        if (os.tellp() == 0 && !(va == vb)) {
            os << name << ": " << va << " vs " << vb;
        }
    };
    field("requests", a.requests, b.requests);
    field("completed", a.completed, b.completed);
    field("lastArrivalCycle", a.lastArrivalCycle, b.lastArrivalCycle);
    field("spanCycles", a.spanCycles, b.spanCycles);
    field("offeredPerMcycle", a.offeredPerMcycle, b.offeredPerMcycle);
    field("achievedPerMcycle", a.achievedPerMcycle, b.achievedPerMcycle);
    field("totalServiceCycles", a.totalServiceCycles,
          b.totalServiceCycles);
    field("totalQueueCycles", a.totalQueueCycles, b.totalQueueCycles);
    field("totalLatencyCycles", a.totalLatencyCycles,
          b.totalLatencyCycles);
    field("maxOutstanding", a.maxOutstanding, b.maxOutstanding);
    field("idleDrains", a.idleDrains, b.idleDrains);
    field("idleDrainCycles", a.idleDrainCycles, b.idleDrainCycles);
    field("rebuildIdleLines", a.rebuildIdleLines, b.rebuildIdleLines);
    if (os.tellp() == 0 && a.latency != b.latency) {
        os << "latency histogram: count " << a.latency.count() << " vs "
           << b.latency.count() << ", max " << a.latency.max() << " vs "
           << b.latency.max();
    }
    return os.str();
}

ServiceResult
runService(const SimConfig &cfg, const Design &design,
           const ServiceConfig &svc)
{
    panic_if(svc.servers == 0, "service needs at least one server");
    panic_if(svc.servers > cfg.cores,
             "service servers (%zu) exceed cores (%zu)", svc.servers,
             cfg.cores);
    panic_if(svc.requests == 0, "service needs at least one request");

    MemorySystem mem(cfg, design);
    DaxFs fs(mem);
    std::unique_ptr<RedundancyScheme> scheme = design.makeScheme(mem);

    std::vector<std::unique_ptr<RequestSource>> sources;
    for (std::size_t s = 0; s < svc.servers; s++) {
        auto src = makeSource(svc.workload, mem, fs,
                              static_cast<int>(s), scheme.get(),
                              svc.scale, svc.arrival.seed);
        panic_if(src == nullptr, "unknown service workload '%s'",
                 svc.workload.c_str());
        sources.push_back(std::move(src));
    }
    for (auto &src : sources)
        src->setup();
    // Setup (preload) is outside the measured window, like
    // runExperiment's beforeMeasure: the sweep measures steady state.
    if (scheme)
        for (std::size_t s = 0; s < svc.servers; s++)
            scheme->drain(static_cast<int>(s));
    mem.flushAll();
    mem.stats().reset();

    std::unique_ptr<ArrivalProcess> arrivals =
        makeArrivalProcess(svc.arrival);
    std::unique_ptr<RebuildEngine> rebuild;

    for (const DimmFault &f : svc.faults) {
        // mem.config(), not cfg: the design's adjustConfig may have
        // changed the DIMM count (the erasure-coded variants do).
        panic_if(f.dimm >= mem.config().nvm.dimms,
                 "fault schedule names DIMM %zu but the machine has "
                 "%zu DIMMs", f.dimm, mem.config().nvm.dimms);
    }

    ServiceStats out;
    out.requests = svc.requests;

    std::vector<Cycles> freeAt(svc.servers, 0);
    // Outstanding = assigned requests not yet completed at the current
    // arrival instant (the open-loop backlog).
    std::priority_queue<Cycles, std::vector<Cycles>,
                        std::greater<Cycles>> completions;

    Cycles now = 0;
    Cycles lastCompletion = 0;
    for (std::uint64_t req = 1; req <= svc.requests; req++) {
        now += arrivals->nextGap();

        for (const DimmFault &f : svc.faults) {
            if (f.failAt != 0 && req == f.failAt)
                mem.failDimm(f.dimm);
            if (f.replaceAt != 0 && req == f.replaceAt) {
                mem.replaceDimm(f.dimm);
                // One engine sweeps every replaced DIMM: step()'s
                // resync adopts DIMMs replaced after construction.
                if (!rebuild)
                    rebuild = std::make_unique<RebuildEngine>(mem, &fs);
            }
        }

        while (!completions.empty() && completions.top() <= now)
            completions.pop();

        // FCFS: the earliest-free reactor takes the request
        // (ties break toward the lowest index — deterministic).
        std::size_t server = 0;
        for (std::size_t s = 1; s < svc.servers; s++) {
            if (freeAt[s] < freeAt[server])
                server = s;
        }
        int tid = static_cast<int>(server);

        Cycles readyAt = freeAt[server];
        if (svc.idleDrain && now > readyAt &&
            (scheme != nullptr || rebuild != nullptr)) {
            // Reactor idle gap: run the idle pollers. Their cycles are
            // real — a long drain can delay this very request — but
            // below saturation they hide in the gap. The rebuild step
            // runs even when the engine looks done: its resync adopts
            // DIMMs replaced after the previous sweep finished.
            Cycles drained = measuredCycles(mem, tid, [&] {
                if (scheme)
                    scheme->drain(tid);
                if (rebuild) {
                    out.rebuildIdleLines +=
                        rebuild->step(svc.rebuildLinesPerIdle);
                }
            });
            if (drained > 0) {
                out.idleDrains++;
                out.idleDrainCycles += drained;
                readyAt += drained;
            }
        }

        Cycles start = now > readyAt ? now : readyAt;
        Cycles serviceCycles = measuredCycles(mem, tid, [&] {
            sources[server]->serve(req);
        });
        Cycles completion = start + serviceCycles;
        freeAt[server] = completion;
        if (completion > lastCompletion)
            lastCompletion = completion;

        completions.push(completion);
        if (completions.size() > out.maxOutstanding)
            out.maxOutstanding = completions.size();

        Cycles queueCycles = start - now;
        out.latency.record(completion - now);
        out.totalServiceCycles += serviceCycles;
        out.totalQueueCycles += queueCycles;
        out.totalLatencyCycles += completion - now;
        out.completed++;
    }
    out.lastArrivalCycle = now;

    // Epilogue (outside the latency accounting): finish deferred
    // redundancy and any rebuild, then flush — the covered/rebuilt
    // state is what the sim counters summarize.
    if (scheme)
        for (std::size_t s = 0; s < svc.servers; s++)
            scheme->drain(static_cast<int>(s));
    if (rebuild)
        rebuild->runToCompletion();
    mem.flushAll();

    out.spanCycles = lastCompletion > now ? lastCompletion : now;
    double span = static_cast<double>(out.spanCycles);
    double arrivalSpan = static_cast<double>(out.lastArrivalCycle);
    out.offeredPerMcycle = arrivalSpan > 0.0
        ? static_cast<double>(out.requests) * 1e6 / arrivalSpan : 0.0;
    out.achievedPerMcycle = span > 0.0
        ? static_cast<double>(out.completed) * 1e6 / span : 0.0;

    ServiceResult result;
    result.workload = svc.workload;
    result.design = design.cliName();
    result.service = out;
    result.sim = mem.stats();
    return result;
}

}  // namespace tvarak::service
