/**
 * @file
 * The service dispatcher: an open-loop G/G/c queue over the simulated
 * machine, modeled on SPDK's reactor/event loop.
 *
 * Requests arrive on a single queue (timestamps from an
 * ArrivalProcess) and are served FCFS by `servers` single-threaded
 * reactors, each owning a private RequestSource. The dispatcher
 * advances simulated time itself: a request's *service time* is the
 * demand-cycle delta its serve() call adds to the server thread's
 * Stats::threadCycles counter, its *queueing delay* is how long it sat
 * waiting for a reactor, and its reported latency is the sum — so
 * saturation shows up as unbounded queueing, exactly as in an
 * open-loop load test.
 *
 * Reactor idle behaviour mirrors SPDK's idle pollers: when a reactor
 * has no request waiting, it drains deferred redundancy work
 * (RedundancyScheme::drain — Vilamb's asynchronous checksums) and
 * steps an in-progress DIMM rebuild. Idle work is charged real cycles
 * and can delay the next request (a poll iteration is not preempted),
 * but below saturation it hides in the arrival gaps — which is the
 * mechanism that separates deferred-redundancy designs from
 * synchronous ones at the tail.
 *
 * Optional fault hooks: fail DIMMs at given request indices and
 * replace them at later ones, turning degraded-mode and
 * rebuild-in-progress tail latency into measurable quantities. The
 * schedule may hold several DIMMs at once (staggered so a later
 * failure lands mid-rebuild of an earlier one); a single RebuildEngine
 * adopts every replaced DIMM through its resync pass.
 */

#pragma once

#include <string>
#include <vector>

#include "redundancy/registry.hh"
#include "service/arrival.hh"
#include "service/histogram.hh"
#include "service/source.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace tvarak::service {

/**
 * One entry of a DIMM fault schedule: fail @p dimm when request
 * @p failAt arrives, replace it (starting an online rebuild) when
 * request @p replaceAt arrives. Indices are 1-based; 0 disables the
 * event, so a fail-only entry leaves the DIMM dead for the rest of the
 * run. Entries may overlap in time — a later failure landing while an
 * earlier DIMM is still rebuilding is exactly the fail-during-rebuild
 * scenario the erasure-coded designs are built to survive.
 */
struct DimmFault {
    std::size_t dimm = 1;
    std::size_t failAt = 0;
    std::size_t replaceAt = 0;
};

struct ServiceConfig {
    std::string workload = "redis-set";
    std::size_t scale = 1;
    std::size_t servers = 4;
    std::size_t requests = 4096;
    ArrivalParams arrival;
    /** Drain deferred redundancy + rebuild work in reactor idle gaps. */
    bool idleDrain = true;
    /** Rebuild lines swept per idle gap while a rebuild is active. */
    std::size_t rebuildLinesPerIdle = 64;
    /** DIMM fault schedule (empty = fault-free). */
    std::vector<DimmFault> faults;
};

struct ServiceStats {
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    /** Arrival span: cycle of the last arrival. */
    Cycles lastArrivalCycle = 0;
    /** Completion span: cycle of the last completion (after final
     *  drains). */
    Cycles spanCycles = 0;
    /** Requests per Mcycle the arrival stream offered / the machine
     *  actually sustained. */
    double offeredPerMcycle = 0.0;
    double achievedPerMcycle = 0.0;
    LatencyHistogram latency;
    Cycles totalServiceCycles = 0;
    Cycles totalQueueCycles = 0;
    Cycles totalLatencyCycles = 0;  //!< == queue + service, conserved
    std::uint64_t maxOutstanding = 0;
    std::uint64_t idleDrains = 0;
    Cycles idleDrainCycles = 0;
    std::uint64_t rebuildIdleLines = 0;
};

/**
 * Exact field-by-field comparison (doubles compared bitwise: the
 * determinism contract is bit-identical runs). @return empty string
 * when equal, else a one-line description of the first difference.
 */
std::string serviceStatsDiff(const ServiceStats &a, const ServiceStats &b);

struct ServiceResult {
    std::string workload;
    std::string design;   //!< registry cliName
    ServiceStats service;
    Stats sim{1, 1};      //!< machine counters over the measured window
};

/**
 * Run one service experiment: build the machine under @p design, set
 * up one RequestSource per server, reset stats, and dispatch
 * @p svc.requests open-loop requests. Fatal on unknown workload or
 * servers > cores.
 */
ServiceResult runService(const SimConfig &cfg, const Design &design,
                         const ServiceConfig &svc);

}  // namespace tvarak::service
