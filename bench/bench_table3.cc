/**
 * @file
 * Table III: dump the active simulation parameters, plus the TVARAK
 * area accounting of Section III-E (4 KB on-controller cache per 2 MB
 * LLC bank = 0.2% dedicated area).
 */

#include <cstdio>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace tvarak;
using namespace tvarak::bench;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv, "Table III: simulation parameters",
                   "table3");
    SimConfig cfg;  // unscaled Table III machine

    std::printf("== Table III: simulation parameters ==\n");
    std::printf("Cores            %zu, x86-64-like OOO accounting, %.2f GHz\n",
                cfg.cores, cfg.coreGhz);
    auto cacheRow = [](const char *name, const CacheParams &p) {
        std::printf("%-16s %zu KB, %zu-way, %llu cycle latency, "
                    "%.0f/%.0f pJ hit/miss\n",
                    name, p.sizeBytes / 1024, p.ways,
                    static_cast<unsigned long long>(p.latency),
                    p.hitEnergy, p.missEnergy);
    };
    cacheRow("L1 caches", cfg.l1);
    cacheRow("L2 caches", cfg.l2);
    std::printf("L3 cache         %zu MB (%zu x %zu MB banks), %zu-way, "
                "%llu cycle latency,\n"
                "                 shared, inclusive, 64B lines, "
                "%.0f/%.0f pJ hit/miss\n",
                cfg.llcBanks * cfg.llcBank.sizeBytes >> 20, cfg.llcBanks,
                cfg.llcBank.sizeBytes >> 20, cfg.llcBank.ways,
                static_cast<unsigned long long>(cfg.llcBank.latency),
                cfg.llcBank.hitEnergy, cfg.llcBank.missEnergy);
    std::printf("DRAM             %.0f ns reads/writes, %.1f nJ/access "
                "(documented assumption)\n",
                cfg.dram.accessNs, cfg.dram.accessEnergy / 1000.0);
    std::printf("NVM              %zu DIMMs x %zu MB, %.0f/%.0f ns "
                "read/write, %.1f/%.1f nJ per read/write\n",
                cfg.nvm.dimms, cfg.nvm.dimmBytes >> 20, cfg.nvm.readNs,
                cfg.nvm.writeNs, cfg.nvm.readEnergy / 1000.0,
                cfg.nvm.writeEnergy / 1000.0);
    std::printf("                 geometry (pinned by the selected "
                "design; see tvarak-rs4+2/-rs6+2):\n"
                "                 parityDimms=%zu, dimmsPerDomain=%zu\n",
                cfg.nvm.parityDimms, cfg.nvm.dimmsPerDomain);
    std::printf("TVARAK           %zu B %zu-way on-controller cache, "
                "%llu cycle latency, %.0f/%.0f pJ hit/miss,\n"
                "                 %llu cycles address range matching, "
                "%llu cycle per csum/parity computation,\n"
                "                 %zu/%zu LLC ways for redundancy/diffs\n",
                cfg.tvarak.cacheBytes, cfg.tvarak.cacheWays,
                static_cast<unsigned long long>(cfg.tvarak.cacheLatency),
                cfg.tvarak.cacheHitEnergy, cfg.tvarak.cacheMissEnergy,
                static_cast<unsigned long long>(
                    cfg.tvarak.rangeMatchLatency),
                static_cast<unsigned long long>(
                    cfg.tvarak.computeLatency),
                cfg.tvarak.redundancyWays, cfg.tvarak.diffWays);

    MemorySystem mem(cfg, DesignKind::Tvarak);
    double area = static_cast<double>(
                      mem.tvarak().dedicatedBytesPerController()) /
        static_cast<double>(cfg.llcBank.sizeBytes);
    std::printf("\n== Section III-E: area accounting ==\n"
                "Dedicated TVARAK SRAM per controller: %zu B per %zu MB "
                "LLC bank = %.2f%% (paper: 0.2%%)\n",
                mem.tvarak().dedicatedBytesPerController(),
                cfg.llcBank.sizeBytes >> 20, area * 100.0);
    std::printf("Timing-model knobs (this reproduction): "
                "storeIssueCycles=%llu, storeMissLatencyFactor=%.2f,\n"
                "prefetchDegree=%zu, occupancyRead/WriteFactor=%.2f/%.2f, "
                "swChecksumBytesPerCycle=%.0f\n",
                static_cast<unsigned long long>(cfg.storeIssueCycles),
                cfg.storeMissLatencyFactor, cfg.prefetchDegree,
                cfg.nvm.occupancyReadFactor, cfg.nvm.occupancyWriteFactor,
                cfg.swChecksumBytesPerCycle);
    return 0;
}
