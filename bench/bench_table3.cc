/**
 * @file
 * Table III: dump the active simulation parameters, one line per knob
 * (path, value, unit, doc) in SimConfig's table order, plus the
 * TVARAK area accounting of Section III-E (4 KB on-controller cache
 * per 2 MB LLC bank = 0.2% dedicated area).
 */

#include <charconv>
#include <cstdio>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace tvarak;
using namespace tvarak::bench;

int
main(int argc, char **argv)
{
    rejectDesignFlag(parseBenchArgs(
        argc, argv, "Table III: simulation parameters", "table3"));
    SimConfig cfg;  // unscaled Table III machine

    std::printf("== Table III: simulation parameters ==\n");
    forEachKnob(cfg, [](const ConfigKnob &k, auto v) {
        // Shortest text that reads back as the same value.
        char value[32] = {};
        std::to_chars(value, value + sizeof(value) - 1, v);
        std::printf("%-26s %10s %-8s %s\n", k.path().c_str(), value,
                    k.unit, k.doc);
    });

    MemorySystem mem(cfg, DesignKind::Tvarak);
    std::printf("\n== Section III-E: area accounting ==\n"
                "Dedicated TVARAK SRAM per controller: %zu B = %.2f%% "
                "of its LLC bank (paper: 0.2%%)\n",
                mem.tvarak().dedicatedBytesPerController(),
                mem.tvarak().dedicatedAreaShare() * 100.0);
    return 0;
}
