/**
 * @file
 * Shared helpers for the test suites: a small, fast machine
 * configuration and common assertions.
 */

#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "redundancy/registry.hh"
#include "sim/config.hh"

namespace tvarak::test {

/** A scaled-down machine that keeps unit tests fast: 2 cores, small
 *  caches (so evictions happen quickly), 4 x 16 MB NVM DIMMs. */
inline SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.cores = 2;
    cfg.l1 = {4 * 1024, 4, 4, 15.0, 33.0};
    cfg.l2 = {16 * 1024, 8, 7, 46.0, 94.0};
    cfg.llcBank = {64 * 1024, 16, 27, 240.0, 500.0};
    cfg.llcBanks = 4;
    cfg.dram.sizeBytes = 8ull << 20;
    cfg.nvm.dimms = 4;
    cfg.nvm.dimmBytes = 16ull << 20;
    return cfg;
}

/** Every registered design whose parity the controller keeps: TVARAK,
 *  its Fig 9 ablation points and the Reed-Solomon geometries. */
inline std::vector<const Design *>
controllerDesigns()
{
    std::vector<const Design *> out;
    for (const Design *d : allRegisteredDesigns())
        if (d->coverage().controllerKeepsParity())
            out.push_back(d);
    return out;
}

/** The cold-restart re-sync invariant, checked after
 *  MemorySystem::dropCaches(): every healthy NVM line's current value
 *  equals its media, and every degraded line's equals its
 *  reconstruction. */
inline ::testing::AssertionResult
currentMatchesMedia(MemorySystem &mem)
{
    NvmArray &nvm = mem.nvmArray();
    std::uint8_t cur[kPageBytes];
    std::uint8_t want[kPageBytes];
    for (Addr page = 0; page < nvm.totalBytes(); page += kPageBytes) {
        mem.peek(nvmDirectVaddr(page), cur, kPageBytes);
        nvm.rawRead(page, want, kPageBytes);
        if (!nvm.anyDegraded() &&
            std::memcmp(cur, want, kPageBytes) == 0)
            continue;
        for (std::size_t off = 0; off < kPageBytes; off += kLineBytes) {
            Addr g = page + off;
            bool degraded = nvm.lineDegraded(g);
            if (degraded)
                mem.reconstructLine(g, want + off, false);
            if (std::memcmp(cur + off, want + off, kLineBytes) != 0) {
                return ::testing::AssertionFailure()
                    << "current value of NVM line 0x" << std::hex << g
                    << (degraded ? " differs from its reconstruction"
                                 : " differs from its media");
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** A design's cliName as a gtest parameter name ("tvarak-rs4+2" ->
 *  "tvarak_rs4_2"). */
inline std::string
paramName(const Design *design)
{
    std::string n = design->cliName();
    for (char &c : n)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

}  // namespace tvarak::test

