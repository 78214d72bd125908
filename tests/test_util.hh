/**
 * @file
 * Shared helpers for the test suites: a small, fast machine
 * configuration and common assertions.
 */

#pragma once

#include <cctype>
#include <string>
#include <vector>

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

