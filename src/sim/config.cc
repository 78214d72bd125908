#include "sim/config.hh"

#include "sim/log.hh"

namespace tvarak {

// designName(DesignKind) is implemented by the design registry
// (src/redundancy/registry.cc), the single source of truth for
// design names.

void
SimConfig::validate() const
{
    fatal_if(cores == 0, "need at least one core");
    fatal_if(llcBanks == 0, "need at least one LLC bank");
    auto check_cache = [](const char *name, const CacheParams &p) {
        fatal_if(p.sizeBytes == 0 || p.ways == 0,
                 "%s: zero size or ways", name);
        fatal_if(p.sizeBytes % (p.ways * kLineBytes) != 0,
                 "%s: size %zu not divisible into %zu ways of 64B lines",
                 name, p.sizeBytes, p.ways);
        std::size_t sets = p.sizeBytes / (p.ways * kLineBytes);
        fatal_if((sets & (sets - 1)) != 0,
                 "%s: set count %zu not a power of two", name, sets);
    };
    check_cache("L1", l1);
    check_cache("L2", l2);
    check_cache("LLC bank", llcBank);

    fatal_if(tvarak.redundancyWays + tvarak.diffWays >= llcBank.ways,
             "TVARAK partitions (%zu red + %zu diff) leave no data ways "
             "out of %zu",
             tvarak.redundancyWays, tvarak.diffWays, llcBank.ways);
    fatal_if(tvarak.cacheBytes % kLineBytes != 0,
             "on-controller cache must hold whole lines");
    // The stripe code needs n >= 2 data members: with one, parity
    // would be a plain copy, which RsCode rejects.
    fatal_if(nvm.parityDimms < 1, "need at least one parity DIMM");
    fatal_if(nvm.dimms < nvm.parityDimms + 2,
             "striped parity needs at least 2 data DIMMs per stripe "
             "(nvm.dimms - nvm.parityDimms >= 2), got %zu DIMMs with "
             "%zu parity",
             nvm.dimms, nvm.parityDimms);
    fatal_if(nvm.dimmsPerDomain == 0 ||
             nvm.dimms % nvm.dimmsPerDomain != 0,
             "%zu DIMMs do not split into domains of %zu",
             nvm.dimms, nvm.dimmsPerDomain);
    fatal_if(nvm.dimmBytes % kPageBytes != 0,
             "NVM DIMM capacity must be page aligned");
    fatal_if(dram.sizeBytes % kPageBytes != 0,
             "DRAM capacity must be page aligned");
}

}  // namespace tvarak
