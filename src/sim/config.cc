#include "sim/config.hh"

#include <cstdint>
#include <limits>

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
    // A sharer mask (Cache::Line::sharers, 32 bits) holds a bit per
    // core in the LLC and a bit per controller, one per bank, in the
    // redundancy partition.
    constexpr std::size_t kMaxSharers =
        std::numeric_limits<std::uint32_t>::digits;
    fatal_if(cores > kMaxSharers, "cores (%zu) exceeds the %zu bits of "
             "a sharer mask", cores, kMaxSharers);
    fatal_if(llcBanks > kMaxSharers, "llcBanks (%zu) exceeds the %zu "
             "bits of a sharer mask", llcBanks, kMaxSharers);
    auto check_cache = [](const char *name, std::size_t bytes,
                          std::size_t ways) {
        fatal_if(bytes == 0 || ways == 0, "%s: zero size or ways", name);
        fatal_if(bytes % (ways * kLineBytes) != 0,
                 "%s: size %zu not divisible into %zu ways of 64B lines",
                 name, bytes, ways);
        std::size_t sets = bytes / (ways * kLineBytes);
        fatal_if((sets & (sets - 1)) != 0,
                 "%s: set count %zu not a power of two", name, sets);
    };
    check_cache("L1", l1.sizeBytes, l1.ways);
    check_cache("L2", l2.sizeBytes, l2.ways);
    check_cache("LLC bank", llcBank.sizeBytes, llcBank.ways);
    check_cache("on-controller cache", tvarak.cacheBytes, tvarak.cacheWays);

    fatal_if(tvarak.redundancyWays + tvarak.diffWays >= llcBank.ways,
             "TVARAK partitions (%zu red + %zu diff) leave no data ways "
             "out of %zu",
             tvarak.redundancyWays, tvarak.diffWays, llcBank.ways);
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
