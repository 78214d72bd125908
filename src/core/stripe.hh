/**
 * @file
 * Recovery of one line from the rest of its stripe row: the one
 * decode path for every parity geometry (RAID-5 is RsCode(n, 1)).
 *
 * The layout names the row's n+k members at the line's in-page
 * offset, the NVM array says which of them are degraded, and the
 * stripe code decodes. Only how a surviving member is read differs
 * between callers: the TVARAK engine's at-rest world reads data from
 * media and parity through its coherent redundancy caches, while the
 * software world reads current values (MemorySystem::memberLine).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "checksum/gf256.hh"
#include "layout/layout.hh"
#include "nvm/nvm.hh"
#include "sim/types.hh"

namespace tvarak {

/** Reads surviving stripe member line @p member into @p out;
 *  @p parity tells a parity member from a data member. */
using StripeMemberReader =
    std::function<void(Addr member, bool parity, std::uint8_t *out)>;

/**
 * Recover data-region line @p line (a data or a parity member) from
 * the other members of its stripe row. The target and every member
 * on a degraded line are erasures; @p read is called once for each
 * other member, data members in coding-index order, then parity
 * roles. Untimed: a caller that models the reads charges them in
 * @p read.
 *
 * @return false past the code's erasure budget; @p out is then
 *         poison, so downstream checksums see a detected loss.
 */
bool recoverStripeLine(const Layout &layout, const RsCode &code,
                       const NvmArray &nvm, Addr line, std::uint8_t *out,
                       const StripeMemberReader &read);

}  // namespace tvarak
