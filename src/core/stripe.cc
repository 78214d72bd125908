#include "core/stripe.hh"

#include <cstring>
#include <vector>

#include "sim/log.hh"

namespace tvarak {

bool
recoverStripeLine(const Layout &layout, const RsCode &code,
                  const NvmArray &nvm, Addr line, std::uint8_t *out,
                  const StripeMemberReader &read)
{
    const std::size_t n = code.n();
    const std::size_t total = n + code.k();
    std::vector<Addr> pages;
    layout.stripeDataPages(line, pages);  // coding-index order

    // Scratch for the other members: the decode reads only entries
    // that @p read (survivors) or the decode itself (erasures) wrote.
    std::uint8_t bufs[RsCode::kMaxMembers][kLineBytes];
    std::uint8_t *ptrs[RsCode::kMaxMembers];
    bool present[RsCode::kMaxMembers];
    std::size_t target = total;
    for (std::size_t m = 0; m < total; m++) {
        bool parity = m >= n;
        Addr member = parity ? layout.parityLineOf(line, m - n)
                             : pages[m] + pageOffset(line);
        // The target is always an erasure, even when its media is
        // readable: recovery rebuilds lines whose *content* is
        // corrupt, and a decode that trusted the target's bytes would
        // hand them straight back. It decodes straight into @p out.
        present[m] = member != line && !nvm.lineDegraded(member);
        ptrs[m] = member == line ? out : bufs[m];
        if (member == line)
            target = m;
        if (present[m])
            read(member, parity, ptrs[m]);
    }
    panic_if(target == total, "recoverStripeLine: %llx not in its stripe",
             static_cast<unsigned long long>(line));
    if (!code.decode(ptrs, present)) {
        // More members lost than the code tolerates: loud poison,
        // never stale bytes.
        std::memset(out, NvmDimm::kPoisonByte, kLineBytes);
        return false;
    }
    return true;
}

}  // namespace tvarak
