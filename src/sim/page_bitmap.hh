/**
 * @file
 * GranuleBitmap: one bit per fixed-size granule of a flat byte image.
 *
 * Two granules are in use:
 *  - PageBitmap, one bit per 4 KiB page, names the pages that changed
 *    since the owner last cleared it. Each NVM DIMM keeps one over its
 *    media and the memory system keeps one over its NVM current-value
 *    store, so a cold restart (MemorySystem::dropCaches) copies only
 *    the pages that either side changed instead of the whole image.
 *  - LineBitmap, one bit per 64 B line, is the memory system's lost
 *    set: the NVM lines whose current value died with a DIMM.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hh"

namespace tvarak {

template <std::size_t GranuleBytes>
class GranuleBitmap
{
  public:
    /** An empty set over an image of @p bytes. */
    explicit GranuleBitmap(std::size_t bytes)
        : words_((granuleOf(bytes + GranuleBytes - 1) + kWordBits - 1) /
                     kWordBits,
                 Word{0})
    {}

    /** Mark the granule holding byte @p addr of the image. */
    void mark(Addr addr) { wordOf(addr) |= bitOf(addr); }

    /** Unmark the granule holding byte @p addr. */
    void unmark(Addr addr) { wordOf(addr) &= ~bitOf(addr); }

    /** Is the granule holding byte @p addr marked? */
    bool
    test(Addr addr) const
    {
        return (words_[granuleOf(addr) / kWordBits] & bitOf(addr)) != 0;
    }

    /** Mark every granule that [@p addr, @p addr + @p len) touches. */
    void
    markRange(Addr addr, std::size_t len)
    {
        for (Addr g = addr - addr % GranuleBytes; g < addr + len;
             g += GranuleBytes)
            mark(g);
    }

    /** Call @p fn(granule index) for every marked granule, in
     *  ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); w++) {
            for (Word bits = words_[w]; bits != 0; bits &= bits - 1) {
                fn(w * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

    void clear() { std::fill(words_.begin(), words_.end(), Word{0}); }

  private:
    using Word = std::uint64_t;
    static constexpr std::size_t kWordBits =
        std::numeric_limits<Word>::digits;

    static std::uint64_t granuleOf(Addr addr) { return addr / GranuleBytes; }
    static Word
    bitOf(Addr addr)
    {
        return Word{1} << (granuleOf(addr) % kWordBits);
    }
    Word &wordOf(Addr addr) { return words_[granuleOf(addr) / kWordBits]; }

    std::vector<Word> words_;
};

/** One bit per 4 KiB page: the changed-page sets. */
using PageBitmap = GranuleBitmap<kPageBytes>;
/** One bit per 64 B line: the memory system's lost set. */
using LineBitmap = GranuleBitmap<kLineBytes>;

}  // namespace tvarak
