/**
 * @file
 * PageBitmap: one bit per 4 KiB page of a flat byte image, naming the
 * pages that changed since the owner last cleared it.
 *
 * Each NVM DIMM keeps one over its media and the memory system keeps
 * one over its NVM current-value store, so a cold restart
 * (MemorySystem::dropCaches) copies only the pages that either side
 * changed instead of the whole image.
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

class PageBitmap
{
  public:
    /** An empty set over an image of @p bytes. */
    explicit PageBitmap(std::size_t bytes)
        : words_((pageNumber(bytes + kPageBytes - 1) + kWordBits - 1) /
                 kWordBits,
                 Word{0})
    {}

    /** Mark the page holding byte @p addr of the image. */
    void
    mark(Addr addr)
    {
        std::uint64_t page = pageNumber(addr);
        words_[page / kWordBits] |= Word{1} << (page % kWordBits);
    }

    /** Mark every page that [@p addr, @p addr + @p len) touches. */
    void
    markRange(Addr addr, std::size_t len)
    {
        for (Addr p = pageBase(addr); p < addr + len; p += kPageBytes)
            mark(p);
    }

    /** Call @p fn(pageNumber) for every marked page, in ascending
     *  order. */
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

    std::vector<Word> words_;
};

}  // namespace tvarak
