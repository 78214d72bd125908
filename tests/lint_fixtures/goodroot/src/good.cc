#include <cstddef>

// Mirrors sim/types.hh: address math goes through named constants.
constexpr std::size_t kLineBytes = 64;

std::size_t
lineOffsetOf(std::size_t addr)
{
    return addr % kLineBytes;
}
