#include "checksum/checksum.hh"

#include "kernels/kernels.hh"

namespace tvarak {

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t crc)
{
    return kernels::ops().crc32c(data, len, crc);
}

std::uint64_t
lineChecksum(const void *line)
{
    // Widen to 8 bytes so eight checksums pack exactly into one line;
    // mix the length in the high word so a line checksum can never be
    // confused with a page checksum of the same bytes.
    return kDaxClCsumTag | crc32c(line, kLineBytes);
}

std::uint64_t
pageChecksum(const void *page)
{
    return kPageCsumTag | crc32c(page, kPageBytes);
}

void
xorLine(void *dst, const void *src)
{
    kernels::ops().xorInto(dst, src, kLineBytes);
}

void
xorLineInto(void *dst, const void *a, const void *b)
{
    kernels::ops().xorDiff3(dst, a, b, kLineBytes);
}

bool
lineIsZero(const void *line)
{
    return kernels::ops().isZero(line, kLineBytes);
}

}  // namespace tvarak
