#include "mem/cache.hh"

#include "kernels/kernels.hh"
#include "sim/log.hh"

namespace tvarak {

Cache::Cache(std::string name, std::size_t sets, std::size_t ways,
             std::size_t setDivisor, bool carriesData)
    : name_(std::move(name)), sets_(sets), ways_(ways),
      setDivisor_(setDivisor)
{
    panic_if(sets == 0 || (sets & (sets - 1)) != 0,
             "%s: set count %zu not a power of two", name_.c_str(), sets);
    panic_if(ways == 0, "%s: zero ways", name_.c_str());
    setValid_.assign(sets_, 0);
    tags_.assign(sets_ * ways_, Line::kNoTag);
    stamps_.assign(sets_ * ways_, 0);
    lines_.resize(sets_ * ways_);
    if (carriesData)
        data_.resize(sets_ * ways_);
}

Cache
Cache::fromSize(std::string name, std::size_t bytes, std::size_t ways,
                std::size_t setDivisor, bool carriesData)
{
    panic_if(bytes % (ways * kLineBytes) != 0,
             "%s: %zu bytes not divisible into %zu ways", name.c_str(),
             bytes, ways);
    return Cache(std::move(name), bytes / (ways * kLineBytes), ways,
                 setDivisor, carriesData);
}

Cache::Line *
Cache::probe(Addr lineAddr)
{
    panic_if(lineOffset(lineAddr) != 0, "%s: unaligned probe",
             name_.c_str());
    // The simulator's hottest loop: a scan over the set's compact tag
    // array (kernels::findTag compares 4 ways per step on the AVX2
    // backend, one per step on the scalar fallback).
    std::size_t base = setOf(lineAddr) * ways_;
    std::size_t w = kernels::ops().findTag(&tags_[base], ways_, lineAddr);
    return w != ways_ ? &lines_[base + w] : nullptr;
}

const Cache::Line *
Cache::probe(Addr lineAddr) const
{
    return const_cast<Cache *>(this)->probe(lineAddr);
}

std::uint8_t *
Cache::dataOf(Line &line)
{
    panic_if(data_.empty(), "%s: tag-only cache has no payloads",
             name_.c_str());
    return data_[indexOf(line)].data();
}

const std::uint8_t *
Cache::dataOf(const Line &line) const
{
    return const_cast<Cache *>(this)->dataOf(const_cast<Line &>(line));
}

Cache::Line &
Cache::insert(Addr lineAddr, Victim &victim)
{
    // One pass over the set's compact tag and stamp arrays does
    // triple duty: double-insert check, first-free-way search, and
    // the LRU stamp minimum (consulted only when the set is full).
    // In steady state every set is full, so the old
    // two-scans-plus-stamp-walk shape paid three full traversals —
    // each dragging the ways' full Line structs in — where this pays
    // one over two dense arrays. Victim choice is unchanged: first
    // free way wins, else min stamp with first index on ties. Only
    // valid ways' stamps are read, which is why invalidate() and
    // reset() need not clear stamps.
    // (probe() stays on the vectorized kernels::findTag — a single
    // exact-match scan with no side lookups.)
    std::size_t set = setOf(lineAddr);
    std::size_t base = set * ways_;
    std::size_t freeWay = ways_;
    std::size_t lru = base;
    std::uint64_t lruStamp = ~std::uint64_t{0};
    for (std::size_t w = 0; w < ways_; w++) {
        std::uint64_t t = tags_[base + w];
        panic_if(t == lineAddr, "%s: double insert of %llx",
                 name_.c_str(),
                 static_cast<unsigned long long>(lineAddr));
        if (t == Line::kNoTag) {
            if (freeWay == ways_)
                freeWay = w;
        } else if (stamps_[base + w] < lruStamp) {
            lruStamp = stamps_[base + w];
            lru = base + w;
        }
    }
    std::size_t target = freeWay != ways_ ? base + freeWay : lru;
    Line &line = lines_[target];
    victim.valid = freeWay == ways_;
    if (victim.valid) {
        victim.addr = tags_[target];
        victim.dirty = line.dirty;
        victim.sharers = line.sharers;
        victim.owner = line.owner;
        if (!data_.empty())
            victim.data = data_[target];
    } else {
        valid_++;
        setValid_[set]++;
    }
    line = Line{};
    if (!data_.empty())
        data_[target].fill(0);
    tags_[target] = lineAddr;
    touch(line);
    return line;
}

void
Cache::invalidate(Addr lineAddr)
{
    if (valid_ == 0)
        return;
    if (Line *line = probe(lineAddr))
        invalidate(*line);
}

void
Cache::invalidate(Line &line)
{
    Addr &tag = tags_[indexOf(line)];
    panic_if(tag == Line::kNoTag, "%s: invalidate of an invalid line",
             name_.c_str());
    setValid_[setOf(tag)]--;
    tag = Line::kNoTag;
    line = Line{};
    valid_--;
}

void
Cache::reset()
{
    // Only valid ways hold state: insert() reads no other way's stamp.
    forEachLine([this](Line &line) { invalidate(line); });
}

}  // namespace tvarak
