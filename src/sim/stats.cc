#include "sim/stats.hh"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace tvarak {

Cycles
Stats::maxThreadCycles() const
{
    Cycles m = 0;
    for (Cycles c : threadCycles)
        m = std::max(m, c);
    return m;
}

Cycles
Stats::maxDimmBusyCycles() const
{
    Cycles m = 0;
    for (Cycles c : dimmBusyCycles)
        m = std::max(m, c);
    return m;
}

Cycles
Stats::runtimeCycles() const
{
    return std::max(maxThreadCycles(), maxDimmBusyCycles());
}

void
Stats::reset()
{
    std::fill(threadCycles.begin(), threadCycles.end(), 0);
    std::fill(dimmBusyCycles.begin(), dimmBusyCycles.end(), 0);
#define TVARAK_STATS_RESET(type, member, key) member = 0;
    TVARAK_STATS_COUNTERS(TVARAK_STATS_RESET)
#undef TVARAK_STATS_RESET
}

void
Stats::dump(std::ostream &os) const
{
    // Keys are padded to a 26-column field, with at least one space.
    auto row = [&os](std::string_view key, auto value) {
        constexpr std::size_t kKeyWidth = 26;
        std::size_t pad =
            key.size() < kKeyWidth ? kKeyWidth - key.size() : 1;
        os << key << std::string(pad, ' ') << value << "\n";
    };
    row("runtime.cycles", runtimeCycles());
    row("runtime.maxThreadCycles", maxThreadCycles());
    row("runtime.maxDimmBusyCycles", maxDimmBusyCycles());
#define TVARAK_STATS_DUMP(type, member, key)             \
    row(key, member);                                    \
    if (std::string_view(key) == "energy.tvarak.pJ")     \
        row("energy.total.pJ", totalEnergy());
    TVARAK_STATS_COUNTERS(TVARAK_STATS_DUMP)
#undef TVARAK_STATS_DUMP
}

namespace {

/** @return true (with @p out set) if @p a and @p b differ. */
template <typename T>
bool
diffScalar(const char *name, T a, T b, std::string &out)
{
    if (a == b)
        return false;
    std::ostringstream os;
    os << name << ": " << a << " != " << b;
    out = os.str();
    return true;
}

bool
diffVector(const char *name, const std::vector<Cycles> &a,
           const std::vector<Cycles> &b, std::string &out)
{
    if (a.size() != b.size()) {
        std::ostringstream os;
        os << name << ": size " << a.size() << " != " << b.size();
        out = os.str();
        return true;
    }
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i] != b[i]) {
            std::ostringstream os;
            os << name << "[" << i << "]: " << a[i] << " != " << b[i];
            out = os.str();
            return true;
        }
    }
    return false;
}

}  // namespace

std::string
statsDiff(const Stats &a, const Stats &b)
{
    std::string d;
    if (diffVector("threadCycles", a.threadCycles, b.threadCycles, d) ||
        diffVector("dimmBusyCycles", a.dimmBusyCycles, b.dimmBusyCycles,
                   d)) {
        return d;
    }
    // Fields are named by their member spelling, not the dump key.
#define TVARAK_STATS_DIFF(type, member, key)        \
    if (diffScalar(#member, a.member, b.member, d)) \
        return d;
    TVARAK_STATS_COUNTERS(TVARAK_STATS_DIFF)
#undef TVARAK_STATS_DIFF
    return "";
}

}  // namespace tvarak
