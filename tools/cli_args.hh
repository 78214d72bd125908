/**
 * @file
 * Command-line plumbing shared by tvarak-trace and tvarak-fault:
 * positionals plus `--key value` / `--key=value` flags and bare
 * switches, strict number parsing, and lookup of `--design` names in
 * the design registry. Every usage error exits 2.
 */

#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "redundancy/registry.hh"

namespace tvarak::cli {

/** Parsed command line; a switch that was given maps to "1". */
struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;
};

/**
 * Split @p raw into positionals, @p valueFlags (each takes a value)
 * and @p switches (each takes none).
 * @return false on an unknown flag, a value flag without a value, or
 *         a switch given one; callers then print usage and exit 2.
 */
inline bool
parseArgs(const std::vector<std::string> &raw,
          const std::vector<std::string> &valueFlags,
          const std::vector<std::string> &switches, Args &out)
{
    auto listed = [](const std::vector<std::string> &list,
                     const std::string &k) {
        return std::find(list.begin(), list.end(), k) != list.end();
    };
    for (std::size_t i = 0; i < raw.size(); i++) {
        const std::string &a = raw[i];
        if (a.rfind("--", 0) != 0) {
            out.positional.push_back(a);
            continue;
        }
        std::string key = a;
        std::string val;
        bool hasVal = false;
        if (auto eq = a.find('='); eq != std::string::npos) {
            key = a.substr(0, eq);
            val = a.substr(eq + 1);
            hasVal = true;
        }
        if (listed(switches, key)) {
            if (hasVal)
                return false;
            out.flags[key] = "1";
            continue;
        }
        if (!listed(valueFlags, key))
            return false;
        if (!hasVal) {
            if (i + 1 >= raw.size())
                return false;
            val = raw[++i];
        }
        out.flags[key] = val;
    }
    return true;
}

/** Parse all of @p text as a decimal integer: no sign, no spaces, no
 *  trailing junk, no overflow. @return false otherwise. */
inline bool
parseU64(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** The value @p text of @p flag as an integer in [@p min, @p max];
 *  otherwise print "<tool>: bad value for <flag>: '<text>'" and exit
 *  2. */
inline std::uint64_t
parseNumber(const char *tool, const char *flag, const std::string &text,
            std::uint64_t min = 1, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (!parseU64(text, v) || v < min || v > max) {
        std::string want = max == UINT64_MAX
            ? ">= " + std::to_string(min)
            : "in [" + std::to_string(min) + ", " + std::to_string(max) +
                "]";
        std::fprintf(stderr,
                     "%s: bad value for %s: '%s' (want an integer %s)\n",
                     tool, flag, text.c_str(), want.c_str());
        std::exit(2);
    }
    return v;
}

/** The registered design named @p name; otherwise print the registry
 *  on stderr, prefixed by @p tool, and exit 2. */
inline const Design &
parseDesign(const char *tool, const std::string &name)
{
    const Design *d = findDesign(name);
    if (d == nullptr) {
        std::fprintf(stderr,
                     "%s: unknown design '%s' (registered: %s)\n", tool,
                     name.c_str(), registeredNameList().c_str());
        std::exit(2);
    }
    return *d;
}

}  // namespace tvarak::cli
