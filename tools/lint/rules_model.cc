/**
 * @file
 * Whole-repo rules R9..R13. Each runs over the RepoModel (include
 * graph + lexed sources) rather than one file at a time:
 *
 *   R9  architecture layering: every resolved include edge must stay
 *       inside one module or point strictly down the layering DAG,
 *       and the file-level include graph must be acyclic.
 *   R10 determinism hazards on stats-feeding paths: rand()/srand(),
 *       std::random_device, wall-clock reads, iteration over
 *       unordered containers, and pointer-keyed ordered containers in
 *       any file whose include closure reaches sim/stats.hh (or that
 *       lives under tools/fault/, tools/trace/ or bench/).
 *   R11 stats dataflow: every row of the Stats counter table in
 *       src/sim/stats.hh must be referenced somewhere in src/ outside
 *       sim/stats.*; a counter nothing touches can only print 0.
 *   R12 config-knob drift: every row of the knob tables in
 *       src/sim/config.hh must be read somewhere in src/ outside
 *       sim/config.* — knobs that are dead, or set but never
 *       consulted, silently diverge from the tables.
 *   R13 lock discipline: no naked lock()/unlock() calls in
 *       src/harness/; critical sections use scoped guards.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "repo_model.hh"
#include "tokens.hh"

namespace tvarak::lint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------- R9

void
ruleR9(const RepoModel &m, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < m.files.size(); i++) {
        const SourceFile &f = m.files[i];
        for (const IncludeEdge &e : m.includes[i]) {
            if (!e.resolved())
                continue;
            const std::string &to = m.files[e.target].path;
            if (layerEdgeLegal(f.path, to))
                continue;
            if (f.allows("R9", e.line))
                continue;
            std::ostringstream msg;
            msg << "upward include: " << moduleOf(f.path) << " (rank "
                << moduleRank(moduleOf(f.path)) << ") must not include "
                << to << " [" << moduleOf(to) << ", rank "
                << moduleRank(moduleOf(to))
                << "]; invert the dependency (callback / interface "
                   "header) or move the shared piece down the DAG "
                   "(DESIGN.md section 11)";
            out.push_back({f.path, e.line, "R9", msg.str()});
        }
    }

    for (const std::vector<std::string> &cycle : findIncludeCycles(m)) {
        // Anchor the finding on the lexicographically-first member's
        // include that stays inside the cycle.
        const std::string &anchor = cycle.front();
        std::size_t idx = m.byPath.at(anchor);
        std::size_t line = 1;
        for (const IncludeEdge &e : m.includes[idx]) {
            if (e.resolved() &&
                std::find(cycle.begin(), cycle.end(),
                          m.files[e.target].path) != cycle.end()) {
                line = e.line;
                break;
            }
        }
        if (m.files[idx].allows("R9", line))
            continue;
        std::ostringstream msg;
        msg << "include cycle: ";
        for (const std::string &p : cycle)
            msg << p << " -> ";
        msg << cycle.front()
            << "; break it with a forward declaration or an interface "
               "header";
        out.push_back({anchor, line, "R9", msg.str()});
    }
}

// --------------------------------------------------------------- R10

/** Is @p file on a path that feeds reported output (stats dumps,
 *  trace/campaign JSON, bench tables)? */
bool
statsSensitive(const RepoModel &m, std::size_t file)
{
    const std::string &p = m.files[file].path;
    if (startsWith(p, "tools/fault/") || startsWith(p, "tools/trace/") ||
        startsWith(p, "bench/"))
        return true;
    return m.closureHas(file, "sim/stats.hh");
}

const char *const kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

/** Names declared (variable, member or parameter) with an unordered
 *  container type in @p toks. */
std::set<std::string>
unorderedDeclNames(const std::vector<Tok> &toks)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); i++) {
        if (toks[i].kind != Tok::Ident)
            continue;
        bool isUnordered = false;
        for (const char *c : kUnorderedContainers)
            isUnordered |= toks[i].text == c;
        if (!isUnordered || i + 1 >= toks.size() ||
            toks[i + 1].kind != Tok::Punct || toks[i + 1].text != "<")
            continue;
        // Skip the template argument list.
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < toks.size(); j++) {
            if (toks[j].kind != Tok::Punct)
                continue;
            if (toks[j].text == "<")
                depth++;
            else if (toks[j].text == ">" && --depth == 0) {
                j++;
                break;
            }
        }
        // Past refs/pointers/cv to the declared name, if any.
        while (j < toks.size() &&
               ((toks[j].kind == Tok::Punct &&
                 (toks[j].text == "&" || toks[j].text == "*")) ||
                (toks[j].kind == Tok::Ident && toks[j].text == "const")))
            j++;
        if (j < toks.size() && toks[j].kind == Tok::Ident)
            names.insert(toks[j].text);
    }
    return names;
}

void
ruleR10(const RepoModel &m, std::vector<Finding> &out)
{
    for (std::size_t fi = 0; fi < m.files.size(); fi++) {
        if (!statsSensitive(m, fi))
            continue;
        const SourceFile &f = m.files[fi];
        std::vector<Tok> toks = tokenizeFile(f.code);

        // Unordered-container names visible here: declared in this
        // file or anywhere in its include closure (members declared
        // in a header, iterated in the .cc).
        std::set<std::string> unordered;
        for (std::size_t ci : m.includeClosure(fi)) {
            std::set<std::string> names =
                unorderedDeclNames(tokenizeFile(m.files[ci].code));
            unordered.insert(names.begin(), names.end());
        }

        auto report = [&](std::size_t line, const std::string &what,
                          const std::string &fix) {
            if (f.allows("R10", line))
                return;
            out.push_back({f.path, line, "R10",
                           what + " on a stats/report-feeding path; " +
                               fix});
        };

        for (std::size_t i = 0; i < toks.size(); i++) {
            const Tok &t = toks[i];
            if (t.kind != Tok::Ident)
                continue;
            bool called = i + 1 < toks.size() &&
                toks[i + 1].kind == Tok::Punct && toks[i + 1].text == "(";
            bool member = i > 0 && toks[i - 1].kind == Tok::Punct &&
                (toks[i - 1].text == "." ||
                 (toks[i - 1].text == ">" && i > 1 &&
                  toks[i - 2].text == "-"));

            if ((t.text == "rand" || t.text == "srand") && called &&
                !member) {
                report(t.line, "rand()/srand()",
                       "derive values from the seeded SimConfig RNG or "
                       "a fixed constant");
            } else if (t.text == "random_device") {
                report(t.line, "std::random_device",
                       "seed from SimConfig so runs replay bit-exactly");
            } else if (t.text == "system_clock" ||
                       t.text == "high_resolution_clock") {
                report(t.line, "wall-clock time (std::chrono::" + t.text +
                           ")",
                       "use std::chrono::steady_clock for intervals and "
                       "keep timestamps out of reported output");
            } else if (t.text == "time" && called && !member) {
                report(t.line, "time()",
                       "wall-clock reads make reruns diverge; use a "
                       "fixed seed or steady_clock intervals");
            } else if (t.text == "for" && called) {
                // Range-for over an unordered container: iteration
                // order is implementation-defined.
                int depth = 0;
                std::size_t colon = 0;
                for (std::size_t j = i + 1; j < toks.size(); j++) {
                    if (toks[j].kind != Tok::Punct)
                        continue;
                    if (toks[j].text == "(")
                        depth++;
                    else if (toks[j].text == ")" && --depth == 0)
                        break;
                    else if (toks[j].text == ":" && depth == 1 &&
                             j + 1 < toks.size() &&
                             toks[j + 1].text != ":" &&
                             toks[j - 1].text != ":") {
                        colon = j;
                        break;
                    }
                }
                if (colon != 0 && colon + 2 < toks.size() &&
                    toks[colon + 1].kind == Tok::Ident &&
                    toks[colon + 2].kind == Tok::Punct &&
                    toks[colon + 2].text == ")" &&
                    unordered.count(toks[colon + 1].text)) {
                    report(t.line,
                           "iteration over unordered container '" +
                               toks[colon + 1].text + "'",
                           "copy to a sorted vector (or use "
                           "std::map/std::set) before iterating");
                }
            } else if ((t.text == "map" || t.text == "set") && i >= 2 &&
                       toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
                       i + 1 < toks.size() && toks[i + 1].text == "<") {
                // Pointer-keyed ordered container: ordered by address,
                // which varies run to run.
                int depth = 0;
                for (std::size_t j = i + 1; j < toks.size(); j++) {
                    if (toks[j].kind != Tok::Punct)
                        continue;
                    if (toks[j].text == "<")
                        depth++;
                    else if (toks[j].text == ">") {
                        if (--depth == 0)
                            break;
                    } else if (depth == 1 && toks[j].text == ",") {
                        break;  // key type ends at the first comma
                    } else if (depth == 1 && toks[j].text == "*") {
                        report(t.line,
                               "pointer-keyed std::" + t.text,
                               "pointer order varies run to run; key by "
                               "a stable id instead");
                        break;
                    }
                }
            }
        }
    }
}

/**
 * The member token of every `X(type, member, ...)` row in @p hdr: the
 * Stats counter table (R11) and the SimConfig knob tables (R12) are
 * written as such rows.
 */
std::vector<Tok>
tableRowMembers(const SourceFile &hdr)
{
    std::vector<Tok> members;
    std::vector<Tok> toks = tokenizeFile(hdr.code);
    for (std::size_t i = 0; i + 1 < toks.size(); i++) {
        if (toks[i].text != "X" || toks[i + 1].text != "(")
            continue;
        const Tok *member = nullptr;
        int commas = 0;
        for (std::size_t j = i + 2; j < toks.size() && toks[j].text != ")";
             j++) {
            if (toks[j].text == ",")
                commas++;
            else if (commas == 1 && toks[j].kind == Tok::Ident)
                member = &toks[j];
        }
        if (member != nullptr)
            members.push_back(*member);
    }
    return members;
}

// --------------------------------------------------------------- R11

void
ruleR11(const RepoModel &m, std::vector<Finding> &out)
{
    auto hdrIt = m.byPath.find("src/sim/stats.hh");
    if (hdrIt == m.byPath.end())
        return;
    const SourceFile &hdr = m.files[hdrIt->second];

    // "Used" = the ident appears in some src/ file other than the
    // stats pair itself (the increment sites).
    std::set<std::string> used;
    for (const SourceFile &f : m.files) {
        if (!startsWith(f.path, "src/") ||
            startsWith(f.path, "src/sim/stats."))
            continue;
        for (const Tok &t : tokenizeFile(f.code))
            if (t.kind == Tok::Ident)
                used.insert(t.text);
    }

    for (const Tok &member : tableRowMembers(hdr)) {
        if (used.count(member.text) || hdr.allows("R11", member.line))
            continue;
        out.push_back({hdr.path, member.line, "R11",
                       "stats counter '" + member.text +
                           "' is never referenced in src/ outside "
                           "sim/stats.* — it can only ever print 0"});
    }
}

// --------------------------------------------------------------- R12

void
ruleR12(const RepoModel &m, std::vector<Finding> &out)
{
    auto cfgIt = m.byPath.find("src/sim/config.hh");
    if (cfgIt == m.byPath.end())
        return;
    const SourceFile &cfg = m.files[cfgIt->second];

    // Member accesses (`.knob` / `->knob`) across src/, split into
    // reads and writes. bench/tools only *print* the knobs, so they
    // do not count as consumers.
    std::set<std::string> read, written;
    for (const SourceFile &f : m.files) {
        if (!startsWith(f.path, "src/") ||
            startsWith(f.path, "src/sim/config."))
            continue;
        std::vector<Tok> toks = tokenizeFile(f.code);
        for (std::size_t i = 1; i < toks.size(); i++) {
            if (toks[i].kind != Tok::Ident)
                continue;
            bool memberAccess = toks[i - 1].kind == Tok::Punct &&
                (toks[i - 1].text == "." ||
                 (toks[i - 1].text == ">" && i > 1 &&
                  toks[i - 2].text == "-"));
            if (!memberAccess)
                continue;
            bool assigned = i + 1 < toks.size() &&
                toks[i + 1].kind == Tok::Punct &&
                toks[i + 1].text == "=" &&
                (i + 2 >= toks.size() || toks[i + 2].text != "=");
            (assigned ? written : read).insert(toks[i].text);
        }
    }

    for (const Tok &knob : tableRowMembers(cfg)) {
        if (read.count(knob.text) || cfg.allows("R12", knob.line))
            continue;
        if (written.count(knob.text)) {
            out.push_back({cfg.path, knob.line, "R12",
                           "config knob '" + knob.text +
                               "' is set but never read in src/ — "
                               "tuning it changes nothing"});
        } else {
            out.push_back({cfg.path, knob.line, "R12",
                           "config knob '" + knob.text +
                               "' is never read in src/ — dead knob; "
                               "wire it up or delete it"});
        }
    }
}

// --------------------------------------------------------------- R13

void
ruleR13(const RepoModel &m, std::vector<Finding> &out)
{
    for (const SourceFile &f : m.files) {
        if (f.path.find("src/harness/") == std::string::npos &&
            !startsWith(f.path, "harness/"))
            continue;
        std::vector<Tok> toks = tokenizeFile(f.code);
        for (std::size_t i = 1; i + 1 < toks.size(); i++) {
            if (toks[i].kind != Tok::Ident ||
                (toks[i].text != "lock" && toks[i].text != "unlock"))
                continue;
            bool member = toks[i - 1].kind == Tok::Punct &&
                (toks[i - 1].text == "." ||
                 (toks[i - 1].text == ">" && i > 1 &&
                  toks[i - 2].text == "-"));
            bool called = toks[i + 1].kind == Tok::Punct &&
                toks[i + 1].text == "(";
            if (!member || !called || f.allows("R13", toks[i].line))
                continue;
            out.push_back({f.path, toks[i].line, "R13",
                           "naked ." + toks[i].text +
                               "() in the harness; use std::lock_guard "
                               "/ std::scoped_lock / std::unique_lock "
                               "so every exit path releases the mutex"});
        }
    }
}

}  // namespace

void
runModelRules(const RepoModel &m, std::vector<Finding> &out)
{
    ruleR9(m, out);
    ruleR10(m, out);
    ruleR11(m, out);
    ruleR12(m, out);
    ruleR13(m, out);
}

}  // namespace tvarak::lint
