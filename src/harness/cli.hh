/**
 * @file
 * The one command-line parser of every bench and tool.
 *
 * A binary declares its grammar as a Tool: one Command per subcommand
 * (or a single unnamed one), each a table of Flag rows. Args parses
 * argv against those rows and generates the usage text from them.
 * Every binary follows one contract:
 *
 *  - a value flag takes `--flag v` or `--flag=v`, a switch takes no
 *    value; only a repeatable flag may be given twice;
 *  - integers are decimal: no sign, space, trailing junk or overflow,
 *    and each flag keeps its own [min, max];
 *  - `--help` prints the usage on stdout and exits 0;
 *  - a usage error (an unknown flag, a missing or empty value, a
 *    switch given a value, a second copy, a wrong operand count, a bad
 *    number or name) prints `<tool>: <why>` and the usage on stderr
 *    and exits 2, before any simulation starts.
 *
 * Header-only: the simulator library itself compiles none of it.
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

/** One flag row: `--name VALUE`, or a bare switch if @c value is
 *  null. */
struct Flag {
    const char *name;         //!< e.g. "--seed"
    const char *value;        //!< usage placeholder, e.g. "N"
    std::string help;         //!< one line of --help
    bool repeatable = false;  //!< may be given more than once
};

/** One command: the word that selects it ("" in a binary without
 *  subcommands), its operands and its flag rows. */
struct Command {
    const char *name;
    const char *operands;  //!< usage synopsis, e.g. "<file.trace>"
    int arity;             //!< operand count; -1 = any number
    std::vector<Flag> flags;
};

/** A binary's grammar. */
struct Tool {
    std::string name;   //!< prefix of every usage error
    std::string about;  //!< first line of the usage; "" = none
    std::vector<Command> commands;
};

/** Parse all of @p text as a decimal integer in [@p min, @p max]. */
inline bool
parseInteger(const std::string &text, std::uint64_t min, std::uint64_t max,
             std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end && out >= min && out <= max;
}

/** Parse @p text as a comma-separated list of integers ("0,1"). */
inline bool
parseList(const std::string &text, std::vector<std::size_t> &out)
{
    out.clear();
    for (std::size_t pos = 0; pos <= text.size();) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::uint64_t v = 0;
        if (!parseInteger(text.substr(pos, end - pos), 0, SIZE_MAX, v))
            return false;
        out.push_back(static_cast<std::size_t>(v));
        pos = end + 1;
    }
    return true;
}

/** The usage of @p tool: of its command @p only, or of all of them. */
inline std::string
usage(const Tool &tool, const Command *only = nullptr)
{
    auto row = [](std::string head, const std::string &help) {
        head.resize(std::max<std::size_t>(head.size(), 17), ' ');
        return "  " + head + "  " + help + "\n";
    };
    std::string out = tool.about.empty() ? "" : tool.about + "\n";
    for (const Command &c : tool.commands) {
        if (only != nullptr && only != &c)
            continue;
        std::string line = "usage: " + tool.name;
        for (const char *word : {c.name, c.operands})
            line += *word != '\0' ? std::string(" ") + word : "";
        std::string help;
        for (const Flag &f : c.flags) {
            std::string head = f.name;
            if (f.value != nullptr)
                head += std::string(" ") + f.value;
            std::string item = "[" + head + "]" +
                (f.repeatable ? "..." : "");
            if (line.size() + 1 + item.size() > 79) {
                out += line + "\n";
                line = "      ";
            }
            line += " " + item;
            help += row(head, f.help);
        }
        out += line + "\n" + help;
    }
    return out + row("--help", "print this usage and exit");
}

/** A command line parsed against a Tool; every accessor that meets a
 *  bad value exits through fail(). */
class Args {
  public:
    /** Parse @p argv; exits 0 on --help and 2 on a usage error. */
    Args(const Tool &tool, int argc, char **argv)
        : tool_(tool.name), usage_(usage(tool))
    {
        const Command *cmd = &tool.commands.front();
        int i = 1;
        if (*cmd->name != '\0') {
            std::string word = i < argc ? argv[i++] : "";
            if (word == "--help")
                help();
            cmd = nullptr;
            for (const Command &c : tool.commands)
                cmd = word == c.name ? &c : cmd;
            if (cmd == nullptr) {
                fail(word.empty() ? "missing command"
                                  : "unknown command '" + word + "'");
            }
            command = word;
            usage_ = usage(tool, cmd);
        }
        for (; i < argc; i++) {
            std::string arg = argv[i];
            if (arg.size() < 2 || arg[0] != '-') {
                positional.push_back(arg);
                continue;
            }
            std::size_t eq = arg.find('=');
            std::string name = arg.substr(0, eq);
            if (name == "--help") {
                if (eq != std::string::npos)
                    fail("--help takes no value");
                help();
            }
            const Flag *flag = nullptr;
            for (const Flag &f : cmd->flags)
                flag = name == f.name ? &f : flag;
            if (flag == nullptr)
                fail("unknown flag " + name);
            std::string value;
            if (flag->value == nullptr) {
                if (eq != std::string::npos)
                    fail(name + " takes no value");
            } else if (eq != std::string::npos) {
                value = arg.substr(eq + 1);
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                fail(name + " needs a value");
            }
            if (flag->value != nullptr && value.empty())
                fail("empty value for " + name);
            std::vector<std::string> &seen = values_[name];
            if (!seen.empty() && !flag->repeatable)
                fail(name + " given twice");
            seen.push_back(value);
        }
        std::size_t want = static_cast<std::size_t>(cmd->arity);
        if (cmd->arity >= 0 && positional.size() != want) {
            fail(want == 0 ? "unexpected argument '" + positional[0] + "'"
                           : "want " + std::to_string(want) +
                    " operand(s): " + cmd->operands);
        }
    }

    /** The selected subcommand ("" without subcommands). */
    std::string command;
    std::vector<std::string> positional;

    bool has(const std::string &flag) const
    {
        return values_.count(flag) != 0;
    }

    /** The value of @p flag, or @p dflt if it was not given. */
    std::string value(const std::string &flag,
                      const std::string &dflt = "") const
    {
        return has(flag) ? values_.at(flag).back() : dflt;
    }

    /** Every value of the repeatable @p flag, in order. */
    std::vector<std::string> values(const std::string &flag) const
    {
        return has(flag) ? values_.at(flag) : std::vector<std::string>{};
    }

    /** @p flag as an integer in [@p min, @p max], or @p dflt if it was
     *  not given. */
    std::uint64_t number(const std::string &flag, std::uint64_t dflt,
                         std::uint64_t min = 1,
                         std::uint64_t max = UINT64_MAX) const
    {
        std::uint64_t v = dflt;
        if (has(flag) && !parseInteger(value(flag), min, max, v)) {
            fail("bad value for " + flag + ": '" + value(flag) +
                 "' (want an integer " +
                 (max == UINT64_MAX
                      ? ">= " + std::to_string(min)
                      : "in [" + std::to_string(min) + ", " +
                          std::to_string(max) + "]") +
                 ")");
        }
        return v;
    }

    /** @p flag as a comma-separated index list ("0,1"). */
    std::vector<std::size_t> list(const std::string &flag) const
    {
        std::vector<std::size_t> out;
        if (!parseList(value(flag), out)) {
            fail("bad value for " + flag + ": '" + value(flag) +
                 "' (want a comma-separated index list)");
        }
        return out;
    }

    /** The registered design named @p name. */
    const Design &design(const std::string &name) const
    {
        const Design *d = findDesign(name);
        if (d == nullptr) {
            fail("unknown design '" + name +
                 "' (registered: " + registeredNameList() + ")");
        }
        return *d;
    }

    /** Print "<tool>: <why>" and the usage on stderr; exit 2. */
    [[noreturn]] void fail(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), why.c_str(),
                     usage_.c_str());
        std::exit(2);
    }

  private:
    [[noreturn]] void help() const
    {
        std::fputs(usage_.c_str(), stdout);
        std::exit(0);
    }

    std::string tool_;
    std::string usage_;
    std::map<std::string, std::vector<std::string>> values_;
};

}  // namespace tvarak::cli
