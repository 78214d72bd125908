#include "lint.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/parallel.hh"
#include "repo_model.hh"
#include "tokens.hh"

namespace fs = std::filesystem;

namespace tvarak::lint {

std::string
Finding::str() const
{
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << message;
    return os.str();
}

namespace {

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

void
tokenizeLine(const std::string &code, std::size_t lineNo,
             std::vector<Tok> &out)
{
    std::size_t i = 0;
    while (i < code.size()) {
        char c = code[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            i++;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            // Numbers incl. hex, digit separators, suffixes, floats.
            while (j < code.size() &&
                   (isIdentChar(code[j]) || code[j] == '\'' ||
                    code[j] == '.' ||
                    ((code[j] == '+' || code[j] == '-') && j > i &&
                     (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                      code[j - 1] == 'p' || code[j - 1] == 'P'))))
                j++;
            out.push_back({Tok::Number, code.substr(i, j - i), lineNo, i});
            i = j;
        } else if (isIdentChar(c)) {
            std::size_t j = i;
            while (j < code.size() && isIdentChar(code[j]))
                j++;
            out.push_back({Tok::Ident, code.substr(i, j - i), lineNo, i});
            i = j;
        } else {
            out.push_back({Tok::Punct, std::string(1, c), lineNo, i});
            i++;
        }
    }
}

std::vector<Tok>
tokenizeFile(const std::vector<std::string> &code)
{
    std::vector<Tok> toks;
    for (std::size_t i = 0; i < code.size(); i++)
        tokenizeLine(code[i], i + 1, toks);
    return toks;
}

std::uint64_t
numberValue(const std::string &text)
{
    std::string t;
    for (char c : text)
        if (c != '\'')
            t += c;
    if (t.find('.') != std::string::npos)
        return 0;
    return std::strtoull(t.c_str(), nullptr, 0);
}

bool
isFloatLiteral(const std::string &text)
{
    if (text.size() > 1 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        return false;  // hex
    if (text.find('.') != std::string::npos)
        return true;
    // 1e9 style.
    return text.find('e') != std::string::npos ||
        text.find('E') != std::string::npos;
}

bool
SourceFile::allows(const std::string &rule, std::size_t line) const
{
    auto lineAllows = [&](std::size_t n) {
        if (n < 1 || n > raw.size())
            return false;
        const std::string &s = raw[n - 1];
        std::size_t p = s.find("lint:allow(");
        if (p == std::string::npos)
            return false;
        std::size_t open = p + std::string("lint:allow(").size() - 1;
        std::size_t close = s.find(')', open);
        if (close == std::string::npos)
            return false;
        std::string list = s.substr(open + 1, close - open - 1);
        std::istringstream is(list);
        std::string item;
        while (std::getline(is, item, ',')) {
            item.erase(0, item.find_first_not_of(" \t"));
            item.erase(item.find_last_not_of(" \t") + 1);
            if (item == rule)
                return true;
        }
        return false;
    };
    return lineAllows(line) || lineAllows(line - 1);
}

SourceFile
lexText(const std::string &text, const std::string &reportPath)
{
    SourceFile f;
    f.path = reportPath;

    {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            f.raw.push_back(line);
        if (!text.empty() && text.back() == '\n') {
            // getline drops the final empty segment; nothing to add.
        }
    }

    enum State { Code, LineComment, BlockComment, Str, Chr };
    State st = Code;
    std::string code;
    std::string lit;
    std::size_t litLine = 1;
    std::size_t lineNo = 1;

    for (std::size_t i = 0; i < text.size(); i++) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == LineComment || st == Str || st == Chr)
                st = Code;  // unterminated literal: recover
            f.code.push_back(code);
            code.clear();
            lineNo++;
            continue;
        }
        switch (st) {
        case Code:
            if (c == '/' && n == '/') {
                st = LineComment;
                code += "  ";
                i++;
            } else if (c == '/' && n == '*') {
                st = BlockComment;
                code += "  ";
                i++;
            } else if (c == '"') {
                st = Str;
                lit.clear();
                litLine = lineNo;
                code += ' ';
            } else if (c == '\'') {
                // Digit separator (1'000) vs char literal.
                if (i > 0 && isIdentChar(text[i - 1]) &&
                    std::isdigit(static_cast<unsigned char>(text[i - 1]))) {
                    code += c;
                } else {
                    st = Chr;
                    code += ' ';
                }
            } else {
                code += c;
            }
            break;
        case LineComment:
            code += ' ';
            break;
        case BlockComment:
            code += ' ';
            if (c == '*' && n == '/') {
                st = Code;
                code += ' ';
                i++;
            }
            break;
        case Str:
            if (c == '\\' && n != '\0') {
                lit += c;
                lit += n;
                code += "  ";
                i++;
            } else if (c == '"') {
                st = Code;
                f.strings.push_back({litLine, lit});
                code += ' ';
            } else {
                lit += c;
                code += ' ';
            }
            break;
        case Chr:
            if (c == '\\' && n != '\0') {
                code += "  ";
                i++;
            } else if (c == '\'') {
                st = Code;
                code += ' ';
            } else {
                code += ' ';
            }
            break;
        }
    }
    if (!code.empty() || f.code.size() < f.raw.size())
        f.code.push_back(code);
    while (f.code.size() < f.raw.size())
        f.code.emplace_back();
    return f;
}

SourceFile
lexFile(const fs::path &file, const std::string &reportPath)
{
    std::ifstream is(file, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + file.string());
    std::ostringstream buf;
    buf << is.rdbuf();
    return lexText(buf.str(), reportPath);
}

namespace {

// ---------------------------------------------------------------- R1

const std::set<std::uint64_t> kGeometryLiterals = {8, 63, 64, 4095, 4096};

/** Does @p id smell like address arithmetic? */
bool
isAddressishIdent(const std::string &id)
{
    std::string l = toLower(id);
    static const char *const kPlain[] = {
        "addr", "vaddr", "page", "stripe", "csum", "checksum",
        "offset", "dax", "parity",
    };
    for (const char *k : kPlain)
        if (l.find(k) != std::string::npos)
            return true;
    // "line" needs care: inline / baseline / pipeline / newline /
    // online / deadline are not address math.
    static const char *const kNotLine[] = {
        "inline", "baseline", "pipeline", "newline", "online", "deadline",
    };
    for (const char *k : kNotLine) {
        std::size_t n = std::string_view(k).size();
        std::size_t p = 0;
        while ((p = l.find(k, p)) != std::string::npos) {
            for (std::size_t i = 0; i < n; i++)
                l[p + i] = '#';
            p += n;
        }
    }
    return l.find("line") != std::string::npos;
}

/** Nearest non-space char before @p col (or '\0'), and the one before
 *  it (to recognise << and >>). */
std::pair<char, char>
prevChars(const std::string &s, std::size_t col)
{
    std::size_t i = col;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(s[i - 1])))
        i--;
    char a = i > 0 ? s[i - 1] : '\0';
    char b = i > 1 ? s[i - 2] : '\0';
    return {a, b};
}

std::pair<char, char>
nextChars(const std::string &s, std::size_t col)
{
    std::size_t i = col;
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        i++;
    char a = i < s.size() ? s[i] : '\0';
    char b = i + 1 < s.size() ? s[i + 1] : '\0';
    return {a, b};
}

bool
isArithAdjacent(const std::string &code, std::size_t start, std::size_t end)
{
    auto isOp = [](char a, char b) {
        switch (a) {
        case '*': case '/': case '%': case '&': case '|': case '^':
            return true;
        case '<': return b == '<';
        case '>': return b == '>';
        default: return false;
        }
    };
    auto [pa, pb] = prevChars(code, start);
    // For "<< 20" the nearest-prev char of the literal is the second
    // '<'; pb is the first.
    if (isOp(pa, pa == '<' || pa == '>' ? pb : '\0') ||
        ((pa == '<' || pa == '>') && pb == pa))
        return true;
    auto [na, nb] = nextChars(code, end);
    return isOp(na, nb);
}

void
ruleR1(const SourceFile &f, std::vector<Finding> &out)
{
    // The geometry constants themselves are defined from raw literals.
    if (f.path.ends_with("sim/types.hh"))
        return;
    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        const std::string &code = f.code[ln];
        std::vector<Tok> toks;
        tokenizeLine(code, ln + 1, toks);
        bool addressish = std::any_of(
            toks.begin(), toks.end(), [](const Tok &t) {
                return t.kind == Tok::Ident && isAddressishIdent(t.text);
            });
        if (!addressish)
            continue;
        for (const Tok &t : toks) {
            if (t.kind != Tok::Number || isFloatLiteral(t.text))
                continue;
            std::uint64_t v = numberValue(t.text);
            if (!kGeometryLiterals.count(v))
                continue;
            if (!isArithAdjacent(code, t.col, t.col + t.text.size()))
                continue;
            if (f.allows("R1", ln + 1))
                continue;
            out.push_back(
                {f.path, ln + 1, "R1",
                 "naked geometry literal " + t.text +
                     " in address math; use kLineBytes / kPageBytes / "
                     "kChecksumBytes / kChecksumsPerLine "
                     "(sim/types.hh) or a named constant"});
        }
    }
}

// ---------------------------------------------------------------- R4

void
ruleR4(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.path.ends_with(".hh") && !f.path.ends_with(".h"))
        return;

    // Guard check: first non-blank code line must open a guard.
    bool guarded = false;
    std::string firstDirective;
    for (const std::string &code : f.code) {
        std::string t = code;
        t.erase(0, t.find_first_not_of(" \t"));
        t.erase(t.find_last_not_of(" \t") + 1);
        if (t.empty())
            continue;
        firstDirective = t;
        break;
    }
    if (firstDirective.rfind("#pragma", 0) == 0 &&
        firstDirective.find("once") != std::string::npos) {
        guarded = true;
    } else if (firstDirective.rfind("#ifndef", 0) == 0) {
        for (const std::string &code : f.code)
            if (code.find("#define") != std::string::npos) {
                guarded = true;
                break;
            }
    }
    if (!guarded && !f.allows("R4", 1))
        out.push_back({f.path, 1, "R4",
                       "header has no #pragma once (preferred) or "
                       "include guard"});

    // `using namespace` at header scope. Namespace braces do not count
    // as scope depth; function/class braces do.
    std::vector<Tok> toks;
    for (std::size_t i = 0; i < f.code.size(); i++)
        tokenizeLine(f.code[i], i + 1, toks);
    int depth = 0;
    bool pendingNs = false;
    std::vector<bool> nsBrace;
    for (std::size_t i = 0; i < toks.size(); i++) {
        const Tok &t = toks[i];
        if (t.kind == Tok::Ident && t.text == "namespace") {
            bool usingDirective =
                i > 0 && toks[i - 1].kind == Tok::Ident &&
                toks[i - 1].text == "using";
            if (usingDirective) {
                if (depth == 0 && !f.allows("R4", t.line))
                    out.push_back({f.path, t.line, "R4",
                                   "'using namespace' at header scope "
                                   "leaks into every includer"});
            } else {
                pendingNs = true;
            }
        } else if (t.kind == Tok::Punct && t.text == "{") {
            nsBrace.push_back(pendingNs);
            if (!pendingNs)
                depth++;
            pendingNs = false;
        } else if (t.kind == Tok::Punct && t.text == "}") {
            if (!nsBrace.empty()) {
                if (!nsBrace.back())
                    depth--;
                nsBrace.pop_back();
            }
        } else if (t.kind == Tok::Punct && t.text == ";") {
            pendingNs = false;
        }
    }
}

// ---------------------------------------------------------------- R5

bool
isTimingName(const std::string &id)
{
    std::string l = toLower(id);
    static const char *const kSuffixes[] = {
        "latency", "energy", "cycles", "ns", "ghz", "nanos", "picojoules",
    };
    for (const char *s : kSuffixes) {
        std::string suf(s);
        if (l.size() >= suf.size() &&
            l.compare(l.size() - suf.size(), suf.size(), suf) == 0)
            return true;
    }
    return false;
}

void
ruleR5(const SourceFile &f, std::vector<Finding> &out)
{
    bool covered = false;
    for (const char *dir : {"/mem/", "/nvm/", "/core/"})
        if (f.path.find(dir) != std::string::npos ||
            f.path.rfind(std::string(dir).substr(1), 0) == 0)
            covered = true;
    if (!covered)
        return;

    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        std::vector<Tok> toks;
        tokenizeLine(f.code[ln], ln + 1, toks);
        for (std::size_t i = 0; i < toks.size(); i++) {
            const Tok &t = toks[i];
            if (t.kind == Tok::Number && isFloatLiteral(t.text)) {
                double v = std::strtod(t.text.c_str(), nullptr);
                if (v == 0.0 || v == 0.5 || v == 1.0)
                    continue;
                if (f.allows("R5", ln + 1))
                    continue;
                out.push_back({f.path, ln + 1, "R5",
                               "inline floating-point constant " + t.text +
                                   " in a timing/energy module; move it "
                                   "into sim/config.hh"});
            } else if (t.kind == Tok::Ident && isTimingName(t.text) &&
                       i + 2 < toks.size() &&
                       toks[i + 1].kind == Tok::Punct &&
                       toks[i + 1].text == "=" &&
                       toks[i + 2].kind == Tok::Number &&
                       !isFloatLiteral(toks[i + 2].text) &&
                       numberValue(toks[i + 2].text) >= 2) {
                if (f.allows("R5", ln + 1))
                    continue;
                out.push_back({f.path, ln + 1, "R5",
                               "timing constant assigned inline ('" +
                                   t.text + " = " + toks[i + 2].text +
                                   "'); parameters belong in "
                                   "sim/config.hh"});
            }
        }
    }
}

// ---------------------------------------------------------------- R6

const std::set<std::string> kThreadingHeaders = {
    "thread", "mutex", "shared_mutex", "condition_variable",
    "stop_token", "future", "semaphore", "barrier", "latch",
};

const std::set<std::string> kThreadingIdents = {
    "thread", "jthread", "mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
    "condition_variable", "condition_variable_any", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock", "stop_token",
    "stop_source", "future", "shared_future", "promise", "async",
    "barrier", "latch", "counting_semaphore", "binary_semaphore",
};

/** The one subtree allowed to touch raw threading primitives. */
bool
isHarnessPath(const std::string &path)
{
    return path.find("src/harness/") != std::string::npos ||
        path.rfind("harness/", 0) == 0;
}

void
ruleR6(const SourceFile &f, std::vector<Finding> &out)
{
    if (isHarnessPath(f.path))
        return;
    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        const std::string &code = f.code[ln];
        std::string hit;

        // #include <thread> and friends (quoted includes are string
        // literals and cannot name standard threading headers).
        std::string t = code;
        t.erase(0, t.find_first_not_of(" \t"));
        if (t.rfind("#", 0) == 0 &&
            t.find("include") != std::string::npos) {
            std::size_t open = t.find('<');
            std::size_t close = t.find('>');
            if (open != std::string::npos &&
                close != std::string::npos && close > open) {
                std::string hdr = t.substr(open + 1, close - open - 1);
                if (kThreadingHeaders.count(hdr))
                    hit = "#include <" + hdr + ">";
            }
        }

        // std::thread / std::jthread / std::mutex / ... tokens.
        if (hit.empty()) {
            std::vector<Tok> toks;
            tokenizeLine(code, ln + 1, toks);
            for (std::size_t i = 0; i + 3 < toks.size(); i++) {
                if (toks[i].kind == Tok::Ident &&
                    toks[i].text == "std" &&
                    toks[i + 1].kind == Tok::Punct &&
                    toks[i + 1].text == ":" &&
                    toks[i + 2].kind == Tok::Punct &&
                    toks[i + 2].text == ":" &&
                    toks[i + 3].kind == Tok::Ident &&
                    kThreadingIdents.count(toks[i + 3].text)) {
                    hit = "std::" + toks[i + 3].text;
                    break;
                }
            }
        }

        if (hit.empty() || f.allows("R6", ln + 1))
            continue;
        out.push_back({f.path, ln + 1, "R6",
                       "raw threading primitive " + hit +
                           " outside src/harness/; the simulator core "
                           "is single-threaded by construction — "
                           "parallelism goes through the experiment "
                           "engine (harness/parallel.hh)"});
    }
}

// ---------------------------------------------------------------- R7

/** Subtrees allowed to own on-disk binary formats: the trace codec,
 *  the harness (NVM image save/load), and the standalone tools. */
bool
isBinaryIoPath(const std::string &path)
{
    return isHarnessPath(path) ||
        path.find("src/trace/") != std::string::npos ||
        path.rfind("trace/", 0) == 0 ||
        path.find("tools/") != std::string::npos;
}

/** A C stdio mode string that opens in binary mode ("wb", "r+b", …). */
bool
isBinaryModeString(const std::string &s)
{
    if (s.empty() || s.find('b') == std::string::npos)
        return false;
    for (char c : s)
        if (c != 'r' && c != 'w' && c != 'a' && c != 'b' && c != '+')
            return false;
    return true;
}

void
ruleR7(const SourceFile &f, std::vector<Finding> &out)
{
    if (isBinaryIoPath(f.path))
        return;
    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        std::vector<Tok> toks;
        tokenizeLine(f.code[ln], ln + 1, toks);
        bool hasFopen = false;
        bool hasBinaryTag = false;
        std::string streamName;
        for (const Tok &t : toks) {
            if (t.kind != Tok::Ident)
                continue;
            if (t.text == "fopen" || t.text == "freopen")
                hasFopen = true;
            else if (t.text == "ofstream" || t.text == "ifstream" ||
                     t.text == "fstream")
                streamName = t.text;
            else if (t.text == "binary")
                hasBinaryTag = true;
        }

        std::string hit;
        if (hasFopen) {
            for (const auto &lit : f.strings) {
                if (lit.line == ln + 1 &&
                    isBinaryModeString(lit.value)) {
                    hit = "fopen(..., \"" + lit.value + "\")";
                    break;
                }
            }
        }
        if (hit.empty() && !streamName.empty() && hasBinaryTag)
            hit = "std::" + streamName + " with std::ios::binary";

        if (hit.empty() || f.allows("R7", ln + 1))
            continue;
        out.push_back({f.path, ln + 1, "R7",
                       "binary file I/O (" + hit +
                           ") outside src/trace/, src/harness/ and "
                           "tools/; on-disk formats are owned by the "
                           "trace codec and the image/tool helpers"});
    }
}

// ---------------------------------------------------------------- R8

/** The one subtree allowed to dispatch on DesignKind enumerators. */
bool
isRegistryPath(const std::string &path)
{
    return path.find("redundancy/registry.") != std::string::npos;
}

void
ruleR8(const SourceFile &f, std::vector<Finding> &out)
{
    // Only the simulator core is covered: bench/, tools/ and tests/
    // legitimately name designs when building tables and fixtures.
    bool covered = f.path.rfind("src/", 0) == 0 ||
        f.path.find("/src/") != std::string::npos;
    if (!covered || isRegistryPath(f.path))
        return;
    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        std::vector<Tok> toks;
        tokenizeLine(f.code[ln], ln + 1, toks);
        bool hit = false;
        for (std::size_t i = 0; i + 2 < toks.size() && !hit; i++) {
            hit = toks[i].kind == Tok::Ident &&
                toks[i].text == "DesignKind" &&
                toks[i + 1].kind == Tok::Punct &&
                toks[i + 1].text == ":" &&
                toks[i + 2].kind == Tok::Punct &&
                toks[i + 2].text == ":";
        }
        if (!hit || f.allows("R8", ln + 1))
            continue;
        out.push_back({f.path, ln + 1, "R8",
                       "DesignKind enumerator dispatch outside "
                       "src/redundancy/registry.*; resolve the design "
                       "through the registry (designOf / findDesign) and "
                       "its policy hooks instead of switching on the "
                       "kind"});
    }
}

// --------------------------------------------------------------- R14

/** The one subtree allowed to touch SIMD intrinsics directly. */
bool
isKernelsPath(const std::string &path)
{
    return path.find("src/kernels/") != std::string::npos ||
        path.rfind("kernels/", 0) == 0;
}

/** An intrinsics header: the x86 <*intrin.h> family or ARM NEON. */
bool
isSimdHeader(const std::string &hdr)
{
    if (hdr == "arm_neon.h")
        return true;
    const std::string suffix = "intrin.h";
    return hdr.size() >= suffix.size() &&
        hdr.compare(hdr.size() - suffix.size(), suffix.size(),
                    suffix) == 0;
}

/** An intrinsic call or vector-register type identifier. */
bool
isSimdIdent(const std::string &id)
{
    return id.rfind("_mm_", 0) == 0 || id.rfind("_mm256_", 0) == 0 ||
        id.rfind("_mm512_", 0) == 0 || id.rfind("__m128", 0) == 0 ||
        id.rfind("__m256", 0) == 0 || id.rfind("__m512", 0) == 0;
}

void
ruleR14(const SourceFile &f, std::vector<Finding> &out)
{
    if (isKernelsPath(f.path))
        return;
    for (std::size_t ln = 0; ln < f.code.size(); ln++) {
        const std::string &code = f.code[ln];
        std::string hit;

        // #include <immintrin.h> and friends.
        std::string t = code;
        t.erase(0, t.find_first_not_of(" \t"));
        if (t.rfind("#", 0) == 0 &&
            t.find("include") != std::string::npos) {
            std::size_t open = t.find('<');
            std::size_t close = t.find('>');
            if (open != std::string::npos &&
                close != std::string::npos && close > open) {
                std::string hdr = t.substr(open + 1, close - open - 1);
                if (isSimdHeader(hdr))
                    hit = "#include <" + hdr + ">";
            }
        }

        // _mm_* / _mm256_* / _mm512_* intrinsics and __m128/__m256/
        // __m512 register types.
        if (hit.empty()) {
            std::vector<Tok> toks;
            tokenizeLine(code, ln + 1, toks);
            for (const Tok &tok : toks) {
                if (tok.kind == Tok::Ident && isSimdIdent(tok.text)) {
                    hit = tok.text;
                    break;
                }
            }
        }

        if (hit.empty() || f.allows("R14", ln + 1))
            continue;
        out.push_back({f.path, ln + 1, "R14",
                       "SIMD intrinsic " + hit +
                           " outside src/kernels/; vector code is "
                           "owned by the kernel layer — call through "
                           "kernels::ops() so every byte loop has one "
                           "scalar reference and swappable backends"});
    }
}

// --------------------------------------------------------- file walk

bool
isSourceExt(const fs::path &p)
{
    std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".h";
}

void
collect(const fs::path &root, const fs::path &p,
        std::vector<fs::path> &out)
{
    if (fs::is_regular_file(p)) {
        if (isSourceExt(p))
            out.push_back(p);
        return;
    }
    if (!fs::is_directory(p))
        return;
    for (const auto &e : fs::directory_iterator(p)) {
        std::string name = e.path().filename().string();
        if (name == "lint_fixtures" || name == ".git" ||
            name.rfind("build", 0) == 0)
            continue;
        collect(root, e.path(), out);
    }
}

}  // namespace

std::vector<Finding>
run(const Options &opts)
{
    std::vector<std::string> paths = opts.paths;
    bool explicitPaths = !paths.empty();
    if (paths.empty())
        paths = {"src", "tests", "bench", "tools", "examples"};

    std::vector<fs::path> files;
    for (const std::string &p : paths) {
        if (explicitPaths && !fs::exists(opts.root / p))
            throw std::runtime_error("no such path: " +
                                     (opts.root / p).string());
        collect(opts.root, opts.root / p, files);
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Lex + run the per-file rules in parallel over the harness pool.
    // Each file writes its own slot, so the merged result is
    // deterministic no matter how the pool schedules the work.
    std::vector<SourceFile> sources(files.size());
    std::vector<std::vector<Finding>> perFile(files.size());
    std::vector<std::string> errors(files.size());
    parallelFor(
        files.size(),
        [&](std::size_t i) {
            try {
                std::string rel =
                    fs::relative(files[i], opts.root).generic_string();
                sources[i] = lexFile(files[i], rel);
                ruleR1(sources[i], perFile[i]);
                ruleR4(sources[i], perFile[i]);
                ruleR5(sources[i], perFile[i]);
                ruleR6(sources[i], perFile[i]);
                ruleR7(sources[i], perFile[i]);
                ruleR8(sources[i], perFile[i]);
                ruleR14(sources[i], perFile[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        },
        opts.jobs);
    for (const std::string &err : errors)
        if (!err.empty())
            throw std::runtime_error(err);

    std::vector<Finding> out;
    for (const std::vector<Finding> &pf : perFile)
        out.insert(out.end(), pf.begin(), pf.end());

    // Whole-repo pass: include graph + symbol/use tables (R9..R13).
    runModelRules(buildRepoModel(std::move(sources)), out);

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

}  // namespace tvarak::lint
