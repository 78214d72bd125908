#include "sarif.hh"

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/json.hh"

namespace tvarak::lint {

namespace {

std::size_t
ruleIndexOf(const std::string &rule)
{
    for (std::size_t i = 0; i < std::size(kRules); i++)
        if (rule == kRules[i].id)
            return i;
    return 0;
}

}  // namespace

std::string
baselineKey(const Finding &f)
{
    return f.file + ": [" + f.rule + "] " + f.message;
}

std::set<std::string>
loadBaseline(const std::filesystem::path &file)
{
    std::ifstream is(file);
    if (!is)
        throw std::runtime_error("cannot read baseline file: " +
                                 file.string());
    std::set<std::string> entries;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line.erase(0, line.find_first_not_of(" \t"));
        line.erase(line.find_last_not_of(" \t") + 1);
        if (!line.empty())
            entries.insert(line);
    }
    return entries;
}

std::string
toSarif(const std::vector<Finding> &findings,
        const std::set<std::string> &baselined)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"tvarak-lint\",\n"
       << "          \"rules\": [\n";
    for (std::size_t i = 0; i < std::size(kRules); i++) {
        os << "            {\"id\": \"" << kRules[i].id
           << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(kRules[i].summary) << "\"}}"
           << (i + 1 < std::size(kRules) ? "," : "") << "\n";
    }
    os << "          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        os << "        {\n"
           << "          \"ruleId\": \"" << f.rule << "\",\n"
           << "          \"ruleIndex\": " << ruleIndexOf(f.rule) << ",\n"
           << "          \"level\": \"error\",\n"
           << "          \"message\": {\"text\": \""
           << jsonEscape(f.message) << "\"},\n"
           << "          \"locations\": [\n"
           << "            {\n"
           << "              \"physicalLocation\": {\n"
           << "                \"artifactLocation\": {\"uri\": \""
           << jsonEscape(f.file) << "\"},\n"
           << "                \"region\": {\"startLine\": " << f.line
           << "}\n"
           << "              }\n"
           << "            }\n"
           << "          ]";
        if (baselined.count(baselineKey(f)))
            os << ",\n          \"suppressions\": [{\"kind\": "
                  "\"external\"}]";
        os << "\n        }" << (i + 1 < findings.size() ? "," : "")
           << "\n";
    }
    os << "      ]\n"
       << "    }\n"
       << "  ]\n"
       << "}\n";
    return os.str();
}

}  // namespace tvarak::lint
