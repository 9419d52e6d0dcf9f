#include "detlint/sarif.hpp"

#include <cstdio>

namespace hinet::detlint {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) { return "\"" + json_escape(s) + "\""; }

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"detlint\",\n"
      "          \"informationUri\": \"docs/static_analysis.md\",\n"
      "          \"rules\": [\n";
  const auto catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out += "            {\"id\": " + json_quote(catalog[i].name) +
           ", \"shortDescription\": {\"text\": " +
           json_quote(catalog[i].summary) + "}}";
    out += i + 1 < catalog.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "        {\"ruleId\": " + json_quote(f.rule) +
           ", \"level\": \"error\", \"message\": {\"text\": " +
           json_quote(f.message) +
           "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": " +
           json_quote(f.path) + "}, \"region\": {\"startLine\": " +
           std::to_string(f.line) + "}}}]}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace hinet::detlint
