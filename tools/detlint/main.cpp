// detlint CLI.  Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <string>
#include <vector>

#include "detlint/linter.hpp"
#include "detlint/sarif.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: detlint [--list-rules] [--format=FMT] <path>...\n"
      "\n"
      "Statically enforces the project's determinism, layering and\n"
      "durability invariants over the given files and directories\n"
      "(recursed, skipping any detlint_fixtures directory;\n"
      ".cpp/.cc/.cxx/.hpp/.hh/.h).\n"
      "\n"
      "  --list-rules  print the rule catalog and exit\n"
      "  --format=FMT  output format: text (default) or sarif\n"
      "\n"
      "Suppress a finding with an auditable comment on the same or the\n"
      "preceding line (see docs/static_analysis.md for the policy).\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hinet::detlint;

  std::vector<std::string> roots;
  std::string format = "text";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalog()) {
        std::printf("%-24s %s\n", std::string(r.name).c_str(),
                    std::string(r.summary).c_str());
      }
      return 0;
    }
    if (arg.starts_with("--format=")) {
      format = arg.substr(9);
      continue;
    }
    if (arg == "--format") {
      if (i + 1 >= argc) {
        std::fputs("detlint: --format needs an argument\n", stderr);
        return 2;
      }
      format = argv[++i];
      continue;
    }
    if (arg.starts_with("--")) {
      std::fprintf(stderr, "detlint: unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    print_usage(stderr);
    return 2;
  }
  if (format != "text" && format != "sarif") {
    std::fprintf(stderr, "detlint: unknown format '%s' (text|sarif)\n",
                 format.c_str());
    return 2;
  }

  const auto files = collect_sources(roots);
  if (files.empty()) {
    std::fputs("detlint: no lintable files under the given paths\n", stderr);
    return 2;
  }

  std::vector<Finding> all;
  for (const auto& file : files) {
    const auto findings = lint_file(file);
    if (!findings) {
      std::fprintf(stderr, "detlint: cannot read %s\n",
                   file.generic_string().c_str());
      return 2;
    }
    all.insert(all.end(), findings->begin(), findings->end());
  }

  if (format == "sarif") {
    std::fputs(to_sarif(all).c_str(), stdout);
  } else {
    for (const Finding& f : all) {
      std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  }

  std::size_t files_with_findings = 0;
  {
    std::string last;
    for (const Finding& f : all) {
      if (f.path != last) {
        ++files_with_findings;
        last = f.path;
      }
    }
  }
  std::fprintf(stderr, "detlint: %zu finding%s in %zu of %zu files\n",
               all.size(), all.size() == 1 ? "" : "s", files_with_findings,
               files.size());
  return all.empty() ? 0 : 1;
}
