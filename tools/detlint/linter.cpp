#include "detlint/linter.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "detlint/rules.hpp"
#include "detlint/source_scan.hpp"

namespace hinet::detlint {

namespace {

constexpr std::string_view kAllowToken = "detlint-allow";
constexpr std::string_view kMarkerToken = "detlint:";
constexpr std::string_view kHotBegin = "hot-path-begin";
constexpr std::string_view kHotEnd = "hot-path-end";

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-';
}

struct Directives {
  // line (1-based) -> rules suppressed on that line and the next one.
  std::map<std::size_t, std::set<std::string>> line_allows;
  std::vector<char> hot;  // hot[i] != 0 -> line i+1 is in a hot-path region
  std::vector<Finding> errors;
};

void bad_directive(Directives& d, const SourceFile& f, std::size_t line_no,
                   std::string msg) {
  d.errors.push_back(Finding{f.path, line_no, std::string(kRuleBadDirective),
                             std::move(msg)});
}

// Parses every suppression in one comment line.  A suppression must name a
// known rule and carry a nonempty reason — an exception nobody can audit is
// itself a finding.
void parse_allows(Directives& d, const SourceFile& f, std::size_t line_no,
                  std::string_view comment) {
  std::size_t pos = 0;
  while ((pos = comment.find(kAllowToken, pos)) != std::string_view::npos) {
    pos += kAllowToken.size();
    const std::size_t i = pos;
    if (i >= comment.size() || comment[i] != '(') {
      bad_directive(d, f, line_no,
                    "suppression must name a rule: expected "
                    "'(rule): reason' after the allow token");
      continue;
    }
    const std::size_t close = comment.find(')', i);
    if (close == std::string_view::npos) {
      bad_directive(d, f, line_no, "unterminated rule name in suppression");
      continue;
    }
    const std::string_view rule = trim(comment.substr(i + 1, close - i - 1));
    pos = close + 1;
    if (rule.empty() || !std::all_of(rule.begin(), rule.end(), is_ident_char)) {
      bad_directive(d, f, line_no, "suppression names an empty or malformed rule");
      continue;
    }
    if (!is_known_rule(rule)) {
      bad_directive(d, f, line_no,
                    "suppression names unknown rule '" + std::string(rule) +
                        "' (see --list-rules)");
      continue;
    }
    if (close + 1 >= comment.size() || comment[close + 1] != ':') {
      bad_directive(d, f, line_no,
                    "suppression of '" + std::string(rule) +
                        "' is missing the ': reason' clause");
      continue;
    }
    // The reason runs to the end of the comment line (or the next allow).
    std::size_t reason_end = comment.find(kAllowToken, close + 2);
    if (reason_end == std::string_view::npos) reason_end = comment.size();
    const std::string_view reason =
        trim(comment.substr(close + 2, reason_end - close - 2));
    if (reason.empty()) {
      bad_directive(d, f, line_no,
                    "suppression of '" + std::string(rule) +
                        "' has an empty reason; every exception must be "
                        "auditable");
      continue;
    }
    d.line_allows[line_no].insert(std::string(rule));
  }
}

Directives parse_directives(const SourceFile& f) {
  Directives d;
  d.hot.assign(f.comments.size(), 0);
  bool in_hot = false;
  std::size_t hot_open_line = 0;
  for (std::size_t i = 0; i < f.comments.size(); ++i) {
    const std::size_t line_no = i + 1;
    const std::string& comment = f.comments[i];
    bool hot_this = in_hot;
    if (!comment.empty()) {
      parse_allows(d, f, line_no, comment);
      const std::size_t mp = comment.find(kMarkerToken);
      if (mp != std::string_view::npos) {
        const std::string_view rest =
            trim(std::string_view(comment).substr(mp + kMarkerToken.size()));
        if (rest.starts_with(kHotBegin)) {
          if (in_hot) {
            bad_directive(d, f, line_no,
                          "nested hot-path region (previous begin on line " +
                              std::to_string(hot_open_line) + ")");
          }
          in_hot = true;
          hot_this = true;
          hot_open_line = line_no;
        } else if (rest.starts_with(kHotEnd)) {
          if (!in_hot) {
            bad_directive(d, f, line_no,
                          "hot-path region end without a matching begin");
          }
          hot_this = in_hot;  // the end-marker line is still inside the region
          in_hot = false;
        } else if (rest.starts_with("hot-path")) {
          bad_directive(d, f, line_no,
                        "unknown hot-path marker; use 'hot-path-begin' or "
                        "'hot-path-end'");
        }
      }
    }
    d.hot[i] = hot_this ? 1 : 0;
  }
  if (in_hot) {
    bad_directive(d, f, f.comments.size(),
                  "unterminated hot-path region (begin on line " +
                      std::to_string(hot_open_line) + ")");
  }
  return d;
}

bool suppressed(const Directives& d, const Finding& finding) {
  for (const std::size_t line : {finding.line, finding.line - 1}) {
    const auto it = d.line_allows.find(line);
    if (it != d.line_allows.end() && it->second.contains(finding.rule)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Finding> lint_source(const SourceFile& file) {
  const Directives d = parse_directives(file);
  std::vector<Finding> raw;
  run_rules(file, d.hot, raw);

  std::vector<Finding> out = d.errors;  // never suppressible
  for (Finding& f : raw) {
    if (!suppressed(d, f)) out.push_back(std::move(f));
  }
  // Stable, so two findings of one rule on one line keep the order the
  // rule emitted them in, whatever else the file holds.
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
                   });
  return out;
}

std::vector<Finding> lint_text(std::string path, std::string_view text) {
  return lint_source(scan_source(std::move(path), text));
}

std::optional<std::vector<Finding>> lint_file(const std::filesystem::path& file,
                                              std::string path_for_rules) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (path_for_rules.empty()) path_for_rules = file.generic_string();
  return lint_text(std::move(path_for_rules), buf.str());
}

std::vector<std::filesystem::path> collect_sources(
    std::span<const std::string> roots) {
  namespace fs = std::filesystem;
  static constexpr std::array kExtensions = {".cpp", ".cc", ".cxx",
                                             ".hpp", ".hh", ".h"};
  auto lintable = [](const fs::path& p) {
    return std::find(kExtensions.begin(), kExtensions.end(),
                     p.extension().string()) != kExtensions.end();
  };

  std::vector<fs::path> out;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_directory(p)) {
      for (auto it = fs::recursive_directory_iterator(p);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() && it->path().filename() == "detlint_fixtures") {
          it.disable_recursion_pending();
        } else if (it->is_regular_file() && lintable(it->path())) {
          out.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p) && lintable(p)) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace hinet::detlint
