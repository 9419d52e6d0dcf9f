#include "detlint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <regex>
#include <set>
#include <string>

namespace hinet::detlint {

namespace {

bool path_contains(std::string_view path, std::string_view needle) {
  return path.find(needle) != std::string_view::npos;
}

// bench/ owns its wall-clock timers; src/util/rng is the one sanctioned home
// of raw randomness.
bool rule_exempt_by_path(std::string_view rule, std::string_view path) {
  if (rule == kRuleBannedRandom) return path_contains(path, "util/rng");
  if (rule == kRuleBannedTime) {
    return path.starts_with("bench/") || path_contains(path, "/bench/");
  }
  return false;
}

struct LinePattern {
  std::string_view rule;
  std::regex re;
  std::string_view message;
  bool hot_only = false;
};

const std::vector<LinePattern>& line_patterns() {
  static const std::vector<LinePattern> patterns = [] {
    const auto flags = std::regex::ECMAScript | std::regex::optimize;
    std::vector<LinePattern> p;
    // --- banned-random -----------------------------------------------------
    p.push_back({kRuleBannedRandom,
                 std::regex(R"(\b(s?rand|random)\s*\()", flags),
                 "libc RNG is process-global and unseeded by the spec; use "
                 "hinet::Rng (src/util/rng.hpp) seeded from the spec"});
    p.push_back({kRuleBannedRandom,
                 std::regex(R"(\b(std\s*::\s*)?random_device\b)", flags),
                 "std::random_device draws entropy from the host; every "
                 "stream must derive from the spec seed via hinet::Rng"});
    p.push_back(
        {kRuleBannedRandom,
         std::regex(
             R"(\b(std\s*::\s*)?(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b)",
             flags),
         "<random> engines are implementation-defined across standard "
         "libraries; use hinet::Rng (xoshiro256**, src/util/rng.hpp)"});
    // --- banned-time -------------------------------------------------------
    p.push_back(
        {kRuleBannedTime,
         std::regex(
             R"(\b(steady_clock|system_clock|high_resolution_clock)\b)",
             flags),
         "wall-clock reads make a run depend on host timing; simulation "
         "logic must be a pure function of (spec, seed) — timers belong in "
         "bench/"});
    p.push_back({kRuleBannedTime,
                 std::regex(R"(\b(time|clock)\s*\(|\bclock_gettime\b|\bgettimeofday\b)",
                            flags),
                 "libc time sources are nondeterministic; derive round "
                 "counts from the engine, not the host clock"});
    // --- pointer-order -----------------------------------------------------
    p.push_back({kRulePointerOrder,
                 std::regex(R"(std\s*::\s*less\s*<[^<>]*\*[^<>]*>)", flags),
                 "ordering by pointer value reflects allocator layout, not "
                 "program state; order by NodeId or another stable key"});
    p.push_back(
        {kRulePointerOrder,
         std::regex(R"(\b(std\s*::\s*)?(map|set|multimap|multiset)\s*<[^<>,]*\*)",
                    flags),
         "pointer-keyed ordered containers iterate in allocation order; key "
         "by NodeId or another stable identifier"});
    p.push_back({kRulePointerOrder,
                 std::regex(R"(reinterpret_cast\s*<\s*(std\s*::\s*)?u?intptr_t)",
                            flags),
                 "casting pointers to integers for ordering or hashing leaks "
                 "allocator layout into program state"});
    // --- hot-path-alloc ----------------------------------------------------
    p.push_back({kRuleHotPathAlloc, std::regex(R"(\bnew\b)", flags),
                 "operator new inside a declared hot-path region; hoist the "
                 "allocation out of the per-round loop and reuse capacity",
                 /*hot_only=*/true});
    p.push_back({kRuleHotPathAlloc,
                 std::regex(R"(\b(malloc|calloc|realloc|aligned_alloc|strdup)\s*\()",
                            flags),
                 "C allocation inside a declared hot-path region",
                 /*hot_only=*/true});
    p.push_back({kRuleHotPathAlloc,
                 std::regex(R"(\bmake_(unique|shared)\b)", flags),
                 "smart-pointer allocation inside a declared hot-path region",
                 /*hot_only=*/true});
    p.push_back(
        {kRuleHotPathAlloc,
         std::regex(R"((\.|->)\s*(resize|reserve|shrink_to_fit)\s*\()", flags),
         "container growth inside a declared hot-path region; size buffers "
         "before the loop (clear()/assign() keep capacity)",
         /*hot_only=*/true});
    return p;
  }();
  return patterns;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_word(std::string_view haystack, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = haystack.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(haystack[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= haystack.size() || !is_ident_char(haystack[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Flattened view of the code channel, with offset -> line translation so
// multi-line constructs (declarations, range-for headers) can be matched.
struct FlatCode {
  std::string text;
  std::vector<std::size_t> line_starts;  // offset of each line in `text`

  explicit FlatCode(const SourceFile& f) {
    for (const SourceLine& line : f.lines) {
      line_starts.push_back(text.size());
      text += line.code;
      text += '\n';
    }
  }

  std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<std::size_t>(it - line_starts.begin());  // 1-based
  }
};

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

// Reads the identifier starting at i (after any `&`, `*` qualifiers).
std::string read_declared_name(std::string_view s, std::size_t i) {
  i = skip_ws(s, i);
  while (i < s.size() && (s[i] == '&' || s[i] == '*')) i = skip_ws(s, i + 1);
  std::string name;
  while (i < s.size() && is_ident_char(s[i])) name.push_back(s[i++]);
  if (!name.empty() &&
      std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
    return {};
  }
  return name;
}

// Names of variables (and one level of `using` aliases) declared with an
// unordered container type anywhere in the file.
std::set<std::string> unordered_names(const FlatCode& flat) {
  std::set<std::string> vars;
  std::set<std::string> alias_types;
  static const std::regex decl_re(
      R"(\bunordered_(map|set|multimap|multiset)\b)",
      std::regex::ECMAScript | std::regex::optimize);
  static const std::regex alias_re(
      R"(\busing\s+(\w+)\s*=[^;]*\bunordered_(map|set|multimap|multiset)\b)",
      std::regex::ECMAScript | std::regex::optimize);

  const std::string& s = flat.text;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), alias_re);
       it != std::sregex_iterator(); ++it) {
    alias_types.insert((*it)[1].str());
  }
  for (auto it = std::sregex_iterator(s.begin(), s.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    std::size_t i = static_cast<std::size_t>(it->position() + it->length());
    i = skip_ws(s, i);
    if (i >= s.size() || s[i] != '<') continue;
    // Balanced-angle scan across the template argument list.
    int depth = 0;
    while (i < s.size()) {
      if (s[i] == '<') ++depth;
      if (s[i] == '>' && --depth == 0) break;
      ++i;
    }
    if (i >= s.size()) continue;
    const std::string name = read_declared_name(s, i + 1);
    if (!name.empty()) vars.insert(name);
  }
  for (const std::string& alias : alias_types) {
    std::size_t pos = 0;
    while ((pos = s.find(alias, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
      const std::size_t end = pos + alias.size();
      if (left_ok && end < s.size() && !is_ident_char(s[end])) {
        const std::string name = read_declared_name(s, end);
        if (!name.empty() && name != "=") vars.insert(name);
      }
      pos = end;
    }
  }
  return vars;
}

void check_unordered_iteration(const SourceFile& file, const FlatCode& flat,
                               std::vector<Finding>& out) {
  const std::set<std::string> vars = unordered_names(flat);
  const std::string& s = flat.text;

  auto report = [&](std::size_t offset, const std::string& what) {
    out.push_back(Finding{
        file.path, flat.line_of(offset), std::string(kRuleUnorderedIteration),
        "iteration over unordered container '" + what +
            "' is hash-order (implementation-defined); use a sorted "
            "container or sort before consuming"});
  };

  // Range-for whose range expression names an unordered variable or an
  // unordered temporary.
  std::size_t pos = 0;
  while ((pos = s.find("for", pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    std::size_t i = pos + 3;
    if (!left_ok || (i < s.size() && is_ident_char(s[i]))) {
      pos = i;
      continue;
    }
    i = skip_ws(s, i);
    if (i >= s.size() || s[i] != '(') {
      pos = i;
      continue;
    }
    const std::size_t open = i;
    int depth = 0;
    while (i < s.size()) {
      if (s[i] == '(') ++depth;
      if (s[i] == ')' && --depth == 0) break;
      ++i;
    }
    if (i >= s.size()) break;
    const std::string_view header{s.data() + open + 1, i - open - 1};
    // The range-for colon: a ':' that is not part of '::'.
    std::size_t colon = std::string_view::npos;
    for (std::size_t j = 0; j < header.size(); ++j) {
      if (header[j] != ':') continue;
      if (j + 1 < header.size() && header[j + 1] == ':') {
        ++j;
        continue;
      }
      if (j > 0 && header[j - 1] == ':') continue;
      colon = j;
      break;
    }
    if (colon != std::string_view::npos) {
      const std::string_view range = header.substr(colon + 1);
      if (range.find("unordered_") != std::string_view::npos) {
        report(pos, "<unordered temporary>");
      } else {
        for (const std::string& v : vars) {
          if (contains_word(range, v)) {
            report(pos, v);
            break;
          }
        }
      }
    }
    pos = i;
  }

  // Explicit iterator walks: name.begin() / name->cbegin() and friends.
  for (const std::string& v : vars) {
    std::size_t p = 0;
    while ((p = s.find(v, p)) != std::string::npos) {
      const bool left_ok = p == 0 || !is_ident_char(s[p - 1]);
      std::size_t j = p + v.size();
      if (!left_ok || (j < s.size() && is_ident_char(s[j]))) {
        p = j;
        continue;
      }
      j = skip_ws(s, j);
      if (j < s.size() && (s[j] == '.' || s.compare(j, 2, "->") == 0)) {
        j = skip_ws(s, j + (s[j] == '.' ? 1 : 2));
        static constexpr std::array<std::string_view, 4> kIters = {
            "begin", "cbegin", "rbegin", "crbegin"};
        for (const std::string_view iter : kIters) {
          if (s.compare(j, iter.size(), iter) == 0 &&
              skip_ws(s, j + iter.size()) < s.size() &&
              s[skip_ws(s, j + iter.size())] == '(') {
            report(p, v);
            break;
          }
        }
      }
      p = j;
    }
  }
}

}  // namespace

std::span<const RuleInfo> rule_catalog() {
  static const std::array<RuleInfo, 9> catalog = {{
      {kRuleBadDirective,
       "malformed or unauditable detlint directive or suppression"},
      {kRuleBannedRandom,
       "RNG sources outside src/util/rng; streams must derive from the spec "
       "seed"},
      {kRuleBannedTime,
       "wall-clock reads outside bench/; runs must be pure in (spec, seed)"},
      {kRuleDurabilityOrdering,
       "crash-unsafe publish: rename without file fsync or parent-dir fsync, "
       "or append path without fdatasync"},
      {kRuleHotPathAlloc,
       "heap allocation inside a declared // hot-path region"},
      {kRuleIncludeLayering,
       "project include that violates the declared layer DAG "
       "(tools/detlint/layers.txt)"},
      {kRulePointerOrder,
       "ordering keyed on pointer values (allocation order, not program "
       "state)"},
      {kRuleSerializationSymmetry,
       "save/load pair whose write and read type-tag sequences disagree, or "
       "a bare-literal format version tag"},
      {kRuleUnorderedIteration,
       "iteration over unordered containers (hash order is "
       "implementation-defined)"},
  }};
  return catalog;
}

bool is_known_rule(std::string_view name) {
  for (const RuleInfo& r : rule_catalog()) {
    if (r.name == name) return true;
  }
  return false;
}

void run_rules(const SourceFile& file, const std::vector<char>& hot,
               std::vector<Finding>& out) {
  for (const LinePattern& pat : line_patterns()) {
    if (rule_exempt_by_path(pat.rule, file.path)) continue;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      if (pat.hot_only && (i >= hot.size() || hot[i] == 0)) continue;
      const std::string& code = file.lines[i].code;
      if (code.empty()) continue;
      if (std::regex_search(code, pat.re)) {
        out.push_back(Finding{file.path, i + 1, std::string(pat.rule),
                              std::string(pat.message)});
      }
    }
  }
  const FlatCode flat(file);
  check_unordered_iteration(file, flat, out);
}

}  // namespace hinet::detlint
