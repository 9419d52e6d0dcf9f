// detlint's rules.  Every rule reads the token stream of source_scan.hpp.
//
// The name and shape rules (banned-random, banned-time, pointer-order,
// hot-path-alloc, unordered-iteration) match identifiers and short token
// shapes anywhere in the stream, directive tokens included, and report each
// pattern at most once per line.
//
// The structural rules (include-layering, durability-ordering,
// serialization-symmetry) reason about *structure* — which function body a
// call sits in, the order of calls, the pairing of writer and reader — over
// the stream without its directive tokens.  The function finder is a
// heuristic (no full C++ parse without libclang), tuned to the codebase's
// idiom: it recognises `name(params) [qualifiers] { … }` and constructor
// initializer lists, and deliberately ignores anything it cannot classify
// rather than guessing.
#include "detlint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <initializer_list>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "detlint/layers.hpp"

namespace hinet::detlint {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

bool name_in(std::string_view name, std::span<const std::string_view> set) {
  return std::find(set.begin(), set.end(), name) != set.end();
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          std::string_view o, std::string_view c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], o)) {
      ++depth;
    } else if (is_punct(toks[i], c)) {
      if (--depth == 0) return i;
    }
  }
  return npos;
}

// Index of the first punctuator at or after `from` that is one of `stops`,
// or npos.
std::size_t find_punct(const std::vector<Token>& toks, std::size_t from,
                       std::initializer_list<std::string_view> stops) {
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kPunct &&
        std::find(stops.begin(), stops.end(), toks[i].text) != stops.end()) {
      return i;
    }
  }
  return npos;
}

// ── banned-random, banned-time, pointer-order, hot-path-alloc ───────────

// bench/ owns its wall-clock timers; src/util/rng is the one sanctioned home
// of raw randomness.
bool rule_exempt_by_path(std::string_view rule, std::string_view path) {
  if (rule == kRuleBannedRandom) {
    return path.find("util/rng") != std::string_view::npos;
  }
  if (rule == kRuleBannedTime) {
    return path.starts_with("bench/") ||
           path.find("/bench/") != std::string_view::npos;
  }
  return false;
}

// One finding kind: a rule and its message.  A line reports each pattern at
// most once.
struct Pattern {
  std::string_view rule;
  std::string_view message;
  bool hot_only = false;
};

enum PatternId : std::size_t {
  kLibcRand,
  kRandomDevice,
  kRandomEngine,
  kClock,
  kLibcTime,
  kLessByPointer,
  kPointerKey,
  kPointerCast,
  kNew,
  kCAlloc,
  kSmartAlloc,
  kGrowth,
  kPatternCount,
};

constexpr std::array<Pattern, kPatternCount> kPatterns = {{
    {kRuleBannedRandom,
     "libc RNG is process-global and unseeded by the spec; use "
     "hinet::Rng (src/util/rng.hpp) seeded from the spec"},
    {kRuleBannedRandom,
     "std::random_device draws entropy from the host; every "
     "stream must derive from the spec seed via hinet::Rng"},
    {kRuleBannedRandom,
     "<random> engines are implementation-defined across standard "
     "libraries; use hinet::Rng (xoshiro256**, src/util/rng.hpp)"},
    {kRuleBannedTime,
     "wall-clock reads make a run depend on host timing; simulation "
     "logic must be a pure function of (spec, seed) — timers belong in "
     "bench/"},
    {kRuleBannedTime,
     "libc time sources are nondeterministic; derive round "
     "counts from the engine, not the host clock"},
    {kRulePointerOrder,
     "ordering by pointer value reflects allocator layout, not "
     "program state; order by NodeId or another stable key"},
    {kRulePointerOrder,
     "pointer-keyed ordered containers iterate in allocation order; key "
     "by NodeId or another stable identifier"},
    {kRulePointerOrder,
     "casting pointers to integers for ordering or hashing leaks "
     "allocator layout into program state"},
    {kRuleHotPathAlloc,
     "operator new inside a declared hot-path region; hoist the "
     "allocation out of the per-round loop and reuse capacity",
     /*hot_only=*/true},
    {kRuleHotPathAlloc, "C allocation inside a declared hot-path region",
     /*hot_only=*/true},
    {kRuleHotPathAlloc,
     "smart-pointer allocation inside a declared hot-path region",
     /*hot_only=*/true},
    {kRuleHotPathAlloc,
     "container growth inside a declared hot-path region; size buffers "
     "before the loop (clear()/assign() keep capacity)",
     /*hot_only=*/true},
}};

// An identifier that fires a pattern.  `call` asks for a following '(';
// `member` asks for a preceding '.' or '->'.
struct BannedName {
  std::string_view name;
  PatternId pattern;
  bool call = false;
  bool member = false;
};

constexpr auto kBannedNames = std::to_array<BannedName>({
    {"rand", kLibcRand, true},
    {"srand", kLibcRand, true},
    {"random", kLibcRand, true},
    {"random_device", kRandomDevice},
    {"mt19937", kRandomEngine},
    {"mt19937_64", kRandomEngine},
    {"minstd_rand", kRandomEngine},
    {"minstd_rand0", kRandomEngine},
    {"default_random_engine", kRandomEngine},
    {"knuth_b", kRandomEngine},
    {"ranlux*", kRandomEngine},  // every ranlux24, ranlux48_base, …
    {"steady_clock", kClock},
    {"system_clock", kClock},
    {"high_resolution_clock", kClock},
    {"time", kLibcTime, true},
    {"clock", kLibcTime, true},
    {"clock_gettime", kLibcTime},
    {"gettimeofday", kLibcTime},
    {"new", kNew},
    {"malloc", kCAlloc, true},
    {"calloc", kCAlloc, true},
    {"realloc", kCAlloc, true},
    {"aligned_alloc", kCAlloc, true},
    {"strdup", kCAlloc, true},
    {"make_unique", kSmartAlloc},
    {"make_shared", kSmartAlloc},
    {"resize", kGrowth, true, true},
    {"reserve", kGrowth, true, true},
    {"shrink_to_fit", kGrowth, true, true},
});

const BannedName* banned_name(std::string_view ident) {
  if (ident.starts_with("ranlux") && ident.size() > 6) ident = "ranlux*";
  for (const BannedName& b : kBannedNames) {
    if (b.name == ident) return &b;
  }
  return nullptr;
}

constexpr std::array<std::string_view, 4> kOrderedContainers = {
    "map", "set", "multimap", "multiset"};

// Pointer-order's three shapes starting at toks[i]: std::less<…*…>,
// map|set|multimap|multiset<…* with the '*' before the first ',', '<' or
// '>', and reinterpret_cast<(std::)u?intptr_t.
std::optional<PatternId> pointer_shape(const std::vector<Token>& toks,
                                       std::size_t i) {
  auto punct_at = [&](std::size_t j, std::string_view p) {
    return j < toks.size() && is_punct(toks[j], p);
  };
  auto ident_at = [&](std::size_t j, std::string_view name) {
    return j < toks.size() && is_ident(toks[j], name);
  };
  const std::string& name = toks[i].text;
  if (name == "std" && punct_at(i + 1, "::") && ident_at(i + 2, "less") &&
      punct_at(i + 3, "<")) {
    const std::size_t star = find_punct(toks, i + 4, {"*", "<", ">"});
    if (punct_at(star, "*") &&
        punct_at(find_punct(toks, star + 1, {"<", ">"}), ">")) {
      return kLessByPointer;
    }
  }
  if (name_in(name, kOrderedContainers) && punct_at(i + 1, "<") &&
      punct_at(find_punct(toks, i + 2, {"*", "<", ">", ","}), "*")) {
    return kPointerKey;
  }
  if (name == "reinterpret_cast" && punct_at(i + 1, "<")) {
    std::size_t j = i + 2;
    if (ident_at(j, "std") && punct_at(j + 1, "::")) j += 2;
    if (ident_at(j, "intptr_t") || ident_at(j, "uintptr_t")) {
      return kPointerCast;
    }
  }
  return std::nullopt;
}

void check_patterns(const SourceFile& file, const std::vector<char>& hot,
                    std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  std::set<std::pair<PatternId, std::size_t>> hits;  // (pattern, line)
  auto hit = [&](PatternId id, std::size_t line) {
    const Pattern& p = kPatterns[id];
    if (rule_exempt_by_path(p.rule, file.path)) return;
    if (p.hot_only && (line > hot.size() || hot[line - 1] == 0)) return;
    hits.emplace(id, line);
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (const BannedName* b = banned_name(toks[i].text)) {
      const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
      const bool member = i > 0 && (is_punct(toks[i - 1], ".") ||
                                    is_punct(toks[i - 1], "->"));
      if ((!b->call || called) && (!b->member || member)) {
        hit(b->pattern, toks[i].line);
      }
    }
    if (const auto shape = pointer_shape(toks, i)) hit(*shape, toks[i].line);
  }
  for (const auto& [id, line] : hits) {
    out.push_back(Finding{file.path, line, std::string(kPatterns[id].rule),
                          std::string(kPatterns[id].message)});
  }
}

// ── unordered-iteration ─────────────────────────────────────────────────

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<std::string_view, 4> kBeginFamily = {
    "begin", "cbegin", "rbegin", "crbegin"};

bool is_unordered_type(const Token& t) {
  return t.kind == TokKind::kIdent && name_in(t.text, kUnorderedTypes);
}

// The identifier declared at toks[from], past any '&' or '*'; "" if none.
std::string declared_name(const std::vector<Token>& toks, std::size_t from) {
  while (from < toks.size() &&
         (is_punct(toks[from], "&") || is_punct(toks[from], "*"))) {
    ++from;
  }
  return from < toks.size() && toks[from].kind == TokKind::kIdent
             ? toks[from].text
             : std::string();
}

// Names of variables (and one level of `using` aliases) declared with an
// unordered container type anywhere in the file.
std::set<std::string> unordered_names(const std::vector<Token>& toks) {
  std::set<std::string> vars;
  std::set<std::string> aliases;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks[i], "using") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "=")) {
      for (std::size_t j = i + 3; j < toks.size() && !is_punct(toks[j], ";");
           ++j) {
        if (is_unordered_type(toks[j])) {
          aliases.insert(toks[i + 1].text);
          break;
        }
      }
    }
    if (is_unordered_type(toks[i]) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "<")) {
      const std::size_t close = match_forward(toks, i + 1, "<", ">");
      if (close == npos) continue;
      std::string name = declared_name(toks, close + 1);
      if (!name.empty()) vars.insert(std::move(name));
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !aliases.contains(toks[i].text)) {
      continue;
    }
    std::string name = declared_name(toks, i + 1);
    if (!name.empty()) vars.insert(std::move(name));
  }
  return vars;
}

void check_unordered_iteration(const SourceFile& file,
                               std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  const std::set<std::string> vars = unordered_names(toks);
  auto report = [&](std::size_t line, const std::string& what) {
    out.push_back(Finding{
        file.path, line, std::string(kRuleUnorderedIteration),
        "iteration over unordered container '" + what +
            "' is hash-order (implementation-defined); use a sorted "
            "container or sort before consuming"});
  };

  // Range-for whose range expression names an unordered variable or an
  // unordered temporary.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == npos) break;
    std::size_t colon = i + 2;  // the range-for ':' ("::" is its own token)
    while (colon < close && !is_punct(toks[colon], ":")) ++colon;
    std::string what;
    for (std::size_t j = colon + 1; j < close && what.empty(); ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.find("unordered_") != std::string::npos) {
        what = "<unordered temporary>";
      }
    }
    for (auto v = vars.begin(); v != vars.end() && what.empty(); ++v) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (is_ident(toks[j], *v)) {
          what = *v;
          break;
        }
      }
    }
    if (!what.empty()) report(toks[i].line, what);
    i = close;
  }

  // Explicit iterator walks: name.begin() / name->cbegin() and friends.
  for (const std::string& v : vars) {
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (is_ident(toks[i], v) &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          toks[i + 2].kind == TokKind::kIdent &&
          name_in(toks[i + 2].text, kBeginFamily) &&
          is_punct(toks[i + 3], "(")) {
        report(toks[i].line, v);
      }
    }
  }
}

// ── structural rules ────────────────────────────────────────────────────

// Control-flow and expression keywords that look like `name (` but never
// start a function definition.
constexpr std::array<std::string_view, 16> kNotAFunction = {
    "if",       "for",    "while",    "switch",   "catch",
    "return",   "sizeof", "alignof",  "decltype", "new",
    "delete",   "throw",  "co_await", "co_return", "co_yield",
    "operator"};

struct Definition {
  std::string name;         // unqualified function name
  std::size_t line;         // line of the name token
  std::size_t params_begin; // token index of the parameter-list '('
  std::size_t params_end;   // token index of the matching ')'
  std::size_t body_begin;   // token index of the opening '{'
  std::size_t body_end;     // token index of the matching '}'
};

// Finds function definitions at any nesting level outside other function
// bodies (so in-class methods are found, but a lambda inside a body belongs
// to that body).  Unclassifiable constructs are skipped, never guessed at.
std::vector<Definition> find_definitions(const std::vector<Token>& toks) {
  std::vector<Definition> defs;
  std::size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || i + 1 >= toks.size() ||
        !is_punct(toks[i + 1], "(") ||
        name_in(t.text, kNotAFunction)) {
      ++i;
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == npos) break;

    std::size_t body = npos;
    bool init_list = false;
    std::size_t u = close + 1;
    for (; u < toks.size(); ++u) {
      const Token& q = toks[u];
      if (q.kind == TokKind::kIdent || q.kind == TokKind::kNumber) continue;
      if (q.kind == TokKind::kString || q.kind == TokKind::kChar) break;
      const std::string& p = q.text;
      if (p == "(") {  // noexcept(...), attribute args, member init
        const std::size_t c2 = match_forward(toks, u, "(", ")");
        if (c2 == npos) { u = toks.size(); break; }
        u = c2;
        continue;
      }
      if (!init_list) {
        if (p == "{") { body = u; break; }
        if (p == ":") { init_list = true; continue; }
        if (p == "->" || p == "::" || p == "<" || p == ">" || p == "&" ||
            p == "*" || p == "[" || p == "]") {
          continue;
        }
        break;  // ';' (declaration), '=', ',', … — not a definition
      }
      // Constructor initializer list: a '{' here is either a member
      // brace-init (followed by ',' or the body's '{') or the body itself.
      if (p == "{") {
        const std::size_t c2 = match_forward(toks, u, "{", "}");
        if (c2 == npos) { u = toks.size(); break; }
        const std::size_t next = c2 + 1;
        if (next < toks.size() && is_punct(toks[next], ",")) {
          u = next;
          continue;
        }
        if (next < toks.size() && is_punct(toks[next], "{")) {
          body = next;
          break;
        }
        body = u;  // no further member follows: this '{' was the body
        break;
      }
      if (p == ";") break;
    }
    if (body == npos) {
      i = close + 1;
      continue;
    }
    const std::size_t end = match_forward(toks, body, "{", "}");
    if (end == npos) break;
    defs.push_back(Definition{t.text, t.line, i + 1, close, body, end});
    i = end + 1;
  }
  return defs;
}

struct CallEvent {
  std::string name;
  std::size_t line;
  std::size_t tok;  // index of the name token
  bool member;      // preceded by '.' or '->'
};

std::vector<CallEvent> call_events(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end) {
  std::vector<CallEvent> out;
  for (std::size_t i = begin; i < end && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const bool member =
        i > begin && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    out.push_back(CallEvent{toks[i].text, toks[i].line, i, member});
  }
  return out;
}

// ── durability-ordering ─────────────────────────────────────────────────

constexpr std::array<std::string_view, 8> kWriteCalls = {
    "write", "fwrite", "pwrite", "writev", "write_all",
    "fputs", "fprintf", "fputc"};
constexpr std::array<std::string_view, 5> kSyncCalls = {
    "fsync", "fdatasync", "sync_now", "sync_all", "sync_file_range"};

/// Does the call at `e` pass the O_EXCL flag?  Scans the identifier
/// tokens between the call's parentheses.
bool call_uses_o_excl(const std::vector<Token>& toks, const CallEvent& e) {
  const std::size_t close = match_forward(toks, e.tok + 1, "(", ")");
  for (std::size_t i = e.tok + 2; close != npos && i < close; ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "O_EXCL") {
      return true;
    }
  }
  return false;
}

void check_durability(const SourceFile& file, const Definition& def,
                      const std::vector<CallEvent>& events,
                      const std::vector<Token>& toks,
                      std::vector<Finding>& out) {
  auto is_write = [](const CallEvent& e) {
    return name_in(e.name, kWriteCalls);
  };
  auto is_sync = [](const CallEvent& e) { return name_in(e.name, kSyncCalls); };

  for (std::size_t k = 0; k < events.size(); ++k) {
    if (events[k].name != "rename" || events[k].member) continue;

    std::size_t last_write = npos;
    for (std::size_t j = 0; j < k; ++j) {
      if (is_write(events[j])) last_write = j;
    }
    if (last_write != npos) {
      bool synced = false;
      for (std::size_t j = last_write + 1; j < k; ++j) {
        if (is_sync(events[j])) synced = true;
      }
      if (!synced) {
        out.push_back(Finding{
            file.path, events[k].line,
            std::string(kRuleDurabilityOrdering),
            "write-then-rename publish in '" + def.name +
                "' renames bytes that were never fsynced: a crash-ordered "
                "disk may publish the name before the contents (fsync the "
                "file, then rename)"});
      }
    }
    bool parent_synced = false;
    for (std::size_t j = k + 1; j < events.size(); ++j) {
      if (events[j].name == "fsync_parent_directory") parent_synced = true;
    }
    if (!parent_synced) {
      out.push_back(Finding{
          file.path, events[k].line, std::string(kRuleDurabilityOrdering),
          "rename in '" + def.name +
              "' is not followed by fsync_parent_directory(): the new "
              "directory entry lives in the parent inode and can be lost "
              "by a crash after the publish"});
    }
  }

  // Lock-file creation: an O_EXCL open is a *lock acquisition through the
  // directory inode* — exactly one creator wins, and the win only survives
  // power loss if the directory entry is fsynced.  Every O_EXCL create
  // must therefore be followed by fsync_parent_directory() somewhere in
  // the same function.
  for (std::size_t k = 0; k < events.size(); ++k) {
    const CallEvent& e = events[k];
    if (e.member || (e.name != "open" && e.name != "openat")) continue;
    if (!call_uses_o_excl(toks, e)) continue;
    bool parent_synced = false;
    for (std::size_t j = k + 1; j < events.size(); ++j) {
      if (events[j].name == "fsync_parent_directory") parent_synced = true;
    }
    if (!parent_synced) {
      out.push_back(Finding{
          file.path, e.line, std::string(kRuleDurabilityOrdering),
          "O_EXCL lock-file creation in '" + def.name +
              "' is not followed by fsync_parent_directory(): the lock's "
              "existence lives in the parent inode, and a crash can undo "
              "an acquisition another process already observed"});
    }
  }

  auto lower = def.name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });

  // Lock release: a release path that unlinks a lock file must fsync the
  // parent directory afterwards, or a crash can resurrect a lock the
  // owner already gave up — and nothing will ever release it again.
  if (lower.find("release") != std::string::npos) {
    for (std::size_t k = 0; k < events.size(); ++k) {
      const CallEvent& e = events[k];
      if (e.member || (e.name != "unlink" && e.name != "remove" &&
                       e.name != "unlinkat")) {
        continue;
      }
      bool parent_synced = false;
      for (std::size_t j = k + 1; j < events.size(); ++j) {
        if (events[j].name == "fsync_parent_directory") parent_synced = true;
      }
      if (!parent_synced) {
        out.push_back(Finding{
            file.path, e.line, std::string(kRuleDurabilityOrdering),
            "lock release in '" + def.name +
                "' unlinks without a following fsync_parent_directory(): "
                "a crash can resurrect the released lock file and wedge "
                "every future acquirer"});
      }
    }
  }

  // FramedLog-style append paths must make appended bytes durable before the
  // caller can treat the record as acknowledged.
  if (lower.find("append") != std::string::npos) {
    std::size_t last_write = npos;
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (is_write(events[j])) last_write = j;
    }
    if (last_write != npos) {
      bool synced = false;
      for (std::size_t j = last_write + 1; j < events.size(); ++j) {
        if (is_sync(events[j])) synced = true;
      }
      if (!synced) {
        out.push_back(Finding{
            file.path, events[last_write].line,
            std::string(kRuleDurabilityOrdering),
            "append path '" + def.name +
                "' writes without fdatasync before returning: a crash could "
                "lose a record the caller already treated as acknowledged"});
      }
    }
  }
}

// ── serialization-symmetry ──────────────────────────────────────────────

constexpr std::array<std::string_view, 10> kIoMethods = {
    "u8", "u16", "u32", "u64", "f64", "bytes", "blob",
    "vec_u64", "vec_size", "vec_u8"};

enum class SerRole { kWriter, kReader };

std::optional<std::pair<SerRole, std::string>> serialization_name(
    std::string_view name) {
  if (name.starts_with("save_") && name.size() > 5) {
    return std::pair{SerRole::kWriter, std::string(name.substr(5))};
  }
  if (name.starts_with("load_") && name.size() > 5) {
    return std::pair{SerRole::kReader, std::string(name.substr(5))};
  }
  if (name.starts_with("restore_") && name.size() > 8) {
    return std::pair{SerRole::kReader, std::string(name.substr(8))};
  }
  return std::nullopt;
}

// Name of the first ByteWriter/ByteReader reference parameter in the
// definition's parameter list, or "" when it has none.
std::string stream_param(const std::vector<Token>& toks,
                         const Definition& def) {
  for (std::size_t i = def.params_begin + 1; i + 1 < def.params_end; ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "ByteWriter" && toks[i].text != "ByteReader")) {
      continue;
    }
    for (std::size_t j = i + 1; j < def.params_end; ++j) {
      if (toks[j].kind == TokKind::kIdent) return toks[j].text;
      if (!is_punct(toks[j], "&") && !is_punct(toks[j], "*")) break;
    }
  }
  return {};
}

// The ordered type-tag sequence of a writer or reader body: ByteWriter /
// ByteReader method calls by name, plus save_x/load_x helper calls applied
// to the body's own stream parameter, normalized to a shared "pair:x" tag
// so symmetric helpers match.  A helper handed a *different* stream (the
// nested-ByteWriter-then-blob idiom) is skipped — its bytes reach the main
// stream through the blob tag, which is already counted.
std::vector<std::string> tag_sequence(const std::vector<Token>& toks,
                                      const std::vector<CallEvent>& events,
                                      SerRole role,
                                      const std::string& stream) {
  std::vector<std::string> tags;
  for (const CallEvent& e : events) {
    if (e.member && name_in(e.name, kIoMethods)) {
      tags.push_back(e.name);
      continue;
    }
    const auto ser = serialization_name(e.name);
    if (!ser.has_value() || ser->first != role) continue;
    if (!stream.empty()) {
      const std::size_t close = match_forward(toks, e.tok + 1, "(", ")");
      bool uses_stream = false;
      for (std::size_t i = e.tok + 2; close != npos && i < close; ++i) {
        if (toks[i].kind == TokKind::kIdent && toks[i].text == stream) {
          uses_stream = true;
          break;
        }
      }
      if (!uses_stream) continue;
    }
    tags.push_back("pair:" + ser->second);
  }
  return tags;
}

std::string join_tags(const std::vector<std::string>& tags) {
  std::string out = "[";
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (i > 0) out += ' ';
    if (i == 12 && tags.size() > 13) {
      out += "… +" + std::to_string(tags.size() - i) + " more";
      break;
    }
    out += tags[i];
  }
  out += ']';
  return out;
}

void check_symmetry(const SourceFile& file, const std::vector<Token>& toks,
                    const std::vector<Definition>& defs,
                    std::vector<Finding>& out) {
  struct SerDef {
    const Definition* def;
    SerRole role;
    std::string suffix;
    bool consumed = false;
  };
  std::vector<SerDef> sers;
  for (const Definition& d : defs) {
    const auto ser = serialization_name(d.name);
    if (ser.has_value()) sers.push_back(SerDef{&d, ser->first, ser->second});
  }

  auto pair_of = [&](std::size_t w) -> std::size_t {
    for (std::size_t j = w + 1; j < sers.size(); ++j) {  // nearest following…
      if (!sers[j].consumed && sers[j].role == SerRole::kReader &&
          sers[j].suffix == sers[w].suffix) {
        return j;
      }
    }
    for (std::size_t j = w; j-- > 0;) {  // …else nearest preceding
      if (!sers[j].consumed && sers[j].role == SerRole::kReader &&
          sers[j].suffix == sers[w].suffix) {
        return j;
      }
    }
    return npos;
  };

  for (std::size_t w = 0; w < sers.size(); ++w) {
    if (sers[w].role != SerRole::kWriter || sers[w].consumed) continue;
    const std::size_t r = pair_of(w);
    if (r == npos) continue;  // counterpart in another TU — not checkable here
    sers[w].consumed = true;
    sers[r].consumed = true;

    const auto writer_events =
        call_events(toks, sers[w].def->body_begin, sers[w].def->body_end);
    const auto reader_events =
        call_events(toks, sers[r].def->body_begin, sers[r].def->body_end);
    const auto wtags = tag_sequence(toks, writer_events, SerRole::kWriter,
                                    stream_param(toks, *sers[w].def));
    const auto rtags = tag_sequence(toks, reader_events, SerRole::kReader,
                                    stream_param(toks, *sers[r].def));
    if (wtags != rtags) {
      out.push_back(Finding{
          file.path, sers[r].def->line,
          std::string(kRuleSerializationSymmetry),
          "save/load asymmetry: '" + sers[w].def->name + "' (line " +
              std::to_string(sers[w].def->line) + ") writes " +
              join_tags(wtags) + " but '" + sers[r].def->name + "' reads " +
              join_tags(rtags) +
              " — writer and reader must stay in lockstep"});
    }
  }
}

// Version tags handed to the checksummed-file helpers must be named
// constants shared by writer and reader; a bare literal on one side is
// exactly the drift the format guard exists to stop.
void check_version_guard(const SourceFile& file,
                         const std::vector<Token>& toks,
                         const std::vector<CallEvent>& events,
                         std::vector<Finding>& out) {
  for (const CallEvent& e : events) {
    if (e.member || (e.name != "write_checksummed_file" &&
                     e.name != "read_checksummed_file")) {
      continue;
    }
    const std::size_t open = e.tok + 1;
    const std::size_t close = match_forward(toks, open, "(", ")");
    if (close == npos) continue;
    // Split the argument list at top-level commas; the version tag is the
    // third argument.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t arg_start = open + 1;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "{" || t.text == "[" || t.text == "<") {
        ++depth;
      } else if (t.text == ")" || t.text == "}" || t.text == "]" ||
                 t.text == ">") {
        --depth;
      } else if (t.text == "," && depth == 0) {
        args.emplace_back(arg_start, i);
        arg_start = i + 1;
      }
    }
    args.emplace_back(arg_start, close);
    if (args.size() < 3) continue;
    bool named = false;
    bool literal = false;
    for (std::size_t i = args[2].first; i < args[2].second; ++i) {
      if (toks[i].kind == TokKind::kIdent) named = true;
      if (toks[i].kind == TokKind::kNumber) literal = true;
    }
    if (literal && !named) {
      out.push_back(Finding{
          file.path, e.line, std::string(kRuleSerializationSymmetry),
          "'" + e.name +
              "' is passed a bare numeric version tag; use a named "
              "constant (kVersion) shared by the writer and the reader so "
              "the two sides cannot drift apart"});
    }
  }
}

// ── include-layering ────────────────────────────────────────────────────

void check_layering(const SourceFile& file, std::vector<Finding>& out) {
  const std::size_t from = layer_of_file(file.path);
  if (from == kNoLayer) return;
  for (const IncludeDirective& inc : file.includes) {
    if (inc.angled) continue;  // system/third-party headers are outside the DAG
    const std::size_t to = layer_of_include(inc.header);
    if (to == kNoLayer || to <= from) continue;
    out.push_back(Finding{
        file.path, inc.line, std::string(kRuleIncludeLayering),
        "layer '" + std::string(layer_name(from)) + "' may not include \"" +
            inc.header + "\" from higher layer '" +
            std::string(layer_name(to)) + "' (declared order: " +
            layer_order() + ")"});
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
       "(tools/detlint/layers.cpp)"},
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
  check_patterns(file, hot, out);
  check_unordered_iteration(file, out);

  std::vector<Token> code;  // the stream without its directive tokens
  std::copy_if(file.tokens.begin(), file.tokens.end(), std::back_inserter(code),
               [](const Token& t) { return !t.in_directive; });
  const std::vector<Definition> defs = find_definitions(code);
  for (const Definition& def : defs) {
    const auto events = call_events(code, def.body_begin, def.body_end);
    check_durability(file, def, events, code, out);
    check_version_guard(file, code, events, out);
  }
  check_symmetry(file, code, defs, out);
  check_layering(file, out);
}

}  // namespace hinet::detlint
