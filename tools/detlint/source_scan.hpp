// Token-aware source scanner for the determinism linter.
//
// One pass over the raw text produces three synchronized views of a
// translation unit:
//
//   * the *token stream* — identifiers, numbers, literals and punctuation
//     with their 1-based line numbers.  Every rule reads this stream, so a
//     banned identifier quoted in a string or mentioned in prose never trips
//     a rule.  Raw strings, digit separators (1'000'000) and line-spliced
//     preprocessor directives are handled here once, so every rule sees the
//     same tokenization.
//
//   * the *comment channel* — the comment text of every physical line, from
//     which suppression and hot-path directives are parsed.
//
//   * the *include list* — each #include directive with its header text and
//     whether it was quoted or angled, feeding the include-layering rule.
//
// The tokens of a preprocessor directive are marked `in_directive`.  The
// name and shape rules read them, so a banned call in a #define body still
// fires; the structural rules skip them, so a macro body can never
// masquerade as a function definition.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hinet::detlint {

enum class TokKind : std::uint8_t {
  kIdent,   // identifier or keyword
  kNumber,  // pp-number, digit separators included
  kString,  // string literal (ordinary or raw); text is empty
  kChar,    // character literal; text is empty
  kPunct,   // one punctuator; "::" and "->" are single tokens
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line;           // 1-based line the token starts on
  bool in_directive = false;  // part of a preprocessor directive
};

struct IncludeDirective {
  std::string header;  // text between the delimiters, e.g. "sim/engine.hpp"
  std::size_t line;    // 1-based
  bool angled;         // <...> (system) rather than "..." (project)
};

struct SourceFile {
  // Generic (forward-slash) path, exactly as handed to the linter.  Path-based
  // rule exemptions (e.g. bench timers) and the layer table match against
  // this string.
  std::string path;
  std::vector<std::string> comments;  // comments[i]: comment text of line i + 1
  std::vector<Token> tokens;          // comments never appear
  std::vector<IncludeDirective> includes;
};

SourceFile scan_source(std::string path, std::string_view text);

}  // namespace hinet::detlint
