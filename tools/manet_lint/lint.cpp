#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/json.hpp"

namespace manet::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"MLNT001", "banned-rand", "allow-rand",
     "rand()/srand() draw from hidden global state; use a named RngStream"},
    {"MLNT002", "random-device", "allow-rng",
     "std::random_device is hardware entropy — unreproducible by design"},
    {"MLNT003", "wall-clock-call", "allow-wall-clock",
     "time()/clock()/gettimeofday() read the host clock, not sim time"},
    {"MLNT004", "wall-clock-chrono", "allow-wall-clock",
     "std::chrono reads the host clock; sim code must use core/time.hpp"},
    {"MLNT005", "rng-outside-core", "allow-rng",
     "<random> engines/distributions are banned outside core/rng"},
    {"MLNT006", "unordered-iteration", "order-independent",
     "iterating an unordered container lets hash order leak into behaviour"},
    {"MLNT007", "missing-pragma-once", "allow-no-pragma-once",
     "headers must start with #pragma once"},
    {"MLNT008", "float-equality", "allow-float-eq",
     "==/!= against floating-point literals is numerically fragile"},
    {"MLNT009", "bad-suppression", "",
     "manet-lint suppression with unknown tag or missing rationale"},
    {"MLNT010", "scenario-config-aggregate", "allow-scenario-config",
     "brace-constructing ScenarioConfig bypasses ScenarioBuilder validation"},
    {"MLNT011", "shared-mutable-global", "allow-global-state",
     "mutable global state is shared by SweepRunner workers"},
    {"MLNT014", "missing-restart-override", "allow-no-restart",
     "RoutingProtocol subclass lacks an on_node_restart() cold-restart override"},
    {"MLNT015", "full-node-scan", "allow-node-scan",
     "iterating every node in PHY/MAC/net code defeats grid-local candidate selection"},
};

[[nodiscard]] const RuleInfo* rule_by_id(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

[[nodiscard]] bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Per-line views: code with comments/strings blanked, plus the comment text
// ---------------------------------------------------------------------------

struct LineView {
  std::string code;     ///< comments and string/char literal bodies blanked
  std::string comment;  ///< text of any // or /* */ comment on the line
};

/// Split raw text into per-line code/comment views. String and character
/// literals are blanked in `code` so their contents can't trip rules;
/// comment text is preserved separately for suppression parsing.
[[nodiscard]] std::vector<LineView> preprocess(const std::string& text) {
  std::vector<LineView> out;
  LineView cur;
  bool in_block_comment = false;
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = (i + 1 < text.size()) ? text[i + 1] : '\0';
    if (c == '\n') {
      out.push_back(std::move(cur));
      cur = LineView{};
      in_string = in_char = false;  // unterminated literals don't span lines here
      continue;
    }
    if (in_block_comment) {
      if (c == '*' && next == '/') {
        in_block_comment = false;
        cur.comment += " ";
        ++i;
      } else {
        cur.comment += c;
      }
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        cur.code += '"';
      }
      continue;
    }
    if (in_char) {
      if (c == '\\') {
        ++i;
      } else if (c == '\'') {
        in_char = false;
        cur.code += '\'';
      }
      continue;
    }
    if (c == '/' && next == '/') {
      cur.comment += text.substr(i + 2, text.find('\n', i) - i - 2);
      i = text.find('\n', i);
      if (i == std::string::npos) break;
      out.push_back(std::move(cur));
      cur = LineView{};
      continue;
    }
    if (c == '/' && next == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') {
      // Digit separators like 1'000 must not open a "char literal": only
      // treat ' as one when not directly preceded by an identifier char.
      in_string = true;
      cur.code += '"';
      continue;
    }
    if (c == '\'' && !(i > 0 && is_ident(text[i - 1]))) {
      in_char = true;
      cur.code += '\'';
      continue;
    }
    cur.code += c;
  }
  out.push_back(std::move(cur));
  return out;
}

// ---------------------------------------------------------------------------
// Small matching helpers (hand-rolled: precise boundaries, no regex escaping)
// ---------------------------------------------------------------------------

/// True if `code` calls `name` as a free (or std::-qualified) function:
/// boundary before, then optional spaces, then '('.
[[nodiscard]] bool has_call(const std::string& code, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const std::size_t end = pos + name.size();
    const bool lb = pos == 0 || (!is_ident(code[pos - 1]) && code[pos - 1] != '.') ||
                    (pos >= 2 && code[pos - 1] == ':' && code[pos - 2] == ':');
    // Member access (`x.time(...)`) refers to sim-time accessors, not libc.
    const bool member = pos > 0 && (code[pos - 1] == '.' ||
                                    (pos >= 2 && code[pos - 1] == '>' && code[pos - 2] == '-'));
    std::size_t j = end;
    if (lb && !member && (end >= code.size() || !is_ident(code[end]))) {
      while (j < code.size() && code[j] == ' ') ++j;
      if (j < code.size() && code[j] == '(') return true;
    }
    pos = end;
  }
  return false;
}

/// True if `code` contains `word` with identifier boundaries on both sides.
[[nodiscard]] bool has_word(const std::string& code, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool lb = pos == 0 || !is_ident(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool rb = end >= code.size() || !is_ident(code[end]);
    if (lb && rb) return true;
    pos = end;
  }
  return false;
}

[[nodiscard]] bool is_float_literal(std::string_view tok) {
  if (!tok.empty() && (tok.back() == 'f' || tok.back() == 'F')) tok.remove_suffix(1);
  const std::size_t dot = tok.find('.');
  if (dot == std::string_view::npos || tok.empty()) return false;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    if (i == dot) continue;
    if (std::isdigit(static_cast<unsigned char>(tok[i])) == 0) return false;
  }
  return dot > 0 || tok.size() > 1;  // "1.0", "1.", ".5" — but not "."
}

/// Does the line compare (==/!=) against a floating-point literal?
[[nodiscard]] bool has_float_equality(const std::string& code) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if ((code[i] != '=' && code[i] != '!') || code[i + 1] != '=') continue;
    if (i + 2 < code.size() && code[i + 2] == '=') continue;  // skip a == =...
    if (i > 0 && (code[i - 1] == '<' || code[i - 1] == '>' || code[i - 1] == '=')) continue;
    // Token after the operator.
    std::size_t a = i + 2;
    while (a < code.size() && code[a] == ' ') ++a;
    std::size_t ae = a;
    while (ae < code.size() && (is_ident(code[ae]) || code[ae] == '.')) ++ae;
    if (is_float_literal(std::string_view(code).substr(a, ae - a))) return true;
    // Token before the operator.
    std::size_t b = i;
    while (b > 0 && code[b - 1] == ' ') --b;
    std::size_t bs = b;
    while (bs > 0 && (is_ident(code[bs - 1]) || code[bs - 1] == '.')) --bs;
    if (is_float_literal(std::string_view(code).substr(bs, b - bs))) return true;
  }
  return false;
}

/// Names of variables/members declared as std::unordered_map/unordered_set
/// anywhere in `code_text` (newlines allowed inside the template argument
/// list — declarations are matched across lines).
[[nodiscard]] std::unordered_set<std::string> unordered_decls(const std::string& code_text) {
  std::unordered_set<std::string> names;
  static constexpr std::string_view kMarkers[] = {"std::unordered_map", "std::unordered_set"};
  for (const std::string_view marker : kMarkers) {
    std::size_t pos = 0;
    while ((pos = code_text.find(marker, pos)) != std::string::npos) {
      std::size_t i = pos + marker.size();
      while (i < code_text.size() && std::isspace(static_cast<unsigned char>(code_text[i]))) ++i;
      if (i >= code_text.size() || code_text[i] != '<') {
        pos += marker.size();
        continue;
      }
      int depth = 0;
      for (; i < code_text.size(); ++i) {
        if (code_text[i] == '<') ++depth;
        if (code_text[i] == '>' && --depth == 0) break;
      }
      ++i;  // past '>'
      while (i < code_text.size() &&
             (std::isspace(static_cast<unsigned char>(code_text[i])) || code_text[i] == '&' ||
              code_text[i] == '*')) {
        ++i;
      }
      std::size_t ne = i;
      while (ne < code_text.size() && is_ident(code_text[ne])) ++ne;
      if (ne > i) {
        std::size_t after = ne;
        while (after < code_text.size() &&
               std::isspace(static_cast<unsigned char>(code_text[after]))) {
          ++after;
        }
        const char t = after < code_text.size() ? code_text[after] : '\0';
        if (t == ';' || t == '=' || t == '{' || t == '(' || t == ',' || t == ')') {
          names.insert(code_text.substr(i, ne - i));
        }
      }
      pos = ne;
    }
  }
  return names;
}

/// Does the line brace-construct a ScenarioConfig? Flags `ScenarioConfig{...}`,
/// `ScenarioConfig cfg{...}` and `ScenarioConfig cfg = {...}`. Plain
/// default construction (`ScenarioConfig cfg;`), copies, and reference/
/// pointer parameters are fine — only aggregate construction skips the
/// builder's validation while silently accepting field-order mistakes.
[[nodiscard]] bool has_scenario_aggregate(const std::string& code) {
  static constexpr std::string_view kName = "ScenarioConfig";
  std::size_t pos = 0;
  while ((pos = code.find(kName, pos)) != std::string::npos) {
    const std::size_t start = pos;
    const std::size_t end = pos + kName.size();
    const bool lb = pos == 0 || !is_ident(code[pos - 1]);
    pos = end;
    if (!lb || (end < code.size() && is_ident(code[end]))) continue;
    {  // a definition (`struct ScenarioConfig {`) is not a construction
      std::size_t b = start;
      while (b > 0 && code[b - 1] == ' ') --b;
      std::size_t bs = b;
      while (bs > 0 && is_ident(code[bs - 1])) --bs;
      const std::string_view prev = std::string_view(code).substr(bs, b - bs);
      if (prev == "struct" || prev == "class") continue;
    }
    std::size_t i = end;
    while (i < code.size() && code[i] == ' ') ++i;
    if (i < code.size() && code[i] == '{') return true;  // ScenarioConfig{...}
    std::size_t ne = i;
    while (ne < code.size() && is_ident(code[ne])) ++ne;
    if (ne == i) continue;  // `&`, `*`, `>`, ... — a use, not a declaration
    i = ne;
    while (i < code.size() && code[i] == ' ') ++i;
    if (i < code.size() && code[i] == '{') return true;  // ScenarioConfig cfg{...}
    if (i < code.size() && code[i] == '=') {
      ++i;
      while (i < code.size() && code[i] == ' ') ++i;
      if (i < code.size() && code[i] == '{') return true;  // ... cfg = {...}
    }
  }
  return false;
}

/// The container expression iterated by a range-for on this line, if any:
/// matches `for (... : expr)` and returns `expr` when it is a bare
/// identifier (possibly `this->x`); compound expressions return "".
[[nodiscard]] std::string range_for_target(const std::string& code) {
  const std::size_t f = code.find("for");
  if (f == std::string::npos || !has_word(code, "for")) return {};
  const std::size_t colon = code.rfind(':');
  if (colon == std::string::npos || colon == 0) return {};
  if (code[colon - 1] == ':') return {};  // `::` qualifier, not a range-for
  if (colon + 1 < code.size() && code[colon + 1] == ':') return {};
  std::size_t a = colon + 1;
  while (a < code.size() && code[a] == ' ') ++a;
  std::size_t e = a;
  while (e < code.size() && is_ident(code[e])) ++e;
  std::size_t close = e;
  while (close < code.size() && code[close] == ' ') ++close;
  if (close >= code.size() || code[close] != ')') return {};
  return code.substr(a, e - a);
}

/// A loop over every node (MLNT015): a range-for whose target is one of the
/// all-nodes containers, or an index loop bounded by their size. The
/// container names are the simulator's own (`nodes_` in the scenario/net
/// layers, `trx_`/`mob_` in the channel); per-event code must go through
/// GridIndex::query / neighbors_of instead, so any surviving full scan is
/// either a bug or a deliberately-annotated periodic path (grid refresh).
[[nodiscard]] bool has_full_node_scan(const std::string& code) {
  static constexpr std::string_view kContainers[] = {"nodes_", "trx_", "mob_"};
  const std::string target = range_for_target(code);
  for (const std::string_view c : kContainers) {
    if (target == c) return true;
  }
  if (!has_word(code, "for")) return false;
  if (code.find("node_count()") != std::string::npos) return true;
  for (const std::string_view c : kContainers) {
    if (code.find(std::string(c) + ".size()") != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scope-aware analysis (MLNT011/MLNT014)
//
// A lightweight C++ tokenizer plus a brace-matching scope walker — enough
// structure to tell a namespace-scope variable from a local, a class data
// member from a function, and to see a whole class body, without dragging in
// libclang. Heuristic classification of `{`: a head containing `namespace`
// opens a namespace, `enum` an enumeration, `class`/`struct`/`union`
// (without a parameter list) a class, anything with `(` a function, and the
// rest an initializer/plain block. Fixtures in tests/lint_fixtures pin the
// corner cases.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;
};

/// Tokenize blanked per-line code into identifiers and punctuation (`::` is
/// one token). Preprocessor lines are skipped entirely.
[[nodiscard]] std::vector<Token> tokenize(const std::vector<LineView>& lines) {
  std::vector<Token> out;
  bool continued = false;  // previous line was a preprocessor line ending in '\'
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int lineno = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) ++i;
    if (continued || (i < code.size() && code[i] == '#')) {
      // Skip the directive and every backslash-continued line after it —
      // braces inside a macro body would unbalance the scope walker.
      std::size_t e = code.size();
      while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1]))) --e;
      continued = e > 0 && code[e - 1] == '\\';
      continue;
    }
    for (; i < code.size(); ++i) {
      const char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (is_ident(c)) {
        std::size_t e = i;
        while (e < code.size() && is_ident(code[e])) ++e;
        out.push_back({code.substr(i, e - i), lineno, true});
        i = e - 1;
        continue;
      }
      if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        out.push_back({"::", lineno, false});
        ++i;
        continue;
      }
      out.push_back({std::string(1, c), lineno, false});
    }
  }
  return out;
}

struct MutableStatic {
  int line = 0;
  std::string name;
  const char* kind = "";  ///< "namespace-scope", "static data member", "function-local static"
};

struct ProtocolClass {
  int line = 0;
  std::string name;
  bool has_restart = false;
};

struct ScopeAnalysis {
  std::vector<MutableStatic> mutable_statics;
  std::vector<ProtocolClass> protocol_classes;
};

[[nodiscard]] bool stmt_contains(const std::vector<Token>& s, std::string_view word) {
  return std::any_of(s.begin(), s.end(),
                     [&](const Token& t) { return t.ident && t.text == word; });
}

/// Does the statement head read as a function declarator rather than a
/// variable? A `(` before any `=` means a parameter list came first.
[[nodiscard]] bool function_like(const std::vector<Token>& s) {
  for (const Token& t : s) {
    if (t.text == "=") return false;
    if (t.text == "(") return true;
  }
  return false;
}

/// Walk the token stream tracking scopes; collect mutable static/global
/// variable declarations and RoutingProtocol subclasses.
[[nodiscard]] ScopeAnalysis analyze_scopes(const std::vector<Token>& toks) {
  ScopeAnalysis out;

  struct Scope {
    char kind;            ///< 'n'amespace, 'c'lass, 'f'unction, 'b'lock/init, 'e'num
    int proto_class = -1; ///< index into out.protocol_classes when a tracked class
  };
  std::vector<Scope> scopes;  // empty vector == translation-unit (namespace) scope
  std::vector<Token> stmt;    // tokens since the last ; { }

  const auto scope_kind = [&]() -> char { return scopes.empty() ? 'n' : scopes.back().kind; };

  // Flag `stmt` as a mutable variable declaration unless it is const, a
  // type/alias/using declaration, or a function declarator.
  const auto flag_variable = [&](const char* kind) {
    if (stmt.empty()) return;
    static constexpr std::string_view kSkip[] = {
        "const",    "constexpr", "using",   "typedef",       "extern",  "friend",
        "template", "operator",  "class",   "struct",        "union",   "enum",
        "namespace","return",    "public",  "protected",     "private", "static_assert",
        "goto",     "case",      "default", "if",            "for",     "while",
        "switch",   "do",        "else",    "try",           "catch",   "co_return",
    };
    for (const std::string_view w : kSkip) {
      if (stmt_contains(stmt, w)) return;
    }
    if (function_like(stmt)) return;
    std::string name;
    for (const Token& t : stmt) {
      if (t.text == "=") break;
      if (t.ident) name = t.text;
    }
    if (name.empty()) return;
    out.mutable_statics.push_back({stmt.front().line, name, kind});
  };

  // Dispatch the statement head per scope before it is cleared (used on both
  // `;` and brace-initializer `{`).
  const auto process_stmt = [&] {
    switch (scope_kind()) {
      case 'n': flag_variable("namespace-scope"); break;
      case 'c':
        if (stmt_contains(stmt, "static") || stmt_contains(stmt, "thread_local")) {
          flag_variable("static data member");
        }
        break;
      case 'f':
      case 'b':
        if (stmt_contains(stmt, "static") || stmt_contains(stmt, "thread_local")) {
          flag_variable("function-local static");
        }
        break;
      default: break;  // 'e': enumerators
    }
  };

  for (const Token& tok : toks) {
    if (tok.text == "{") {
      Scope next{'b', -1};
      const char enclosing = scope_kind();
      if (stmt_contains(stmt, "namespace") || stmt_contains(stmt, "extern")) {
        next.kind = 'n';
      } else if (stmt_contains(stmt, "enum")) {
        next.kind = 'e';
      } else if ((stmt_contains(stmt, "class") || stmt_contains(stmt, "struct") ||
                  stmt_contains(stmt, "union")) &&
                 !std::any_of(stmt.begin(), stmt.end(),
                              [](const Token& t) { return t.text == "("; })) {
        next.kind = 'c';
        // `class X final : public [manet::]RoutingProtocol` — record the
        // subclass so a missing on_node_restart override can be reported.
        std::string name;
        bool base_list = false;
        bool derives = false;
        for (const Token& t : stmt) {
          if (t.ident && name.empty() &&
              !(t.text == "class" || t.text == "struct" || t.text == "union" ||
                t.text == "template" || t.text == "typename" || t.text == "final")) {
            name = t.text;
          }
          if (t.text == ":") base_list = true;
          if (base_list && t.ident && t.text == "RoutingProtocol") derives = true;
        }
        if (derives && name != "RoutingProtocol") {
          next.proto_class = static_cast<int>(out.protocol_classes.size());
          out.protocol_classes.push_back({stmt.front().line, name, false});
        }
      } else if ((enclosing == 'n' || enclosing == 'c') &&
                 std::any_of(stmt.begin(), stmt.end(),
                             [](const Token& t) { return t.text == "("; })) {
        next.kind = 'f';
      } else {
        // Brace initializer (`Foo g{...};`) or a block: the head may still
        // declare a variable at the enclosing scope — flag it now, because
        // the `;` after the closing brace will see an empty head.
        process_stmt();
      }
      scopes.push_back(next);
      stmt.clear();
      continue;
    }
    if (tok.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
      continue;
    }
    if (tok.text == ";") {
      process_stmt();
      stmt.clear();
      continue;
    }
    // `public:` / `private:` / `protected:` labels would otherwise merge
    // into the following member declaration and hide it behind the skip
    // list.
    if (tok.text == ":" && stmt.size() == 1 && stmt.front().ident &&
        (stmt.front().text == "public" || stmt.front().text == "protected" ||
         stmt.front().text == "private")) {
      stmt.clear();
      continue;
    }
    if (tok.ident && tok.text == "on_node_restart") {
      for (const Scope& s : scopes) {
        if (s.proto_class >= 0) {
          out.protocol_classes[static_cast<std::size_t>(s.proto_class)].has_restart = true;
        }
      }
    }
    stmt.push_back(tok);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppressions {
  // line (1-based) -> tags active for that line
  std::vector<std::vector<std::string>> line_tags;
  std::unordered_set<std::string> disabled_rules;  // file-level
  std::vector<Finding> errors;                     // MLNT009
};

[[nodiscard]] std::string trim(std::string s) {
  const auto issp = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  while (!s.empty() && issp(s.front())) s.erase(s.begin());
  while (!s.empty() && issp(s.back())) s.pop_back();
  return s;
}

[[nodiscard]] bool known_tag(std::string_view tag) {
  return std::any_of(kRules.begin(), kRules.end(), [&](const RuleInfo& r) {
    return tag == r.tag || tag == r.id;
  });
}

/// Parse `manet-lint:` directives. A directive on a code line covers that
/// line; one on a comment-only line covers the next line that has code.
[[nodiscard]] Suppressions collect_suppressions(const std::string& path,
                                                const std::vector<LineView>& lines) {
  Suppressions sup;
  sup.line_tags.resize(lines.size() + 2);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    const std::size_t d = comment.find("manet-lint:");
    if (d == std::string::npos) continue;
    const int lineno = static_cast<int>(i) + 1;
    std::string rest = trim(comment.substr(d + std::string_view("manet-lint:").size()));
    // Tag is the first token; everything after a `-` or in `(...)` after a
    // disable(...) is the rationale.
    std::size_t te = 0;
    while (te < rest.size() && (is_ident(rest[te]) || rest[te] == '-')) {
      // a lone '-' separator ends the tag
      if (rest[te] == '-' && te + 1 < rest.size() && rest[te + 1] == ' ') break;
      ++te;
    }
    std::string tag = trim(rest.substr(0, te));
    std::string after = trim(te < rest.size() ? rest.substr(te) : "");
    if (tag == "disable" && !after.empty() && after.front() == '(') {
      const std::size_t close = after.find(')');
      if (close == std::string::npos) {
        sup.errors.push_back({path, lineno, "MLNT009", "unclosed disable(...) directive"});
        continue;
      }
      const std::string id = trim(after.substr(1, close - 1));
      const std::string rationale = trim(after.substr(close + 1));
      if (rule_by_id(id) == nullptr) {
        sup.errors.push_back({path, lineno, "MLNT009", "disable(" + id + "): unknown rule id"});
        continue;
      }
      if (rationale.size() < 4) {
        sup.errors.push_back({path, lineno, "MLNT009",
                              "disable(" + id + ") needs a rationale: `// manet-lint: disable(" +
                                  id + ") - <why this file is exempt>`"});
        continue;
      }
      if (lineno > 40) {
        sup.errors.push_back({path, lineno, "MLNT009",
                              "disable(...) must appear in the first 40 lines of the file"});
        continue;
      }
      sup.disabled_rules.insert(id);
      continue;
    }
    if (!known_tag(tag)) {
      sup.errors.push_back(
          {path, lineno, "MLNT009",
           "unknown suppression tag \"" + tag + "\" (see manet_lint --list-rules)"});
      continue;
    }
    // Rationale: require a few words after `<tag> -`.
    std::string rationale = after;
    if (!rationale.empty() && rationale.front() == '-') rationale = trim(rationale.substr(1));
    if (rationale.size() < 4) {
      sup.errors.push_back({path, lineno, "MLNT009",
                            "suppression \"" + tag + "\" needs a rationale: `// manet-lint: " +
                                tag + " - <why this is safe>`"});
      continue;
    }
    // Attach to this line if it has code, otherwise to the next code line.
    std::size_t target = i;
    if (trim(lines[i].code).empty()) {
      target = i + 1;
      while (target < lines.size() && trim(lines[target].code).empty() &&
             lines[target].comment.find("manet-lint:") == std::string::npos) {
        ++target;
      }
    }
    if (target < sup.line_tags.size()) {
      sup.line_tags[target + 1].push_back(tag);  // 1-based
    }
  }
  return sup;
}

[[nodiscard]] bool suppressed(const Suppressions& sup, const RuleInfo& rule, int line) {
  if (sup.disabled_rules.contains(rule.id)) return true;
  if (line < 1 || static_cast<std::size_t>(line) >= sup.line_tags.size()) return false;
  for (const std::string& t : sup.line_tags[static_cast<std::size_t>(line)]) {
    if (t == rule.tag || t == rule.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h") || path.ends_with(".hh");
}

/// Is `path` under directory `dir` ("src/", "src/routing/", ...)? Matches
/// both relative ("src/core/x.cpp") and absolute ("/repo/src/core/x.cpp")
/// spellings.
[[nodiscard]] bool in_path(const std::string& path, std::string_view dir) {
  if (path.rfind(dir, 0) == 0) return true;
  return path.find("/" + std::string(dir)) != std::string::npos;
}

/// Does this scan unit schedule events, transmit, or implement routing state?
/// MLNT006 applies only there — hash order in a pure utility is harmless.
[[nodiscard]] bool order_sensitive(const std::string& path, const std::string& all_code) {
  if (path.find("/routing/") != std::string::npos) return true;
  static constexpr std::string_view kMarkers[] = {".schedule(",     ".schedule_at(",
                                                  "send_broadcast", "send_with_next_hop",
                                                  ".enqueue(",      "sim().schedule"};
  return std::any_of(std::begin(kMarkers), std::end(kMarkers),
                     [&](std::string_view m) { return all_code.find(m) != std::string::npos; });
}

void check(const std::string& path, const std::vector<LineView>& lines,
           const std::string& all_code, const std::string& paired_code,
           std::vector<Finding>& out) {
  const Suppressions sup = collect_suppressions(path, lines);
  out.insert(out.end(), sup.errors.begin(), sup.errors.end());

  const auto add = [&](const char* id, int line, std::string msg) {
    const RuleInfo* rule = rule_by_id(id);
    if (suppressed(sup, *rule, line)) return;
    out.push_back({path, line, id, std::move(msg)});
  };

  const bool in_core_rng = path.find("core/rng") != std::string::npos;
  const std::unordered_set<std::string> unordered = [&] {
    auto names = unordered_decls(all_code);
    auto paired = unordered_decls(paired_code);
    names.insert(paired.begin(), paired.end());
    return names;
  }();
  const bool mlnt006_applies = order_sensitive(path, all_code + paired_code);
  // src/scenario/ is the one place allowed to assemble configs by hand (it
  // IS the builder/validator).
  const bool mlnt010_applies = path.find("/scenario/") == std::string::npos;
  // MLNT011 covers all simulator code: SweepRunner runs scenarios on
  // concurrent workers, so any mutable global in src/ is shared by them.
  const bool in_src = in_path(path, "src/");
  // MLNT015 polices the per-event layers: PHY (channel candidate selection),
  // MAC and net. Scenario/tools may still walk every node — setup and
  // reporting are not hot paths.
  const bool mlnt015_applies =
      in_path(path, "src/phy/") || in_path(path, "src/mac/") || in_path(path, "src/net/");

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (trim(code).empty()) continue;
    const int n = static_cast<int>(i) + 1;

    if (has_call(code, "rand") || has_call(code, "srand")) {
      add("MLNT001", n,
          "rand()/srand() is banned: draw from a named RngStream (core/rng.hpp) so every "
          "replication is reproducible from (seed, scenario) alone");
    }
    if (code.find("random_device") != std::string::npos) {
      add("MLNT002", n,
          "std::random_device is hardware entropy and can never be replayed; seed a named "
          "RngStream from the scenario seed instead");
    }
    for (const std::string_view fn :
         {"time", "clock", "gettimeofday", "localtime", "gmtime", "ftime"}) {
      if (has_call(code, fn)) {
        add("MLNT003", n,
            std::string(fn) + "() reads the host clock; sim code must use Simulator::now() / "
                              "core/time.hpp (annotate profiling code with `// manet-lint: "
                              "allow-wall-clock - <why>`)");
        break;
      }
    }
    if (has_word(code, "chrono")) {
      add("MLNT004", n,
          "std::chrono is wall-clock time: nondeterministic across hosts and runs. Use SimTime "
          "for simulated time; profiling-only reads need `// manet-lint: allow-wall-clock - "
          "<why>`");
    }
    if (!in_core_rng) {
      static constexpr std::string_view kEngines[] = {
          "mt19937",       "mt19937_64", "minstd_rand",           "minstd_rand0",
          "ranlux24",      "ranlux48",   "default_random_engine", "knuth_b",
          "philox4x32_10",
      };
      bool hit = code.find("_distribution") != std::string::npos ||
                 code.find("<random>") != std::string::npos;
      for (const std::string_view e : kEngines) {
        hit = hit || has_word(code, e);
      }
      if (hit) {
        add("MLNT005", n,
            "<random> engines/distributions outside core/rng fragment the seeding discipline; "
            "derive a child RngStream(root_seed, name, index) instead");
      }
    }
    if (mlnt006_applies && !unordered.empty()) {
      std::string target = range_for_target(code);
      if (target.empty() && has_word(code, "for")) {
        for (const std::string& name : unordered) {
          if (code.find(name + ".begin()") != std::string::npos ||
              code.find(name + ".cbegin()") != std::string::npos) {
            target = name;
            break;
          }
        }
      }
      if (!target.empty() && unordered.contains(target)) {
        add("MLNT006", n,
            "iterating unordered container `" + target +
                "` in event-scheduling/routing code: hash order must never reach the event "
                "queue or a packet. Use std::map/std::set, iterate a sorted copy, or annotate "
                "`// manet-lint: order-independent - <why>`");
      }
    }
    if (has_float_equality(code)) {
      add("MLNT008", n,
          "==/!= against a floating-point literal: compare integers (SimTime ns) or use an "
          "explicit tolerance; exact FP equality breaks under reordering/FMA");
    }
    if (mlnt010_applies && has_scenario_aggregate(code)) {
      add("MLNT010", n,
          "brace-constructing ScenarioConfig bypasses build-time validation and breaks on any "
          "field reorder; chain ScenarioBuilder setters and build() instead (or annotate "
          "`// manet-lint: allow-scenario-config - <why>`)");
    }
    if (mlnt015_applies && has_full_node_scan(code)) {
      add("MLNT015", n,
          "loop over every node in per-event code: O(N) per transmission/tick is what caps "
          "city-scale runs. Use GridIndex::query / Channel::neighbors_of for grid-local "
          "candidates; genuinely periodic whole-population work (position refresh) carries "
          "`// manet-lint: allow-node-scan - <why this is not per-event>`");
    }
  }

  // Scope-aware rules: one tokenize + scope walk per scan unit.
  const ScopeAnalysis sc = analyze_scopes(tokenize(lines));
  if (in_src) {
    for (const MutableStatic& g : sc.mutable_statics) {
      add("MLNT011", g.line,
          std::string("mutable ") + g.kind + " state `" + g.name +
              "` is shared by every SweepRunner worker thread; make it const, move it into "
              "per-node/per-scenario state, or annotate `// manet-lint: "
              "allow-global-state - <why it is thread-safe>`");
    }
  }
  for (const ProtocolClass& c : sc.protocol_classes) {
    if (!c.has_restart) {
      add("MLNT014", c.line,
          "RoutingProtocol subclass `" + c.name +
              "` has no on_node_restart() override: a crashed node would resurrect with "
              "stale routing state. Override it to cold-start (clear tables/seqnos), or "
              "annotate `// manet-lint: allow-no-restart - <why>`");
    }
  }

  if (is_header(path)) {
    bool found = false;
    for (std::size_t i = 0; i < lines.size() && i < 50; ++i) {
      if (lines[i].code.find("#pragma once") != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      add("MLNT007", 1, "header lacks #pragma once (double inclusion ODR hazard)");
    }
  }
}

[[nodiscard]] std::string read_file(const std::filesystem::path& p, bool& ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

[[nodiscard]] std::string joined_code(const std::vector<LineView>& lines) {
  std::string all;
  for (const LineView& l : lines) {
    all += l.code;
    all += '\n';
  }
  return all;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Finding> lint_text(const std::string& path, const std::string& text,
                               const std::string& paired_text) {
  std::vector<Finding> out;
  const std::vector<LineView> lines = preprocess(text);
  const std::string paired_code =
      paired_text.empty() ? std::string{} : joined_code(preprocess(paired_text));
  check(path, lines, joined_code(lines), paired_code, out);
  return out;
}

std::vector<Finding> lint_file(const std::filesystem::path& p) {
  bool ok = false;
  const std::string text = read_file(p, ok);
  if (!ok) {
    return {{p.generic_string(), 0, "MLNT000", "cannot read file"}};
  }
  std::string paired;
  if (p.extension() == ".cpp" || p.extension() == ".cc") {
    for (const char* ext : {".hpp", ".h", ".hh"}) {
      std::filesystem::path header = p;
      header.replace_extension(ext);
      if (std::filesystem::exists(header)) {
        bool hok = false;
        paired = read_file(header, hok);
        break;
      }
    }
  }
  return lint_text(p.generic_string(), text, paired);
}

std::string format_finding(const Finding& f, Format fmt) {
  const RuleInfo* rule = rule_by_id(f.rule);
  const char* name = rule != nullptr ? rule->name : "io-error";
  if (fmt == Format::kGithub) {
    // GitHub Actions workflow command: renders as an inline annotation on
    // the PR diff. The message must stay single-line (ours always are).
    return "::error file=" + f.file + ",line=" + std::to_string(f.line) + ",title=" + f.rule +
           " " + name + "::" + f.message;
  }
  if (fmt == Format::kJson) {
    return "{\"file\": \"" + json::escaped(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"rule\": \"" + json::escaped(f.rule) + "\", \"name\": \"" + name +
           "\", \"message\": \"" + json::escaped(f.message) + "\"}";
  }
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + " [" + name + "] " + f.message;
}

std::vector<Finding> lint_paths(const std::vector<std::filesystem::path>& roots) {
  std::vector<Finding> out;
  std::vector<std::filesystem::path> files;
  const auto wanted = [](const std::filesystem::path& p) {
    const auto ext = p.extension();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h" || ext == ".hh";
  };
  for (const std::filesystem::path& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!std::filesystem::is_directory(root, ec)) {
      files.push_back(root);  // surfaces as MLNT000 cannot-read
      continue;
    }
    std::filesystem::recursive_directory_iterator it(root, ec);
    if (ec) {
      out.push_back({root.generic_string(), 0, "MLNT000",
                     "cannot open directory: " + ec.message()});
      continue;
    }
    for (; it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) {
        out.push_back({root.generic_string(), 0, "MLNT000",
                       "directory walk failed: " + ec.message()});
        break;
      }
      const std::string name = it->path().filename().string();
      if (it->is_directory(ec) && (name == "build" || name == ".git" || name == "lint_fixtures")) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file(ec) && wanted(it->path())) files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& f : files) {
    auto fs = lint_file(f);
    out.insert(out.end(), fs.begin(), fs.end());
  }
  return out;
}

int run_cli(int argc, const char* const* argv) {
  std::vector<std::filesystem::path> roots;
  Format fmt = Format::kHuman;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      std::printf("%-8s  %-24s  %-24s  %s\n", "id", "name", "suppression tag", "summary");
      for (const RuleInfo& r : kRules) {
        std::printf("%-8s  %-24s  %-24s  %s\n", r.id, r.name, r.tag[0] ? r.tag : "-", r.summary);
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: manet_lint [--list-rules] [--format=human|github|json] <file|dir>...\n"
                  "Scans C++ sources for manetsim determinism/thread-safety violations.\n"
                  "  --format=github   emit ::error workflow-command annotations for CI\n"
                  "  --format=json     emit one JSON array of findings (machine-readable)\n"
                  "Exit code: 0 clean, 1 findings, 2 usage error or nonexistent path.\n");
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      const std::string_view v = arg.substr(9);
      if (v == "github") {
        fmt = Format::kGithub;
      } else if (v == "human") {
        fmt = Format::kHuman;
      } else if (v == "json") {
        fmt = Format::kJson;
      } else {
        std::fprintf(stderr,
                     "manet_lint: unknown format '%.*s' (expected human, github, or json)\n",
                     static_cast<int>(v.size()), v.data());
        return 2;
      }
      continue;
    }
    if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "manet_lint: unknown option '%.*s' (try --help)\n",
                   static_cast<int>(arg.size()), arg.data());
      return 2;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    std::fprintf(stderr, "manet_lint: no paths given (try --help)\n");
    return 2;
  }
  // A typo'd CI path must fail loudly: linting nothing and reporting "clean"
  // is how a required check silently stops checking anything.
  bool missing = false;
  for (const std::filesystem::path& r : roots) {
    std::error_code ec;
    if (!std::filesystem::exists(r, ec) || ec) {
      std::fprintf(stderr, "manet_lint: path does not exist: %s\n", r.generic_string().c_str());
      missing = true;
    }
  }
  if (missing) return 2;
  const std::vector<Finding> findings = lint_paths(roots);
  if (fmt == Format::kJson) {
    // One valid JSON document (an array), not JSON-lines: downstream tooling
    // can hand the whole artifact to any parser, including tools/common.
    std::printf("[");
    for (std::size_t i = 0; i < findings.size(); ++i) {
      std::printf("%s\n  %s", i == 0 ? "" : ",", format_finding(findings[i], fmt).c_str());
    }
    std::printf("%s]\n", findings.empty() ? "" : "\n");
  } else {
    for (const Finding& f : findings) {
      std::printf("%s\n", format_finding(f, fmt).c_str());
    }
  }
  if (findings.empty()) {
    std::fprintf(stderr, "manet_lint: clean\n");
    return 0;
  }
  std::fprintf(stderr, "manet_lint: %zu finding(s)\n", findings.size());
  return 1;
}

}  // namespace manet::lint
