// lsl-lint — repo-specific static analysis for protocol invariants.
//
// A deterministic lexical/structural analyzer for this repository. It is
// not a C++ front end: it scrubs comments and literals with a small lexer
// and then applies rules that are precise for this codebase's idiom (and
// documented in docs/STATIC_ANALYSIS.md). The value is the contract each
// rule enforces between layers that no compiler flag covers:
//
//   switch-exhaustive       every switch over an enum class handles every
//                           enumerator (or carries a default)
//   switch-default-comment  a default in an enum-class switch must justify
//                           itself with an adjacent comment
//   raw-new-delete          no raw new/delete outside src/util (owning
//                           containers / unique_ptr only; the immediate
//                           unique_ptr<T>(new T...) wrap for private
//                           constructors is allowed)
//   blocking-io             no direct blocking syscalls inside the epoll
//                           event loop or the lsd daemon — all socket I/O
//                           goes through the nonblocking socket_util
//                           helpers
//   wire-docs               every wire-format constant and flag in
//                           src/lsl/wire.* appears in docs/PROTOCOL.md
//   metrics-docs            every metric name registered by
//                           src/metrics/instruments.cpp appears in the
//                           docs/OBSERVABILITY.md catalogue
//   fault-metrics-docs      every `fault.*` / `recovery.*` instrument name
//                           in src/fault appears in the
//                           docs/OBSERVABILITY.md catalogue
//   pool-metrics-docs       every `pool.*` instrument name in src/buf
//                           appears in the docs/OBSERVABILITY.md catalogue
//   live-metrics-docs       every `live.*` instrument name in src/live
//                           appears in the docs/OBSERVABILITY.md catalogue
//   stripe-metrics-docs     every `stripe.*` instrument name in src/stripe
//                           appears in the docs/OBSERVABILITY.md catalogue
//   health-metrics-docs     every `health.*` instrument name in src/health
//                           appears in the docs/OBSERVABILITY.md catalogue
//   span-names-docs         every `span.*` span name anywhere under src/
//                           appears in the docs/OBSERVABILITY.md span
//                           catalogue
//   pragma-once             every header under src/ has #pragma once
//   lock-order              no two mutex names are guard-acquired in both
//                           nesting orders anywhere under src/ (the static
//                           twin of the model checker's lock_order_bug
//                           fixture)
//   thread-discipline       no bare std::thread / sleep_for under src/
//                           outside src/check/ and the one sanctioned
//                           ownership point src/engine/shard_thread.hpp —
//                           concurrency goes through the event loop, the
//                           model-checked shims, or the shard-thread
//                           wrapper; threads belong in tests and tools
//
// Suppression: a comment `lsl-lint: allow(<rule-id>)` on the same line
// silences that rule for that line.
//
// Usage:
//   lsl_lint <repo-root>              lint the tree; exit 1 on violations
//   lsl_lint --self-test <fixtures>   prove every rule fires on the seeded
//                                     fixture tree; exit 1 if any rule
//                                     stays silent
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Infrastructure
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;  // repo-relative path
  int line = 0;
  std::string rule;
  std::string msg;
};

struct StringLit {
  int line = 0;
  std::string value;  // content without quotes
};

/// One scanned source file: raw text, a "clean" view with comments and
/// literal contents blanked (offsets and newlines preserved), collected
/// string literals, per-line comment presence, and per-line suppressions.
struct SourceFile {
  std::string rel;    // path relative to the repo root, '/'-separated
  std::string text;   // raw bytes
  std::string clean;  // comments + literal contents replaced by spaces
  std::vector<StringLit> strings;
  std::vector<bool> line_has_comment;              // 1-indexed
  std::map<int, std::set<std::string>> suppress;   // line -> rule ids
  std::vector<std::size_t> line_starts;            // offset of each line

  int line_of(std::size_t off) const {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), off);
    return static_cast<int>(it - line_starts.begin());
  }
  bool suppressed(int line, const std::string& rule) const {
    const auto it = suppress.find(line);
    return it != suppress.end() && it->second.count(rule) > 0;
  }
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Record an `lsl-lint: allow(rule)` directive found in a comment.
void parse_suppressions(SourceFile& f, const std::string& comment, int line) {
  static const std::string kTag = "lsl-lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string::npos) {
    pos += kTag.size();
    const std::size_t end = comment.find(')', pos);
    if (end == std::string::npos) break;
    f.suppress[line].insert(comment.substr(pos, end - pos));
    pos = end + 1;
  }
}

/// Scrub comments and string/char literal contents from `f.text` into
/// `f.clean`, collecting string literals and comment/suppression metadata.
/// Handles //, /* */, "...", '...' with escapes; raw strings are treated
/// as ordinary strings (none exist in this repo).
void scrub(SourceFile& f) {
  const std::string& s = f.text;
  f.clean.assign(s.size(), ' ');
  f.line_starts.push_back(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') f.line_starts.push_back(i + 1);
  }
  f.line_has_comment.assign(f.line_starts.size() + 2, false);

  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar };
  Mode mode = Mode::kCode;
  std::string current;  // literal or comment accumulator
  int start_line = 1;

  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    const int line = f.line_of(i);
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          current.clear();
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          current.clear();
          ++i;
          f.line_has_comment[static_cast<std::size_t>(line)] = true;
        } else if (c == '"') {
          mode = Mode::kString;
          current.clear();
          start_line = line;
          f.clean[i] = '"';
        } else if (c == '\'') {
          mode = Mode::kChar;
          f.clean[i] = '\'';
        } else {
          f.clean[i] = c;
        }
        break;
      case Mode::kLineComment:
        if (c == '\n') {
          f.line_has_comment[static_cast<std::size_t>(line)] = true;
          parse_suppressions(f, current, line);
          mode = Mode::kCode;
          f.clean[i] = '\n';
        } else {
          current += c;
        }
        break;
      case Mode::kBlockComment:
        f.line_has_comment[static_cast<std::size_t>(line)] = true;
        if (c == '*' && next == '/') {
          parse_suppressions(f, current, line);
          mode = Mode::kCode;
          ++i;
        } else {
          current += c;
        }
        break;
      case Mode::kString:
        if (c == '\\') {
          current += c;
          if (next != '\0') {
            current += next;
            ++i;
          }
        } else if (c == '"') {
          f.clean[i] = '"';
          f.strings.push_back({start_line, current});
          mode = Mode::kCode;
        } else {
          current += c;
          if (c == '\n') f.clean[i] = '\n';
        }
        break;
      case Mode::kChar:
        if (c == '\\') {
          if (next != '\0') ++i;
        } else if (c == '\'') {
          f.clean[i] = '\'';
          mode = Mode::kCode;
        }
        break;
    }
  }
  // Unterminated line comment at EOF.
  if (mode == Mode::kLineComment) {
    const int line = f.line_of(s.empty() ? 0 : s.size() - 1);
    f.line_has_comment[static_cast<std::size_t>(line)] = true;
    parse_suppressions(f, current, line);
  }
}

/// Next identifier token at or after `pos` in `clean`; returns npos at end.
std::size_t next_ident(const std::string& clean, std::size_t pos,
                       std::string* out) {
  while (pos < clean.size()) {
    if (is_ident_char(clean[pos]) &&
        std::isdigit(static_cast<unsigned char>(clean[pos])) == 0) {
      std::size_t end = pos;
      while (end < clean.size() && is_ident_char(clean[end])) ++end;
      *out = clean.substr(pos, end - pos);
      return pos;
    }
    ++pos;
  }
  return std::string::npos;
}

/// First non-whitespace offset at or after `pos`; npos at end.
std::size_t skip_ws(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
  return pos < s.size() ? pos : std::string::npos;
}

/// Last non-whitespace offset strictly before `pos`; npos if none.
std::size_t prev_nonspace(const std::string& s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
  }
  return std::string::npos;
}

/// Offset just past the bracket matching s[open] (which must be `open_ch`);
/// npos when unbalanced.
std::size_t match_bracket(const std::string& s, std::size_t open,
                          char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == open_ch) ++depth;
    if (s[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Enum collection (for switch exhaustiveness)
// ---------------------------------------------------------------------------

/// enum (class) name -> enumerator names, collected across all files.
using EnumMap = std::map<std::string, std::vector<std::string>>;

void collect_enums(const SourceFile& f, EnumMap* enums) {
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    if (tok != "enum") {
      pos = tok_end;
      continue;
    }
    // enum [class|struct] Name [: base] { A, B = expr, C, };
    std::size_t p = tok_end;
    std::string name;
    std::size_t q = next_ident(c, p, &name);
    if (q == std::string::npos) break;
    p = q + name.size();
    if (name == "class" || name == "struct") {
      q = next_ident(c, p, &name);
      if (q == std::string::npos) break;
      p = q + name.size();
    }
    const std::size_t brace = c.find('{', p);
    const std::size_t semi = c.find(';', p);
    if (brace == std::string::npos ||
        (semi != std::string::npos && semi < brace)) {
      pos = tok_end;  // forward declaration / `enum` in other context
      continue;
    }
    const std::size_t body_end = match_bracket(c, brace, '{', '}');
    if (body_end == std::string::npos) {
      pos = tok_end;
      continue;
    }
    // Enumerators: identifiers at depth 0 that directly follow '{' or ','.
    std::vector<std::string> members;
    bool expect_name = true;
    int depth = 0;
    for (std::size_t i = brace + 1; i + 1 < body_end; ++i) {
      const char ch = c[i];
      if (ch == '(' || ch == '{' || ch == '[') ++depth;
      if (ch == ')' || ch == '}' || ch == ']') --depth;
      if (depth > 0) continue;
      if (ch == ',') {
        expect_name = true;
        continue;
      }
      if (expect_name && is_ident_char(ch) &&
          std::isdigit(static_cast<unsigned char>(ch)) == 0) {
        std::size_t e = i;
        while (e < body_end && is_ident_char(c[e])) ++e;
        members.push_back(c.substr(i, e - i));
        expect_name = false;
        i = e - 1;
      }
    }
    if (!members.empty()) (*enums)[name] = members;
    pos = body_end;
  }
}

// ---------------------------------------------------------------------------
// Rule: switch-exhaustive / switch-default-comment
// ---------------------------------------------------------------------------

void rule_switch(const SourceFile& f, const EnumMap& enums,
                 std::vector<Violation>* out) {
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    if (tok != "switch") {
      pos = tok_end;
      continue;
    }
    const std::size_t paren = c.find('(', tok_end);
    if (paren == std::string::npos) break;
    const std::size_t cond_end = match_bracket(c, paren, '(', ')');
    if (cond_end == std::string::npos) break;
    const std::size_t brace = c.find('{', cond_end);
    if (brace == std::string::npos) break;
    const std::size_t body_end = match_bracket(c, brace, '{', '}');
    if (body_end == std::string::npos) break;
    const int sw_line = f.line_of(pos);
    pos = cond_end;  // nested switches are visited by the outer loop too

    // Scan the body for `case Type::Member:` labels and `default:`.
    std::set<std::string> case_members;
    std::string enum_type;
    std::optional<std::size_t> default_off;
    std::size_t p = brace;
    std::string t;
    while ((p = next_ident(c, p, &t)) != std::string::npos && p < body_end) {
      const std::size_t t_end = p + t.size();
      if (t == "default") {
        const std::size_t colon = skip_ws(c, t_end);
        if (colon != std::string::npos && c[colon] == ':' &&
            (colon + 1 >= c.size() || c[colon + 1] != ':')) {
          default_off = p;
        }
      } else if (t == "case") {
        // Read the label up to ':' (not '::').
        std::size_t q = t_end;
        std::string label;
        while (q < body_end) {
          if (c[q] == ':' && q + 1 < body_end && c[q + 1] == ':') {
            label += "::";
            q += 2;
            continue;
          }
          if (c[q] == ':') break;
          if (std::isspace(static_cast<unsigned char>(c[q])) == 0) {
            label += c[q];
          }
          ++q;
        }
        const std::size_t sep = label.rfind("::");
        if (sep != std::string::npos && sep > 0) {
          const std::string member = label.substr(sep + 2);
          std::string qualifier = label.substr(0, sep);
          const std::size_t qsep = qualifier.rfind("::");
          if (qsep != std::string::npos) qualifier = qualifier.substr(qsep + 2);
          if (!member.empty() && !qualifier.empty()) {
            case_members.insert(member);
            enum_type = qualifier;
          }
        }
        p = q;
        continue;
      }
      p = t_end;
    }

    if (enum_type.empty()) continue;  // not a switch over an enum class

    if (default_off) {
      const int dline = f.line_of(*default_off);
      const auto has = [&](int l) {
        return l >= 1 &&
               l < static_cast<int>(f.line_has_comment.size()) &&
               f.line_has_comment[static_cast<std::size_t>(l)];
      };
      if (!has(dline) && !has(dline - 1) && !has(dline + 1) &&
          !f.suppressed(dline, "switch-default-comment")) {
        out->push_back({f.rel, dline, "switch-default-comment",
                        "default in a switch over enum '" + enum_type +
                            "' needs an adjacent comment justifying it"});
      }
      continue;  // default covers the remaining enumerators
    }

    const auto it = enums.find(enum_type);
    if (it == enums.end()) continue;  // enum defined outside the scanned tree
    std::string missing;
    for (const std::string& m : it->second) {
      if (case_members.count(m) == 0) {
        missing += missing.empty() ? m : (", " + m);
      }
    }
    if (!missing.empty() && !f.suppressed(sw_line, "switch-exhaustive")) {
      out->push_back({f.rel, sw_line, "switch-exhaustive",
                      "switch over enum '" + enum_type +
                          "' has no default and misses: " + missing});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-new-delete
// ---------------------------------------------------------------------------

void rule_raw_new_delete(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel.rfind("src/", 0) != 0) return;
  if (f.rel.rfind("src/util/", 0) == 0) return;  // the one allowed home
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    const int line = f.line_of(pos);
    if (tok == "delete") {
      // `= delete` (deleted member) is a declaration, not a deallocation.
      const std::size_t prev = prev_nonspace(c, pos);
      if (prev == std::string::npos || c[prev] != '=') {
        if (!f.suppressed(line, "raw-new-delete")) {
          out->push_back({f.rel, line, "raw-new-delete",
                          "raw 'delete' outside src/util; use owning "
                          "containers or unique_ptr"});
        }
      }
    } else if (tok == "new") {
      // Allowed idiom: std::unique_ptr<T>(new T(...)) — the only way to
      // heap-allocate a class with a private constructor; ownership is
      // taken in the same full-expression.
      const std::size_t ctx_begin = pos > 80 ? pos - 80 : 0;
      std::string ctx = c.substr(ctx_begin, pos - ctx_begin);
      ctx.erase(std::remove_if(ctx.begin(), ctx.end(),
                               [](unsigned char ch) {
                                 return std::isspace(ch) != 0;
                               }),
                ctx.end());
      const bool wrapped =
          ctx.size() >= 2 && ctx.back() == '(' &&
          ctx.rfind("unique_ptr<") != std::string::npos &&
          ctx.find('(', ctx.rfind("unique_ptr<")) == ctx.size() - 1;
      if (!wrapped && !f.suppressed(line, "raw-new-delete")) {
        out->push_back({f.rel, line, "raw-new-delete",
                        "raw 'new' outside src/util; use make_unique or an "
                        "owning container"});
      }
    }
    pos = tok_end;
  }
}

// ---------------------------------------------------------------------------
// Rule: blocking-io
// ---------------------------------------------------------------------------

void rule_blocking_io(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel != "src/engine/epoll_engine.cpp" && f.rel != "src/posix/lsd.cpp") {
    return;
  }
  static const std::set<std::string> kBlocking = {
      "read", "write", "connect", "accept", "send", "recv",
      "recvfrom", "sendto", "poll", "select"};
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    if (kBlocking.count(tok) > 0) {
      const std::size_t after = skip_ws(c, tok_end);
      const bool is_call = after != std::string::npos && c[after] == '(';
      // Member access (x.read) is not glibc; qualified ::read is. A plain
      // identifier call also resolves to the global in these files.
      const std::size_t prev = prev_nonspace(c, pos);
      const bool member =
          prev != std::string::npos && (c[prev] == '.' || c[prev] == '>');
      const int line = f.line_of(pos);
      if (is_call && !member && !f.suppressed(line, "blocking-io")) {
        out->push_back({f.rel, line, "blocking-io",
                        "direct '" + tok +
                            "()' in the event loop; use the nonblocking "
                            "socket_util helpers"});
      }
    }
    pos = tok_end;
  }
}

// ---------------------------------------------------------------------------
// Rule: wire-docs
// ---------------------------------------------------------------------------

/// Collect `constexpr ... kName` declarations and enumerators from a file.
std::vector<std::pair<std::string, int>> wire_constants(const SourceFile& f) {
  std::vector<std::pair<std::string, int>> names;
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    if (tok != "constexpr") {
      pos = tok_end;
      continue;
    }
    // First k[A-Z]... identifier before the initializer is the name.
    std::size_t p = tok_end;
    std::string t;
    while ((p = next_ident(c, p, &t)) != std::string::npos) {
      const std::size_t t_end = p + t.size();
      if (t.size() >= 2 && t[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(t[1])) != 0) {
        names.emplace_back(t, f.line_of(p));
        break;
      }
      const std::size_t stop = c.find_first_of("=;{", t_end);
      if (stop != std::string::npos && stop <= skip_ws(c, t_end)) break;
      p = t_end;
    }
    pos = tok_end;
  }
  // Enumerators (wire flags live in a plain enum).
  EnumMap enums;
  collect_enums(f, &enums);
  for (const auto& [name, members] : enums) {
    (void)name;
    for (const std::string& m : members) {
      if (m.size() >= 2 && m[0] == 'k') names.emplace_back(m, 0);
    }
  }
  return names;
}

void rule_wire_docs(const std::vector<SourceFile>& files,
                    const std::string& protocol_md,
                    std::vector<Violation>* out) {
  for (const SourceFile& f : files) {
    if (f.rel != "src/lsl/wire.hpp" && f.rel != "src/lsl/wire.cpp") continue;
    for (const auto& [name, line] : wire_constants(f)) {
      if (protocol_md.find(name) == std::string::npos &&
          !f.suppressed(line, "wire-docs")) {
        out->push_back({f.rel, line, "wire-docs",
                        "wire-format constant '" + name +
                            "' is not documented in docs/PROTOCOL.md"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: metrics-docs
// ---------------------------------------------------------------------------

void rule_metrics_docs(const std::vector<SourceFile>& files,
                       const std::string& observability_md,
                       std::vector<Violation>* out) {
  for (const SourceFile& f : files) {
    if (f.rel != "src/metrics/instruments.cpp") continue;
    for (const StringLit& lit : f.strings) {
      if (lit.value.size() < 2 || lit.value[0] != '.') continue;
      const std::string name = lit.value.substr(1);
      if (name.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz0123456789_") != std::string::npos) {
        continue;  // not a metric suffix
      }
      if (observability_md.find(name) == std::string::npos &&
          !f.suppressed(lit.line, "metrics-docs")) {
        out->push_back({f.rel, lit.line, "metrics-docs",
                        "metric name '" + name +
                            "' is not catalogued in docs/OBSERVABILITY.md"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: fault-, pool-, live-, stripe-, health-metrics-docs, span-names-docs
// ---------------------------------------------------------------------------

// Subsystems that register instruments (or spans) by literal name wherever
// they attach, not through one registration site — so the net is wider than
// metrics-docs: every literal under `dir` that starts with one of the
// prefixes and looks like a dotted name must be catalogued in
// docs/OBSERVABILITY.md. The span vocabulary is shared verbatim between the
// simulator and the posix daemon and tools/lsl_spans keys its per-hop
// rollups on the exact strings, so its net spans all of src/.
struct PrefixDocsRule {
  const char* rule;
  const char* dir;
  std::vector<std::string> prefixes;
  const char* noun;  ///< message subject, e.g. "pool metric"
};

const std::vector<PrefixDocsRule>& prefix_docs_rules() {
  static const std::vector<PrefixDocsRule> kRules = {
      {"fault-metrics-docs", "src/fault/", {"fault.", "recovery."},
       "fault/recovery metric"},
      {"pool-metrics-docs", "src/buf/", {"pool."}, "pool metric"},
      {"live-metrics-docs", "src/live/", {"live."}, "live metric"},
      {"stripe-metrics-docs", "src/stripe/", {"stripe."}, "stripe metric"},
      {"health-metrics-docs", "src/health/", {"health."}, "health metric"},
      {"span-names-docs", "src/", {"span."}, "span name"},
  };
  return kRules;
}

void rule_prefix_docs(const std::vector<SourceFile>& files,
                      const std::string& observability_md,
                      std::vector<Violation>* out) {
  for (const PrefixDocsRule& rule : prefix_docs_rules()) {
    for (const SourceFile& f : files) {
      if (f.rel.rfind(rule.dir, 0) != 0) continue;
      for (const StringLit& lit : f.strings) {
        if (std::none_of(rule.prefixes.begin(), rule.prefixes.end(),
                         [&](const std::string& p) {
                           return lit.value.rfind(p, 0) == 0;
                         })) {
          continue;
        }
        if (lit.value.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz0123456789_.") !=
            std::string::npos) {
          continue;  // prose mentioning the prefix, not a name
        }
        if (observability_md.find(lit.value) == std::string::npos &&
            !f.suppressed(lit.line, rule.rule)) {
          out->push_back({f.rel, lit.line, rule.rule,
                          std::string(rule.noun) + " '" + lit.value +
                              "' is not catalogued in docs/OBSERVABILITY.md"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------------

// Deadlock prevention, lexically: every RAII guard declaration
// (lock_guard / unique_lock / scoped_lock) names the mutex it acquires,
// and while one guard is in scope a second declaration orders the pair.
// If two mutex names are ever ordered both ways anywhere under src/, the
// AB/BA deadlock needs only the right interleaving — the model checker's
// lock_order_bug scenario demonstrates that dynamically; this rule refuses
// the pattern statically, across functions and files. Matching is by the
// mutexes' spelled names, so the rule is a heuristic: keep mutex member
// names distinct across classes whose critical sections nest. A
// multi-mutex std::scoped_lock acquires its arguments atomically, so no
// pair is recorded between them — only against enclosing guards.

struct LockSite {
  std::string file;
  int line = 0;
  bool suppressed = false;
};

using LockPairMap = std::map<std::pair<std::string, std::string>, LockSite>;

void collect_lock_orders(const SourceFile& f, LockPairMap* pairs) {
  static const std::set<std::string> kGuards = {"lock_guard", "unique_lock",
                                                "scoped_lock"};
  const std::string& c = f.clean;
  std::vector<std::pair<int, std::string>> active;  // (decl depth, mutex)
  int depth = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const char ch = c[i];
    if (ch == '{') {
      ++depth;
      continue;
    }
    if (ch == '}') {
      --depth;
      while (!active.empty() && active.back().first > depth) {
        active.pop_back();
      }
      continue;
    }
    if (!is_ident_char(ch) ||
        std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      continue;
    }
    std::size_t end = i;
    while (end < c.size() && is_ident_char(c[end])) ++end;
    const std::string tok = c.substr(i, end - i);
    const std::size_t tok_at = i;
    i = end - 1;
    if (kGuards.count(tok) == 0) continue;
    // A declaration reads: guard[<...>] var ( mutex [, ...] ) — anything
    // else (using-alias, qualified mention in a comment-free context) is
    // skipped by failing these shape checks.
    std::size_t p = skip_ws(c, end);
    if (p == std::string::npos) continue;
    if (c[p] == '<') {
      // Naive angle matching is fine here: guard template arguments in
      // this codebase never contain comparison operators.
      p = match_bracket(c, p, '<', '>');
      if (p == std::string::npos) continue;
      p = skip_ws(c, p);
      if (p == std::string::npos) continue;
    }
    if (!is_ident_char(c[p]) ||
        std::isdigit(static_cast<unsigned char>(c[p])) != 0) {
      continue;
    }
    std::size_t ve = p;
    while (ve < c.size() && is_ident_char(c[ve])) ++ve;
    const std::size_t paren = skip_ws(c, ve);
    if (paren == std::string::npos || c[paren] != '(') continue;
    const std::size_t args_end = match_bracket(c, paren, '(', ')');
    if (args_end == std::string::npos) continue;
    // First argument = the mutex (later arguments are tags like
    // defer_lock, or scoped_lock's additional mutexes).
    std::string mutex_name;
    int adepth = 0;
    for (std::size_t q = paren + 1; q + 1 < args_end; ++q) {
      if (c[q] == '(' || c[q] == '[' || c[q] == '{') ++adepth;
      if (c[q] == ')' || c[q] == ']' || c[q] == '}') --adepth;
      if (c[q] == ',' && adepth == 0) break;
      if (std::isspace(static_cast<unsigned char>(c[q])) == 0) {
        mutex_name += c[q];
      }
    }
    if (mutex_name.empty()) continue;
    const int line = f.line_of(tok_at);
    for (const auto& [d, held] : active) {
      (void)d;
      if (held == mutex_name) continue;
      const auto key = std::make_pair(held, mutex_name);
      if (pairs->count(key) == 0) {
        (*pairs)[key] =
            LockSite{f.rel, line, f.suppressed(line, "lock-order")};
      }
    }
    active.emplace_back(depth, mutex_name);
  }
}

void rule_lock_order(const std::vector<SourceFile>& files,
                     std::vector<Violation>* out) {
  LockPairMap pairs;
  for (const SourceFile& f : files) collect_lock_orders(f, &pairs);
  for (const auto& [key, site] : pairs) {
    const auto rev = pairs.find(std::make_pair(key.second, key.first));
    if (rev == pairs.end() || site.suppressed) continue;
    out->push_back(
        {site.file, site.line, "lock-order",
         "mutex '" + key.second + "' acquired while holding '" + key.first +
             "', but the opposite order exists at " + rev->second.file + ":" +
             std::to_string(rev->second.line) + " (AB/BA deadlock)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: thread-discipline
// ---------------------------------------------------------------------------

// The daemon is event-driven: one epoll loop, deadlines on the
// DeadlineWheel, and concurrency-to-be behind the check:: sync shims so
// the model checker can explore it. A bare std::thread or chrono sleep in
// src/ bypasses all three (and a sleep in the event loop stalls every
// session at once). src/check/ is the one sanctioned home — its scheduler
// runs virtual threads on real ones; tests and tools are outside the net
// entirely.
void rule_thread_discipline(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel.rfind("src/", 0) != 0) return;
  if (f.rel.rfind("src/check/", 0) == 0) return;
  // The sharded runtime needs real OS threads somewhere, and that
  // somewhere is exactly one file: the join-on-destruction ShardThread
  // wrapper. Everything else under src/ — including the rest of
  // src/engine/ — spawns through it or stays on the event loop, so the
  // ban holds for them unchanged.
  if (f.rel == "src/engine/shard_thread.hpp") return;
  const std::string& c = f.clean;
  std::size_t pos = 0;
  std::string tok;
  while ((pos = next_ident(c, pos, &tok)) != std::string::npos) {
    const std::size_t tok_end = pos + tok.size();
    const int line = f.line_of(pos);
    std::string what;
    if (tok == "thread" || tok == "jthread") {
      // Only the std:: type; fields or locals merely *named* thread pass.
      std::size_t p = prev_nonspace(c, pos);
      if (p != std::string::npos && p >= 1 && c[p] == ':' &&
          c[p - 1] == ':') {
        const std::size_t q = prev_nonspace(c, p - 1);
        if (q != std::string::npos && is_ident_char(c[q])) {
          std::size_t b = q;
          while (b > 0 && is_ident_char(c[b - 1])) --b;
          if (c.substr(b, q - b + 1) == "std") what = "std::" + tok;
        }
      }
    } else if (tok == "sleep_for" || tok == "sleep_until" ||
               tok == "this_thread") {
      what = tok;
    }
    if (!what.empty() && !f.suppressed(line, "thread-discipline")) {
      out->push_back({f.rel, line, "thread-discipline",
                      "bare '" + what +
                          "' in src/: the daemon is event-driven — use the "
                          "epoll loop / DeadlineWheel, or the check:: shims "
                          "for model-checked concurrency (src/check/, tests, "
                          "and tools are the sanctioned homes for threads)"});
    }
    pos = tok_end;
  }
}

// ---------------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------------

void rule_pragma_once(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel.rfind("src/", 0) != 0) return;
  if (f.rel.size() < 4 || f.rel.substr(f.rel.size() - 4) != ".hpp") return;
  if (f.text.find("#pragma once") == std::string::npos &&
      !f.suppressed(1, "pragma-once")) {
    out->push_back(
        {f.rel, 1, "pragma-once", "header is missing '#pragma once'"});
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Violation> run_lint(const fs::path& root) {
  std::vector<SourceFile> files;
  std::vector<fs::path> paths;
  const fs::path src = root / "src";
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  for (const fs::path& p : paths) {
    SourceFile f;
    f.rel = fs::relative(p, root).generic_string();
    f.text = read_file(p);
    scrub(f);
    files.push_back(std::move(f));
  }

  EnumMap enums;
  for (const SourceFile& f : files) collect_enums(f, &enums);

  const std::string protocol_md = read_file(root / "docs" / "PROTOCOL.md");
  const std::string observability_md =
      read_file(root / "docs" / "OBSERVABILITY.md");

  std::vector<Violation> vs;
  for (const SourceFile& f : files) {
    rule_switch(f, enums, &vs);
    rule_raw_new_delete(f, &vs);
    rule_blocking_io(f, &vs);
    rule_pragma_once(f, &vs);
    rule_thread_discipline(f, &vs);
  }
  rule_lock_order(files, &vs);
  rule_wire_docs(files, protocol_md, &vs);
  rule_metrics_docs(files, observability_md, &vs);
  rule_prefix_docs(files, observability_md, &vs);

  std::sort(vs.begin(), vs.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return vs;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "switch-exhaustive",  "switch-default-comment", "raw-new-delete",
      "blocking-io",        "wire-docs",              "metrics-docs",
      "fault-metrics-docs", "pool-metrics-docs",      "live-metrics-docs",
      "stripe-metrics-docs", "health-metrics-docs",   "span-names-docs",
      "pragma-once",        "lock-order",             "thread-discipline"};
  return kRules;
}

int self_test(const fs::path& fixtures) {
  const std::vector<Violation> vs = run_lint(fixtures);
  std::set<std::string> fired;
  for (const Violation& v : vs) fired.insert(v.rule);
  int missing = 0;
  // Negative fixture: the shard-thread carve-out. The seeded copy of
  // src/engine/shard_thread.hpp holds a bare std::thread that must stay
  // silent, while its sibling bad file (and src/thread_misuse.cpp) keep
  // the rule itself honest.
  bool sibling_fired = false;
  for (const Violation& v : vs) {
    if (v.file == "src/engine/shard_thread.hpp") {
      std::printf(
          "self-test: FAILED (thread-discipline fired on the sanctioned "
          "shard-thread wrapper: %s:%d)\n",
          v.file.c_str(), v.line);
      return 1;
    }
    if (v.file == "src/engine/thread_misuse.hpp" &&
        v.rule == "thread-discipline") {
      sibling_fired = true;
    }
  }
  if (!sibling_fired) {
    std::printf(
        "self-test: FAILED (carve-out leaks: thread-discipline silent on "
        "src/engine/thread_misuse.hpp)\n");
    return 1;
  }
  for (const std::string& rule : all_rules()) {
    if (fired.count(rule) > 0) {
      std::printf("self-test: rule %-24s fired\n", rule.c_str());
    } else {
      std::printf("self-test: rule %-24s DID NOT FIRE\n", rule.c_str());
      ++missing;
    }
  }
  for (const Violation& v : vs) {
    std::printf("  %s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.msg.c_str());
  }
  if (missing > 0) {
    std::printf("self-test: FAILED (%d rule(s) silent on seeded fixtures)\n",
                missing);
    return 1;
  }
  std::printf("self-test: all %zu rules fire on the seeded fixtures\n",
              all_rules().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--self-test") {
    return self_test(argv[2]);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: lsl_lint <repo-root>\n"
                 "       lsl_lint --self-test <fixture-root>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "lsl_lint: no src/ under '%s'\n", argv[1]);
    return 2;
  }
  const std::vector<Violation> vs = run_lint(root);
  for (const Violation& v : vs) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.msg.c_str());
  }
  if (vs.empty()) {
    std::printf("lsl_lint: clean (%zu rules)\n", all_rules().size());
    return 0;
  }
  std::printf("lsl_lint: %zu violation(s)\n", vs.size());
  return 1;
}
