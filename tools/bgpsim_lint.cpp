// bgpsim-lint v2 — domain-specific linter for rules no generic tool knows.
//
// Architecture: a real tokenizer (strings, character literals, and comments
// can never trigger a rule) feeds multiple passes —
//
//   pass 0  tokenize; collect `// bgpsim-lint: allow(<rule>[, <rule>...])`
//           suppression comments (a suppression covers its own line and the
//           line below, so it can sit above or beside the finding)
//   pass 1  line rules over comment/string-stripped lines (the PR-1 rule
//           set: pragma-once, raw-assert, rng-policy, library-io,
//           timing-policy, thread-policy, obs-io, serve-logging)
//   pass 2  token rules (the concurrency set: raw-lock, mutex-annotation,
//           seq-cst-atomic, detached-thread)
//   pass 3  optional header self-containment (--check-headers; invokes the
//           compiler per header)
//
// Rules (see DESIGN.md "Correctness tooling" and "Concurrency model"):
//   pragma-once      every header carries #pragma once
//   raw-assert       no assert()/abort()/<cassert> outside support/assert.hpp
//   rng-policy       no std:: engines / rand() outside support/rng.*
//   library-io       no stdout/stderr writes in src/ library code
//   timing-policy    no raw std::chrono in src/ outside src/obs/
//   thread-policy    no std::thread in src/ outside the thread homes
//   obs-io           no direct ofstream JSON emission outside obs/store
//   serve-logging    no stdout/stderr writes from src/serve/ request
//                    handlers — request reporting goes through the access
//                    log and metrics registry, never a worker's stdio
//   raw-lock         no direct .lock()/.unlock()/.try_lock() member calls in
//                    src/ — locks are held through the annotated RAII guard
//                    (bgpsim::MutexLock, support/thread_annotations.hpp), the
//                    only pattern Clang's -Wthread-safety can reason about
//   mutex-annotation a std::mutex / std::condition_variable member in a
//                    header must sit next to a BGPSIM_CAPABILITY /
//                    BGPSIM_GUARDED_BY annotation — in practice: use
//                    bgpsim::Mutex, which is capability-annotated, so the
//                    static analysis sees every lock in the tree
//   seq-cst-atomic   every std::atomic load/store/fetch_*/exchange/
//                    compare_exchange in src/ spells out its memory_order;
//                    a bare call silently pays for seq_cst the author almost
//                    never meant, and hides which orderings the algorithm
//                    actually relies on
//   detached-thread  .detach() is banned everywhere: a detached thread
//                    outlives every join point, dodges the tsan lane's exit
//                    barrier, and races static destruction
//   self-contained   every public header under src/ compiles standalone
//
// Files under tests/lint_fixtures/ are linted as library code: they are
// deliberate violations that pin each rule's behavior in CI (each
// lint_detects_* test requires exit 1 and exactly its rule ids in --json).
//
// Output: file:line: rule: message lines on stdout (editors and CI annotate
// them), plus optional machine-readable reports via --json PATH and
// --sarif PATH (SARIF 2.1.0, consumed by GitHub code scanning).
//
// Exit status: 0 clean, 1 non-suppressed findings, 2 usage or I/O error.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* description;
};

constexpr RuleInfo kRules[] = {
    {"pragma-once", "every header carries #pragma once"},
    {"raw-assert",
     "invariants throw via BGPSIM_ASSERT (support/assert.hpp), never "
     "assert()/abort()"},
    {"rng-policy",
     "all randomness flows through the deterministic, explicitly seeded "
     "bgpsim::Rng"},
    {"library-io",
     "library code reports through return values and exceptions, not stdio"},
    {"timing-policy",
     "all timing flows through bgpsim::obs so it compiles out under "
     "-DBGPSIM_OBS=OFF"},
    {"thread-policy",
     "threads are constructed only in the sanctioned homes (parallel_for, "
     "obs heartbeat, net, serve)"},
    {"obs-io",
     "JSON-emitting library code routes file output through the obs layer"},
    {"serve-logging",
     "serve handlers never write to stdout/stderr; request reporting goes "
     "through the access log and metrics registry"},
    {"raw-lock",
     "locks are held through the annotated RAII guard (bgpsim::MutexLock), "
     "never via direct .lock()/.unlock() calls"},
    {"mutex-annotation",
     "mutex/condvar members in headers carry Clang thread-safety "
     "annotations (use bgpsim::Mutex + BGPSIM_GUARDED_BY)"},
    {"seq-cst-atomic",
     "atomic operations spell out their memory_order instead of defaulting "
     "to seq_cst"},
    {"detached-thread",
     "std::thread::detach is banned: detached threads dodge every join "
     "point and race static destruction"},
    {"signal-safety",
     "signal/timer/unwind APIs (signal, sigaction, setitimer, backtrace, "
     "...) live only in src/obs/profiler*; ad-hoc handlers dodge the "
     "async-signal-safety contract"},
    {"provenance-home",
     "provenance edges are emitted only by the engines (src/bgp/) and the "
     "obs layer itself; record_edge calls elsewhere would fork the "
     "infection-tree ground truth"},
    {"campaign-home",
     "the campaign estimator/sampler types (MomentAccumulator, P2Quantile, "
     "QuantileReservoir, CampaignSampler, StratumEstimator) live only in "
     "src/campaign/; other code consumes campaigns through the driver API so "
     "there is exactly one implementation of the statistics to audit"},
    {"attack-home",
     "in src/, only the engines (src/bgp/), HijackSimulator (src/hijack/) "
     "and the baseline store (src/store/) call an engine's announce, "
     "compute_hijack or compute_single; every other surface attacks through "
     "HijackSimulator::attack_ex so there is exactly one attack path"},
    {"obs-config-home",
     "in src/, only obs::Config::from_env() (src/obs/config.cpp) reads the "
     "environment through env_string/env_u64/env_f64/env_bool, plus the "
     "sweep pool's BGPSIM_THREADS read in src/analysis/vulnerability.cpp; "
     "every obs knob is parsed once and echoed on /statusz"},
    {"self-contained", "every public header under src/ compiles standalone"},
    {"io", "linted file could not be read"},
};

struct Options {
  fs::path root;
  std::vector<fs::path> explicit_paths;
  bool check_headers = false;
  std::string cxx = "c++";
  std::string json_path;
  std::string sarif_path;
};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { Ident, Number, String, CharLit, Punct };
  Kind kind;
  std::string text;  // for Punct: the operator spelling ("::", "->", ".", ...)
  std::size_t line;  // 1-based
};

/// Suppressions harvested from comments: line number -> set of rule ids
/// allowed on that line and the one below it.
using SuppressionMap = std::map<std::size_t, std::set<std::string>>;

struct LexedFile {
  std::vector<Token> tokens;
  SuppressionMap suppressions;
  std::vector<std::string> stripped_lines;  // comments/strings blanked
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Record `bgpsim-lint: allow(a, b)` rule lists found inside comment text.
void harvest_suppressions(const std::string& comment, std::size_t line,
                          SuppressionMap& out) {
  static const std::string kMarker = "bgpsim-lint:";
  std::size_t pos = comment.find(kMarker);
  while (pos != std::string::npos) {
    std::size_t cursor = pos + kMarker.size();
    while (cursor < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[cursor]))) {
      ++cursor;
    }
    if (comment.compare(cursor, 6, "allow(") == 0) {
      cursor += 6;
      const std::size_t close = comment.find(')', cursor);
      if (close != std::string::npos) {
        std::string rule;
        for (std::size_t i = cursor; i <= close; ++i) {
          const char c = i < close ? comment[i] : ',';
          if (c == ',' ) {
            while (!rule.empty() && rule.back() == ' ') rule.pop_back();
            if (!rule.empty()) out[line].insert(rule);
            rule.clear();
          } else if (c != ' ' || !rule.empty()) {
            rule.push_back(c);
          }
        }
      }
    }
    pos = comment.find(kMarker, pos + kMarker.size());
  }
}

/// One pass over the raw text: emits tokens, collects suppression comments,
/// and produces comment/string-stripped lines for the line-based rules.
LexedFile lex(const std::string& text) {
  LexedFile out;
  std::string stripped;
  stripped.reserve(text.size());
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto emit_punct = [&](std::string op) {
    out.tokens.push_back({Token::Kind::Punct, std::move(op), line});
  };

  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';

    if (c == '\n') {
      stripped.push_back('\n');
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && next == '/') {
      const std::size_t start = i;
      while (i < n && text[i] != '\n') ++i;
      harvest_suppressions(text.substr(start, i - start), line,
                           out.suppressions);
      continue;
    }
    if (c == '/' && next == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          stripped.push_back('\n');
          ++line;
        }
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      harvest_suppressions(text.substr(start, i - start), start_line,
                           out.suppressions);
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string literal;
      stripped.push_back(quote);
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          literal.push_back(text[i]);
          literal.push_back(text[i + 1]);
          i += 2;
          continue;
        }
        if (text[i] == '\n') {  // unterminated; keep lines aligned
          stripped.push_back('\n');
          ++line;
          ++i;
          break;
        }
        literal.push_back(text[i]);
        ++i;
      }
      if (i < n && text[i] == quote) {
        stripped.push_back(quote);
        ++i;
      }
      out.tokens.push_back({quote == '"' ? Token::Kind::String
                                         : Token::Kind::CharLit,
                            std::move(literal), line});
      continue;
    }
    if (is_ident_start(c)) {
      std::string ident;
      while (i < n && is_ident_char(text[i])) {
        ident.push_back(text[i]);
        ++i;
      }
      stripped.append(ident);
      out.tokens.push_back({Token::Kind::Ident, std::move(ident), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string number;
      while (i < n && (is_ident_char(text[i]) || text[i] == '.' ||
                       ((text[i] == '+' || text[i] == '-') && i > 0 &&
                        (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        number.push_back(text[i]);
        ++i;
      }
      stripped.append(number);
      out.tokens.push_back({Token::Kind::Number, std::move(number), line});
      continue;
    }
    // Punctuation; ::, ->, and . are the shapes the token rules care about.
    stripped.push_back(c);
    if (c == ':' && next == ':') {
      stripped.push_back(next);
      emit_punct("::");
      i += 2;
    } else if (c == '-' && next == '>') {
      stripped.push_back(next);
      emit_punct("->");
      i += 2;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      emit_punct(std::string(1, c));
      ++i;
    } else {
      ++i;
    }
  }

  // Split the stripped text into lines (kept 1-aligned with the source).
  std::string current;
  for (const char ch : stripped) {
    if (ch == '\n') {
      out.stripped_lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  out.stripped_lines.push_back(std::move(current));
  return out;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool has_extension(const fs::path& p, std::initializer_list<const char*> exts) {
  const std::string ext = p.extension().string();
  for (const char* e : exts) {
    if (ext == e) return true;
  }
  return false;
}

std::string generic_rel(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// True when `token` occurs in `line` as a whole identifier (not a suffix of
/// a longer name like static_assert or BGPSIM_ASSERT).
bool has_identifier(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok =
        pos == 0 || (!std::isalnum(static_cast<unsigned char>(line[pos - 1])) &&
                     line[pos - 1] != '_');
    const std::size_t end = pos + token.size();
    const bool right_ok =
        end >= line.size() ||
        (!std::isalnum(static_cast<unsigned char>(line[end])) && line[end] != '_');
    if (left_ok && right_ok) return true;
    pos += token.size();
  }
  return false;
}

/// True when `line` calls the free function `name`, unqualified or with a
/// `std::`, `::std::` or global `::` qualifier. Member calls (`.name(`,
/// `->name(`) and other namespaces' functions (`obs::name(`) do not count.
bool has_call(const std::string& line, const std::string& name) {
  const auto qualified_by = [&line](std::size_t at, std::string_view q) {
    return at >= q.size() && line.compare(at - q.size(), q.size(), q) == 0;
  };
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    std::size_t start = pos;
    if (qualified_by(start, "std::")) start -= 5;
    if (qualified_by(start, "::")) start -= 2;
    const bool left_ok =
        start == 0 ||
        (!std::isalnum(static_cast<unsigned char>(line[start - 1])) &&
         line[start - 1] != '_' && line[start - 1] != ':' &&
         line[start - 1] != '.' && line[start - 1] != '>');
    std::size_t end = pos + name.size();
    while (end < line.size() && std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    if (left_ok && end < line.size() && line[end] == '(') return true;
    pos += name.size();
  }
  return false;
}

/// Path taxonomy one file's rules depend on; computed once per file.
struct FileContext {
  std::string rel;
  bool is_header = false;
  bool is_library = false;     // src/ (+ the deliberate fixtures)
  bool is_assert_home = false;
  bool is_rng_home = false;
  bool is_obs_home = false;
  bool is_thread_home = false;
  bool is_json_io_home = false;
  bool is_serve = false;       // src/serve/: the serve-logging rule applies
  bool is_lock_home = false;   // the annotated Mutex/MutexLock live here
  bool is_profiler_home = false;  // src/obs/profiler*: signal APIs allowed
  bool is_provenance_home = false;  // src/bgp/ + src/obs/: record_edge allowed
  bool is_campaign_home = false;    // src/campaign/: estimator/sampler types
  bool is_attack_home = false;  // src/{bgp,hijack,store}/: engine runs
  bool is_env_home = false;  // src/obs/config.cpp + src/support/env.*
};

FileContext classify(const fs::path& path, const fs::path& root) {
  FileContext ctx;
  ctx.rel = generic_rel(path, root);
  ctx.is_header = has_extension(path, {".hpp", ".h"});
  const bool is_fixture = starts_with(ctx.rel, "tests/lint_fixtures/");
  ctx.is_library = starts_with(ctx.rel, "src/") || is_fixture;
  ctx.is_assert_home = ctx.rel == "src/support/assert.hpp";
  ctx.is_rng_home = starts_with(ctx.rel, "src/support/rng");
  ctx.is_obs_home = starts_with(ctx.rel, "src/obs/");
  ctx.is_thread_home = ctx.is_obs_home || starts_with(ctx.rel, "src/net/") ||
                       starts_with(ctx.rel, "src/serve/") ||
                       starts_with(ctx.rel, "src/support/parallel");
  ctx.is_json_io_home = ctx.is_obs_home || starts_with(ctx.rel, "src/store/");
  ctx.is_serve = starts_with(ctx.rel, "src/serve/") ||
                 starts_with(ctx.rel, "tests/lint_fixtures/serve_logging");
  ctx.is_lock_home = ctx.rel == "src/support/thread_annotations.hpp";
  ctx.is_profiler_home = starts_with(ctx.rel, "src/obs/profiler");
  ctx.is_provenance_home =
      starts_with(ctx.rel, "src/bgp/") || ctx.is_obs_home;
  ctx.is_campaign_home = starts_with(ctx.rel, "src/campaign/");
  ctx.is_attack_home = starts_with(ctx.rel, "src/bgp/") ||
                       starts_with(ctx.rel, "src/hijack/") ||
                       starts_with(ctx.rel, "src/store/");
  ctx.is_env_home = ctx.rel == "src/obs/config.cpp" ||
                    starts_with(ctx.rel, "src/support/env.");
  return ctx;
}

// ---------------------------------------------------------------------------
// Pass 1: line rules (the PR-1 rule set, unchanged behavior)
// ---------------------------------------------------------------------------

void run_line_rules(const FileContext& ctx, const LexedFile& lexed,
                    std::vector<Finding>& findings) {
  const std::vector<std::string>& lines = lexed.stripped_lines;
  bool saw_pragma_once = false;
  bool emits_json = false;
  for (const std::string& line : lines) {
    if (line.find("#pragma once") != std::string::npos) saw_pragma_once = true;
    if (line.find("JsonWriter") != std::string::npos ||
        line.find("obs/json.hpp") != std::string::npos) {
      emits_json = true;
    }
  }

  if (ctx.is_header && !saw_pragma_once) {
    findings.push_back(
        {ctx.rel, 1, "pragma-once", "header is missing #pragma once"});
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t lineno = i + 1;

    if (!ctx.is_assert_home) {
      if (has_call(line, "assert")) {
        findings.push_back({ctx.rel, lineno, "raw-assert",
                            "use BGPSIM_ASSERT/BGPSIM_REQUIRE/BGPSIM_DASSERT "
                            "(support/assert.hpp) instead of assert()"});
      }
      if (has_call(line, "abort")) {
        findings.push_back({ctx.rel, lineno, "raw-assert",
                            "use BGPSIM_ASSERT (throws, catchable by drivers) "
                            "instead of abort()"});
      }
      if (line.find("<cassert>") != std::string::npos ||
          line.find("<assert.h>") != std::string::npos) {
        findings.push_back({ctx.rel, lineno, "raw-assert",
                            "include support/assert.hpp, not <cassert>"});
      }
    }

    if (!ctx.is_rng_home) {
      for (const char* banned :
           {"std::random_device", "std::mt19937", "std::mt19937_64",
            "std::minstd_rand", "std::default_random_engine"}) {
        if (line.find(banned) != std::string::npos) {
          findings.push_back({ctx.rel, lineno, "rng-policy",
                              std::string(banned) +
                                  " breaks run reproducibility; draw from an "
                                  "explicitly seeded bgpsim::Rng"});
        }
      }
      if (has_call(line, "rand") || has_call(line, "srand")) {
        findings.push_back({ctx.rel, lineno, "rng-policy",
                            "rand()/srand() is non-deterministic across "
                            "platforms; use bgpsim::Rng"});
      }
    }

    if (ctx.is_library && !ctx.is_obs_home) {
      if (line.find("std::chrono") != std::string::npos ||
          line.find("<chrono>") != std::string::npos ||
          line.find("<ctime>") != std::string::npos) {
        findings.push_back({ctx.rel, lineno, "timing-policy",
                            "raw timing in library code; go through "
                            "bgpsim::obs (BGPSIM_TIMED_SCOPE / obs::StopWatch) "
                            "so it compiles out under -DBGPSIM_OBS=OFF"});
      }
    }

    if (ctx.is_library && !ctx.is_thread_home) {
      if (line.find("std::thread") != std::string::npos ||
          line.find("std::jthread") != std::string::npos ||
          line.find("<thread>") != std::string::npos) {
        findings.push_back({ctx.rel, lineno, "thread-policy",
                            "raw threads in library code; fan out through "
                            "bgpsim::parallel_for (support/parallel.hpp) "
                            "so worker counts and joins stay in one place"});
      }
    }

    if (ctx.is_library && !ctx.is_json_io_home && emits_json &&
        line.find("std::ofstream") != std::string::npos) {
      findings.push_back({ctx.rel, lineno, "obs-io",
                          "direct std::ofstream in JSON-emitting library "
                          "code; emit through bgpsim::obs (RunReport / "
                          "EventLogSink), which owns file lifecycle"});
    }

    if (ctx.is_serve) {
      // Tighter than library-io: a request handler that logs to a shared
      // stdio stream interleaves across workers and is invisible to the
      // access log's seq ordering. fprintf-family and the raw streams are
      // all banned; report through record_request()/metrics instead.
      for (const char* banned : {"fprintf", "fputs", "fputc", "fwrite",
                                 "vfprintf", "perror"}) {
        // has_identifier, not has_call: the std::-qualified spellings must
        // fire too.
        if (has_identifier(line, banned)) {
          findings.push_back({ctx.rel, lineno, "serve-logging",
                              std::string(banned) +
                                  " in serve code; request reporting goes "
                                  "through the access log / metrics, not a "
                                  "worker's stdio"});
        }
      }
      for (const char* stream : {"stdout", "stderr", "clog"}) {
        if (has_identifier(line, stream)) {
          findings.push_back({ctx.rel, lineno, "serve-logging",
                              std::string(stream) +
                                  " referenced in serve code; handlers must "
                                  "not touch process stdio"});
        }
      }
    }

    if (!ctx.is_profiler_home) {
      // Signal handlers, interval timers, and the unwinder have one
      // sanctioned home: the sampling profiler, whose handler honors the
      // async-signal-safety contract (DESIGN.md §13). An ad-hoc handler
      // elsewhere can deadlock on malloc or a lock the interrupted thread
      // holds. has_identifier, not has_call: the std::-qualified spellings
      // and <signal.h>-style includes must fire too.
      for (const char* banned :
           {"signal", "sigaction", "setitimer", "getitimer", "sigaltstack",
            "backtrace", "backtrace_symbols", "backtrace_symbols_fd"}) {
        if (has_identifier(line, banned)) {
          findings.push_back({ctx.rel, lineno, "signal-safety",
                              std::string(banned) +
                                  " outside src/obs/profiler*; signal/timer/"
                                  "unwind APIs live with the profiler's "
                                  "async-signal-safety contract"});
        }
      }
    }

    // has_identifier, not has_call: the emitting sites are member calls
    // (recorder.record_edge / prov_->record_edge), which has_call's
    // free-function shape deliberately skips.
    if (!ctx.is_provenance_home && has_identifier(line, "record_edge")) {
      // One writer per invariant: infection edges come from the engines'
      // instrumented selection points (src/bgp/) or the obs layer's own
      // plumbing. A record_edge call anywhere else (analysis, serve, tools)
      // would inject edges the route table cannot corroborate, breaking the
      // trace-equals-table invariant the provenance tests pin.
      findings.push_back({ctx.rel, lineno, "provenance-home",
                          "record_edge outside src/bgp/ + src/obs/; "
                          "provenance edges are emitted only where the "
                          "engines change route selections"});
    }

    // Same one-home principle for the campaign statistics: the streaming
    // estimators and the stratified sampler are subtle enough (exact-integer
    // merging, counter-based reproducibility) that a second user copying or
    // re-instantiating them outside src/campaign/ would split the audit
    // surface. Everything else goes through run_campaign()'s report.
    if (!ctx.is_campaign_home) {
      for (const char* banned :
           {"MomentAccumulator", "P2Quantile", "QuantileReservoir",
            "CampaignSampler", "StratumEstimator"}) {
        if (has_identifier(line, banned)) {
          findings.push_back({ctx.rel, lineno, "campaign-home",
                              std::string(banned) +
                                  " outside src/campaign/; campaign "
                                  "statistics have exactly one home — "
                                  "consume them via the driver API"});
        }
      }
    }

    // One attack path: library code outside the engines, HijackSimulator
    // and the baseline store attacks through HijackSimulator::attack_ex,
    // never by driving an engine itself (has_identifier: the calls are
    // member calls, engine.announce / equilibrium_.compute_hijack).
    if (ctx.is_library && !ctx.is_attack_home) {
      for (const char* banned : {"announce", "compute_hijack", "compute_single"}) {
        if (has_identifier(line, banned)) {
          findings.push_back({ctx.rel, lineno, "attack-home",
                              std::string(banned) +
                                  " outside src/bgp/, src/hijack/ and "
                                  "src/store/; attack through "
                                  "HijackSimulator::attack_ex"});
        }
      }
    }

    if (ctx.is_library) {
      if (has_identifier(line, "cout") || has_identifier(line, "cerr")) {
        findings.push_back({ctx.rel, lineno, "library-io",
                            "library code must not write to stdio; return "
                            "values / throw, or take an std::ostream&"});
      }
      if (has_call(line, "printf") || has_call(line, "puts")) {
        findings.push_back({ctx.rel, lineno, "library-io",
                            "library code must not write to stdio"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: token rules (the concurrency set)
// ---------------------------------------------------------------------------

bool ident_is(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Ident && t.text == text;
}
bool punct_is(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

/// True when tokens[i] starts a member call `.name(` / `->name(` of one of
/// `names`. Sets `line` to the call's line.
bool member_call(const std::vector<Token>& toks, std::size_t i,
                 std::initializer_list<std::string_view> names,
                 std::size_t& line) {
  if (!(punct_is(toks[i], ".") || punct_is(toks[i], "->"))) return false;
  if (i + 2 >= toks.size()) return false;
  const Token& name = toks[i + 1];
  if (name.kind != Token::Kind::Ident) return false;
  bool matched = false;
  for (const std::string_view candidate : names) {
    if (name.text == candidate) {
      matched = true;
      break;
    }
  }
  if (!matched || !punct_is(toks[i + 2], "(")) return false;
  line = name.line;
  return true;
}

/// Scan a balanced argument list starting at the '(' in tokens[open] and
/// report whether any identifier inside names a std::memory_order value.
bool args_name_memory_order(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (punct_is(t, "(")) {
      ++depth;
    } else if (punct_is(t, ")")) {
      if (--depth == 0) return false;
    } else if (t.kind == Token::Kind::Ident &&
               starts_with(t.text, "memory_order")) {
      return true;
    }
  }
  return false;  // unbalanced; treat as no order named
}

void run_token_rules(const FileContext& ctx, const LexedFile& lexed,
                     std::vector<Finding>& findings) {
  const std::vector<Token>& toks = lexed.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    std::size_t line = 0;

    // detached-thread: banned everywhere, including the thread homes and
    // tools/bench — a detached thread cannot be joined before exit.
    if (member_call(toks, i, {"detach"}, line)) {
      findings.push_back(
          {ctx.rel, line, "detached-thread",
           "never detach a thread; keep the handle and join it (the tsan "
           "lane and static destruction both depend on the join)"});
    }

    if (!ctx.is_library) continue;

    // obs-config-home: one reader of the environment, so every knob has
    // one parser, one default and one /statusz echo. The sweep pool's
    // BGPSIM_THREADS is not an obs knob and keeps its own read.
    if (!ctx.is_env_home && i + 1 < toks.size() && punct_is(toks[i + 1], "(") &&
        (ident_is(toks[i], "env_string") || ident_is(toks[i], "env_u64") ||
         ident_is(toks[i], "env_f64") || ident_is(toks[i], "env_bool"))) {
      const bool threads_read = ctx.rel == "src/analysis/vulnerability.cpp" &&
                                i + 2 < toks.size() &&
                                toks[i + 2].kind == Token::Kind::String &&
                                toks[i + 2].text == "BGPSIM_THREADS";
      if (!threads_read) {
        findings.push_back({ctx.rel, toks[i].line, "obs-config-home",
                            toks[i].text +
                                "() outside src/obs/config.cpp; add the knob "
                                "to obs::Config and read the active config"});
      }
    }

    // raw-lock: direct mutex operations outside the RAII guard. The guard
    // itself (bgpsim::Mutex / MutexLock in thread_annotations.hpp) carries
    // per-line allow() suppressions rather than a path exemption, so the
    // sanctioned call sites are visible in the lint output conventions.
    if (member_call(toks, i, {"lock", "unlock", "try_lock"}, line)) {
      findings.push_back(
          {ctx.rel, line, "raw-lock",
           "direct ." + toks[i + 1].text +
               "() call; hold locks through bgpsim::MutexLock "
               "(support/thread_annotations.hpp) so Clang's thread-safety "
               "analysis sees the critical section"});
    }

    // seq-cst-atomic: member-call shapes of the std::atomic API without an
    // explicit memory_order argument. Spans multiple lines (the tokenizer
    // makes the argument scan trivial where a line regex would miss it).
    if (member_call(toks, i,
                    {"load", "store", "exchange", "fetch_add", "fetch_sub",
                     "fetch_and", "fetch_or", "fetch_xor",
                     "compare_exchange_weak", "compare_exchange_strong",
                     "test_and_set"},
                    line) &&
        !args_name_memory_order(toks, i + 2)) {
      findings.push_back(
          {ctx.rel, line, "seq-cst-atomic",
           "bare ." + toks[i + 1].text +
               "() defaults to memory_order_seq_cst; spell out the order the "
               "algorithm relies on (relaxed for counters, acquire/release "
               "for handoffs)"});
    }

    // mutex-annotation: a raw standard-library mutex or condvar in a header
    // is invisible to -Wthread-safety (libstdc++ types carry no capability
    // attributes). Require an adjacent annotation or, in practice, the
    // annotated bgpsim::Mutex.
    if (ctx.is_header && !ctx.is_lock_home && ident_is(toks[i], "std") &&
        i + 2 < toks.size() && punct_is(toks[i + 1], "::") &&
        toks[i + 2].kind == Token::Kind::Ident) {
      const std::string& type = toks[i + 2].text;
      if (type == "mutex" || type == "recursive_mutex" ||
          type == "timed_mutex" || type == "shared_mutex" ||
          type == "condition_variable" || type == "condition_variable_any") {
        const std::size_t decl_line = toks[i + 2].line;
        bool annotated = false;
        const std::size_t lo = decl_line > 3 ? decl_line - 3 : 1;
        const std::size_t hi =
            std::min(decl_line + 3, lexed.stripped_lines.size());
        for (std::size_t l = lo; l <= hi && !annotated; ++l) {
          const std::string& nearby = lexed.stripped_lines[l - 1];
          annotated = nearby.find("BGPSIM_CAPABILITY") != std::string::npos ||
                      nearby.find("BGPSIM_GUARDED_BY") != std::string::npos ||
                      nearby.find("BGPSIM_PT_GUARDED_BY") != std::string::npos ||
                      nearby.find("BGPSIM_SCOPED_CAPABILITY") != std::string::npos;
        }
        if (!annotated) {
          findings.push_back(
              {ctx.rel, decl_line, "mutex-annotation",
               "std::" + type +
                   " in a header without a thread-safety annotation; use "
                   "bgpsim::Mutex + BGPSIM_GUARDED_BY "
                   "(support/thread_annotations.hpp) so -Wthread-safety can "
                   "check the locking discipline"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression filter
// ---------------------------------------------------------------------------

bool suppressed(const SuppressionMap& map, const Finding& f) {
  for (const std::size_t line : {f.line, f.line > 0 ? f.line - 1 : 0}) {
    const auto it = map.find(line);
    if (it != map.end() && it->second.count(f.rule) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

struct LintStats {
  std::size_t files = 0;
  std::size_t suppressed = 0;
};

void lint_file(const fs::path& path, const fs::path& root,
               std::vector<Finding>& findings, LintStats& stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    findings.push_back({path.string(), 0, "io", "cannot open file"});
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const LexedFile lexed = lex(buffer.str());
  const FileContext ctx = classify(path, root);

  std::vector<Finding> raw;
  run_line_rules(ctx, lexed, raw);
  run_token_rules(ctx, lexed, raw);
  for (Finding& f : raw) {
    if (suppressed(lexed.suppressions, f)) {
      ++stats.suppressed;
    } else {
      findings.push_back(std::move(f));
    }
  }
}

void collect_sources(const fs::path& dir, std::vector<fs::path>& out) {
  if (!fs::exists(dir)) return;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        has_extension(entry.path(), {".cpp", ".hpp", ".h", ".cc"})) {
      out.push_back(entry.path());
    }
  }
}

int check_headers(const Options& opts, std::vector<Finding>& findings) {
  std::vector<fs::path> headers;
  for (const auto& entry :
       fs::recursive_directory_iterator(opts.root / "src")) {
    if (entry.is_regular_file() && has_extension(entry.path(), {".hpp", ".h"})) {
      headers.push_back(entry.path());
    }
  }
  std::sort(headers.begin(), headers.end());
  for (const fs::path& header : headers) {
    std::ostringstream cmd;
    cmd << opts.cxx << " -std=c++20 -fsyntax-only -x c++ -I '"
        << (opts.root / "src").string() << "' '" << header.string() << "'";
    const int rc = std::system(cmd.str().c_str());
    if (rc != 0) {
      findings.push_back({generic_rel(header, opts.root), 1, "self-contained",
                          "header does not compile standalone (missing "
                          "includes or forward declarations)"});
    }
  }
  std::cout << "bgpsim-lint: " << headers.size()
            << " headers checked for self-containment\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Report emitters
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void write_json_report(std::ostream& out, const std::vector<Finding>& findings,
                       const LintStats& stats) {
  out << "{\"tool\":\"bgpsim-lint\",\"version\":\"2.0.0\",\"files\":"
      << stats.files << ",\"suppressed\":" << stats.suppressed
      << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ',';
    out << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << json_escape(f.rule) << "\",\"message\":\""
        << json_escape(f.message) << "\"}";
  }
  out << "]}\n";
}

/// Minimal SARIF 2.1.0: enough for GitHub code scanning (runs / tool.driver
/// with rules / results with ruleId, message, and one physical location).
void write_sarif_report(std::ostream& out,
                        const std::vector<Finding>& findings) {
  out << "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"bgpsim-lint\",\"version\":\"2.0.0\","
         "\"informationUri\":\"https://example.invalid/bgpsim\",\"rules\":[";
  bool first = true;
  for (const RuleInfo& rule : kRules) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":\"" << rule.id << "\",\"shortDescription\":{\"text\":\""
        << json_escape(rule.description) << "\"}}";
  }
  out << "]}},\"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ',';
    out << "{\"ruleId\":\"" << json_escape(f.rule)
        << "\",\"level\":\"error\",\"message\":{\"text\":\""
        << json_escape(f.message) << "\"},\"locations\":[{"
        << "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
        << json_escape(f.file) << "\",\"uriBaseId\":\"SRCROOT\"},"
        << "\"region\":{\"startLine\":" << (f.line > 0 ? f.line : 1)
        << "}}}]}";
  }
  out << "]}]}\n";
}

bool write_report_file(const std::string& path, const std::string& what,
                       const std::vector<Finding>& findings,
                       const LintStats& stats) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "bgpsim-lint: cannot write " << what << " report to " << path
              << '\n';
    return false;
  }
  if (what == "json") {
    write_json_report(out, findings, stats);
  } else {
    write_sarif_report(out, findings);
  }
  return true;
}

int usage() {
  std::cerr
      << "usage: bgpsim_lint --root DIR [--check-headers] [--cxx CXX]\n"
         "                   [--json PATH] [--sarif PATH] [PATH...]\n"
         "  With no PATHs, lints DIR/{src,tools,bench,examples}.\n"
         "  Suppress one finding with a comment on (or above) its line:\n"
         "    // bgpsim-lint: allow(rule-name)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--check-headers") {
      opts.check_headers = true;
    } else if (arg == "--cxx" && i + 1 < argc) {
      opts.cxx = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      opts.sarif_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opts.explicit_paths.emplace_back(arg);
    }
  }
  if (opts.root.empty()) return usage();
  std::error_code ec;
  opts.root = fs::canonical(opts.root, ec);
  if (ec) {
    std::cerr << "bgpsim-lint: bad --root: " << ec.message() << '\n';
    return 2;
  }

  std::vector<fs::path> files;
  if (opts.explicit_paths.empty()) {
    for (const char* dir : {"src", "tools", "bench", "examples"}) {
      collect_sources(opts.root / dir, files);
    }
  } else {
    for (const fs::path& p : opts.explicit_paths) {
      if (fs::is_directory(p)) {
        collect_sources(p, files);
      } else {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  LintStats stats;
  stats.files = files.size();
  for (const fs::path& file : files) {
    lint_file(file, opts.root, findings, stats);
  }
  if (opts.check_headers) check_headers(opts, findings);

  for (const Finding& f : findings) {
    std::cout << f.file << ':' << f.line << ": " << f.rule << ": " << f.message
              << '\n';
  }
  std::cout << "bgpsim-lint: " << files.size() << " files, " << findings.size()
            << " finding(s), " << stats.suppressed << " suppressed\n";

  if (!opts.json_path.empty() &&
      !write_report_file(opts.json_path, "json", findings, stats)) {
    return 2;
  }
  if (!opts.sarif_path.empty() &&
      !write_report_file(opts.sarif_path, "sarif", findings, stats)) {
    return 2;
  }
  return findings.empty() ? 0 : 1;
}
