// Deliberate fixture: the std::- and ::-qualified spellings of calls the line
// rules ban. Every call below is qualified, so each rule fires only if the
// linter sees through the qualifier. Pinned by lint_detects_qualified_calls
// — never built.
#include <cstdio>
#include <cstdlib>

namespace bgpsim {

inline int misbehave(unsigned polluted) {
  std::printf("polluted ASes: %u\n", polluted);  // library-io
  ::puts("done");                                // library-io
  std::srand(polluted);                          // rng-policy
  if (polluted == 0) ::std::abort();             // raw-assert
  return ::rand();                               // rng-policy
}

}  // namespace bgpsim
