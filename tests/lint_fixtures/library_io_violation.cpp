// Deliberate library-io violation: library code reporting through stdio
// instead of return values and exceptions. bgpsim-lint treats
// tests/lint_fixtures/ as library code, so both the stream and the printf
// call below must fire. Pinned by lint_detects_library_io — never built.
#include <stdio.h>

#include <iostream>

namespace bgpsim {

inline void report_badly(unsigned polluted) {
  std::cout << "polluted ASes: " << polluted << "\n";  // library-io
  printf("polluted ASes: %u\n", polluted);             // library-io
}

}  // namespace bgpsim
