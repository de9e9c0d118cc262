// Deliberate serve-logging violation: a request handler writing to the
// worker's stdio streams. Under src/serve/ (the filename prefix puts this
// fixture in the rule's scope) every fprintf/stderr reference must fire —
// request reporting goes through the access log and metrics registry, never
// a shared process stream. Pinned by lint_detects_serve_logging — never
// built.
#include <cstdio>

namespace bgpsim::serve {

inline void handle_badly(int status) {
  std::fprintf(stderr, "request failed: %d\n", status);
  std::fputs("handler done\n", stdout);
}

}  // namespace bgpsim::serve
