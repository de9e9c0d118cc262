// Deliberate pragma-once violation: a header with no include-once pragma,
// so a second inclusion redefines everything in it. Pinned by
// lint_detects_pragma_once — never built.
namespace bgpsim {

inline unsigned default_probe_count() { return 62; }

}  // namespace bgpsim
