// Centralized environment-flag parsing for the STCG_* switches.
//
// A switch such as STCG_TAPE_VERIFY that hand-rolls its own getenv +
// strcmp invents its own notion of truthiness, so a typo could flip it
// the wrong way. envFlag gives every switch one strict grammar and one
// failure mode: an unrecognized value keeps the documented default and
// emits a single stderr diagnostic naming the variable, the offending
// value, and the accepted spellings.
#pragma once

#include <cstddef>

namespace stcg::util {

/// Boolean flag. Accepted (case-insensitive): "0"/"false"/"off"/"no" and
/// "1"/"true"/"on"/"yes". Unset or empty returns `def`; any other value
/// returns `def` and reports a diagnostic once per (variable, value).
[[nodiscard]] bool envFlag(const char* name, bool def);

/// Number of diagnostics reported so far (test hook).
[[nodiscard]] std::size_t envDiagnosticCount();

}  // namespace stcg::util
