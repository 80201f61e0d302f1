#include "util/env.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace stcg::util {

namespace {

std::string lowered(const char* s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::atomic<std::size_t>& diagCount() {
  static std::atomic<std::size_t> n{0};
  return n;
}

void diagnose(const char* name, const char* value) {
  // One report per (variable, value): a flag read in a hot loop must not
  // spam, but changing the value mid-process should report again.
  static std::mutex mu;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(mu);
  if (!seen.insert(std::string(name) + "=" + value).second) return;
  diagCount().fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "stcg: ignoring unrecognized %s='%s' (accepted: "
               "0/false/off/no, 1/true/on/yes)\n",
               name, value);
}

}  // namespace

bool envFlag(const char* name, bool def) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return def;
  const std::string v = lowered(e);
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  diagnose(name, e);
  return def;
}

std::size_t envDiagnosticCount() {
  return diagCount().load(std::memory_order_relaxed);
}

}  // namespace stcg::util
