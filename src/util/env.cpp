#include "util/env.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

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

void diagnose(const char* name, const char* value,
              const std::string& accepted) {
  // One report per (variable, value): a flag read in a hot loop must not
  // spam, but changing the value mid-process should report again.
  static std::mutex mu;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(mu);
  if (!seen.insert(std::string(name) + "=" + value).second) return;
  diagCount().fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "stcg: ignoring unrecognized %s='%s' (accepted: %s)\n",
               name, value, accepted.c_str());
}

}  // namespace

bool envFlag(const char* name, bool def) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return def;
  const std::string v = lowered(e);
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  diagnose(name, e, "0/false/off/no, 1/true/on/yes");
  return def;
}

int envEnum(const char* name, const std::vector<std::string>& allowed) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return -1;
  const std::string v = lowered(e);
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (v == allowed[i]) return static_cast<int>(i);
  }
  std::string accepted;
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) accepted += ", ";
    accepted += allowed[i];
  }
  diagnose(name, e, accepted);
  return -1;
}

std::size_t envDiagnosticCount() {
  return diagCount().load(std::memory_order_relaxed);
}

}  // namespace stcg::util
