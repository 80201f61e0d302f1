// Run metadata for the JSON-writing benchmarks (BENCH_eval.json /
// BENCH_batch.json): the numbers in EXPERIMENTS.md are only reproducible
// claims when pinned to the commit and CPU that produced them.
// tools/bench.sh passes --git/--timestamp; the CPU model is read from the
// process itself. `simd_level` names the batch lane loops (expr/simd.h;
// always "scalar" now that they have one portable path).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "expr/simd.h"

namespace stcg::benchx {

/// Run the measurement `repeat` times and report the median (mean of the
/// two middle samples for even repeat counts). One noisy neighbor or a
/// frequency-scaling blip skews a single sample arbitrarily; the median
/// of N is stable against up to (N-1)/2 outliers. repeat <= 1 measures
/// once (the default, so --repeat is pay-for-what-you-use).
template <typename Fn>
double medianOf(int repeat, Fn&& fn) {
  if (repeat <= 1) return fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) samples.push_back(fn());
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Consume `--repeat N` at argv[i]. Returns true when matched; exits 2
/// via return-false-at-caller style is avoided — invalid N (non-numeric,
/// < 1, > 99) is clamped into [1, 99] by strtol semantics plus the caller
/// printing usage; keep N small, each repeat multiplies the wall time.
inline bool parseRepeatArg(int argc, char** argv, int& i, int& repeat) {
  if (std::strcmp(argv[i], "--repeat") != 0 || i + 1 >= argc) return false;
  char* end = nullptr;
  const long v = std::strtol(argv[++i], &end, 10);
  repeat = (end == argv[i] || *end != '\0' || v < 1 || v > 99)
               ? -1  // caller treats as a usage error
               : static_cast<int>(v);
  return true;
}

struct RunMeta {
  std::string gitCommit;   // --git (empty when not passed)
  std::string timestamp;   // --timestamp (empty when not passed)
};

/// "model name" from /proc/cpuinfo, or "" when unavailable.
inline std::string detectCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find("model name");
    if (pos != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

/// Consume `--git SHA` / `--timestamp TS` at argv[i] into `meta`.
/// Returns true (advancing i past the value) when the flag matched.
inline bool parseMetaArg(int argc, char** argv, int& i, RunMeta& meta) {
  if (std::strcmp(argv[i], "--git") == 0 && i + 1 < argc) {
    meta.gitCommit = argv[++i];
    return true;
  }
  if (std::strcmp(argv[i], "--timestamp") == 0 && i + 1 < argc) {
    meta.timestamp = argv[++i];
    return true;
  }
  return false;
}

/// Emit the metadata as a `"meta": {...},` JSON member (two-space indent,
/// trailing comma + newline), shared by both bench writers.
inline void writeJsonMeta(std::ostream& out, const RunMeta& meta) {
  const auto esc = [](const std::string& s) {
    std::string r;
    for (const char c : s) {
      if (c == '"' || c == '\\') r += '\\';
      r += c;
    }
    return r;
  };
  out << "  \"meta\": {\"git_commit\": \"" << esc(meta.gitCommit)
      << "\", \"timestamp\": \"" << esc(meta.timestamp)
      << "\", \"cpu_model\": \"" << esc(detectCpuModel())
      << "\", \"simd_level\": \""
      << expr::simdLevelName(expr::activeSimdLevel()) << "\"},\n";
}

}  // namespace stcg::benchx
