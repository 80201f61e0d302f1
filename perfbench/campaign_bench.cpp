// perfbench_campaign: the child process of the campaign benchmark
// (perfbench/run.py). One invocation runs one STCG campaign of one bench
// model through gen::Campaign's public API, in its own process, so CPU
// time and peak RSS are per campaign, and prints one JSON object on stdout.
//
//   perfbench_campaign --info
//   perfbench_campaign --model M --seed S --rounds N [--jobs J] [--prune]
//       [--checkpoint-every K --resume-at R] [--scratch DIR]
//       [--setup-repeats R] [--trace | --probe-jobs J]
//
// Default mode: set up R times (model build + compile + Campaign
// constructor; the median is reported), then drive the last campaign
// until finished() and time it up to the return of finish(). The output
// carries a fingerprint of the run — test inputs bit-exact, GenStats and
// the replayed coverage, no wall-clock timestamps — that run.py compares
// across repeats and against an uninterrupted jobs-1 reference.
//
// --trace drives the same trajectory but times calls into each layer's
// public functions from this file: grid cells are counted from state()
// before every round, and the first kSampleCells cells of every
// kSampleEvery-th round are
// re-substituted and re-solved outside the campaign. Nothing here feeds
// back into the campaign, so the fingerprint must not change.
//
// --probe-jobs J runs the first --rounds rounds twice, at jobs 1 and at
// jobs J, and reports the per-round wall-time difference paired by round
// index (trajectories are identical across jobs values).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/simd.h"
#include "expr/subst.h"
#include "sim/batch_simulator.h"
#include "sim/simulator.h"
#include "stcg/campaign.h"
#include "stcg/testgen.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace stcg;
using Clock = std::chrono::steady_clock;

// Traced runs re-probe the first kSampleCells grid cells of every
// kSampleEvery-th runRound() call: deterministic, so counts repeat exactly.
constexpr int kSampleEvery = 10;
constexpr int kSampleCells = 16;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image. VmHWM starts afresh at exec;
/// getrusage's ru_maxrss would also count the forking parent's pages.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Order statistics of a sample; 0 when empty.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  [[nodiscard]] double quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
};

/// Flat JSON object writer (numbers, strings, booleans).
class JsonOut {
 public:
  void num(const std::string& k, double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(x) ? x : 0.0);
    field(k, buf);
  }
  void count(const std::string& k, std::int64_t x) {
    field(k, std::to_string(x));
  }
  void str(const std::string& k, const std::string& s) {
    field(k, "\"" + s + "\"");
  }
  void flag(const std::string& k, bool b) { field(k, b ? "true" : "false"); }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

struct Args {
  std::string model;
  std::uint64_t seed = 1;
  int rounds = 0;
  int jobs = 1;
  bool prune = false;
  int checkpointEvery = 0;
  int resumeAt = 0;
  std::string scratch = ".";
  int setupRepeats = 3;
  bool trace = false;
  int probeJobs = 0;
  bool info = false;
};

[[noreturn]] void usageError(const std::string& msg) {
  std::fprintf(stderr, "perfbench_campaign: %s\n", msg.c_str());
  std::exit(2);
}

std::int64_t parseInt(const char* s, std::int64_t lo, std::int64_t hi,
                      const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    usageError("bad value for " + flag + ": '" + s + "'");
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usageError("missing value for " + f);
      return argv[++i];
    };
    if (f == "--info") {
      a.info = true;
    } else if (f == "--model") {
      a.model = value();
    } else if (f == "--seed") {
      a.seed = static_cast<std::uint64_t>(
          parseInt(value(), 0, INT64_MAX, f));
    } else if (f == "--rounds") {
      a.rounds = static_cast<int>(parseInt(value(), 1, 10'000'000, f));
    } else if (f == "--jobs") {
      a.jobs = static_cast<int>(parseInt(value(), 1, 4096, f));
    } else if (f == "--prune") {
      a.prune = true;
    } else if (f == "--checkpoint-every") {
      a.checkpointEvery = static_cast<int>(parseInt(value(), 1, 1'000'000, f));
    } else if (f == "--resume-at") {
      a.resumeAt = static_cast<int>(parseInt(value(), 1, 10'000'000, f));
    } else if (f == "--scratch") {
      a.scratch = value();
    } else if (f == "--setup-repeats") {
      a.setupRepeats = static_cast<int>(parseInt(value(), 1, 100, f));
    } else if (f == "--trace") {
      a.trace = true;
    } else if (f == "--probe-jobs") {
      a.probeJobs = static_cast<int>(parseInt(value(), 2, 4096, f));
    } else {
      usageError("unknown flag " + f);
    }
  }
  if (a.info) return a;
  if (a.model.empty() || a.rounds == 0) {
    usageError("--model and --rounds are required");
  }
  if (a.resumeAt > 0 &&
      (a.checkpointEvery == 0 || a.resumeAt < a.checkpointEvery)) {
    usageError("--resume-at needs --checkpoint-every <= its value");
  }
  return a;
}

gen::GenOptions genOptions(const Args& a, int jobs, int rounds) {
  gen::GenOptions o;  // defaults: tape engine, box solver
  o.budgetMillis = 24LL * 3600 * 1000;  // never binds; --rounds stops the run
  o.seed = a.seed;
  o.jobs = jobs;
  o.maxRounds = rounds;
  o.pruneProvablyDead = a.prune;
  return o;
}

std::string checkpointPath(const Args& a, const char* tag) {
  return (std::filesystem::path(a.scratch) /
          ("ckpt-" + std::to_string(getpid()) + "-" + tag))
      .string();
}

/// A compiled model and a campaign over it. The campaign is declared last
/// so it is destroyed before the options and model it references.
struct Setup {
  std::unique_ptr<gen::GenOptions> opt;
  std::unique_ptr<compile::CompiledModel> cm;
  std::unique_ptr<gen::Campaign> campaign;
};

/// Set up `repeats` times (keeping the last), recording the wall time of
/// buildBenchModel + compile + Campaign constructor and of compile alone.
Setup setUp(const Args& a, const gen::GenOptions& opt, int repeats,
            Samples& setupS, Samples& compileMs) {
  Setup s;
  for (int r = 0; r < repeats; ++r) {
    s.campaign.reset();
    s.cm.reset();
    s.opt = std::make_unique<gen::GenOptions>(opt);
    const auto t0 = Clock::now();
    const model::Model m = bench::buildBenchModel(a.model);
    const auto t1 = Clock::now();
    s.cm = std::make_unique<compile::CompiledModel>(compile::compile(m));
    compileMs.add(secondsSince(t1) * 1e3);
    s.campaign = std::make_unique<gen::Campaign>(*s.cm, *s.opt);
    setupS.add(secondsSince(t0));
  }
  return s;
}

// ----- output fingerprint ---------------------------------------------------

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hashScalar(Fnv& f, const expr::Scalar& s) {
  switch (s.type()) {
    case expr::Type::kBool:
      f.u64(1);
      f.u64(s.asBool() ? 1 : 0);
      break;
    case expr::Type::kInt:
      f.u64(2);
      f.u64(static_cast<std::uint64_t>(s.asInt()));
      break;
    default:
      f.u64(3);
      f.f64(s.asReal());
      break;
  }
}

/// Everything a run produces that must be reproducible: test inputs
/// bit-exact (timestamps excluded), GenStats, rounds, replayed coverage.
std::string fingerprint(const gen::GenResult& r, int rounds) {
  Fnv f;
  f.u64(static_cast<std::uint64_t>(rounds));
  f.u64(r.tests.size());
  for (const auto& t : r.tests) {
    f.u64(t.origin == gen::TestOrigin::kSolved ? 1 : 2);
    f.str(t.goalLabel);
    f.u64(t.steps.size());
    for (const auto& step : t.steps) {
      f.u64(step.size());
      for (const auto& s : step) hashScalar(f, s);
    }
  }
  const gen::GenStats& st = r.stats;
  for (const int x : {st.solveCalls, st.solveSat, st.solveUnsat,
                      st.solveUnknown, st.stepsExecuted, st.treeNodes,
                      st.randomSequences, st.goalsPruned}) {
    f.u64(static_cast<std::uint64_t>(x));
  }
  f.f64(r.coverage.decision);
  f.f64(r.coverage.condition);
  f.f64(r.coverage.mcdc);
  f.u64(static_cast<std::uint64_t>(r.coverage.coveredBranches));
  f.u64(static_cast<std::uint64_t>(r.coverage.totalBranches));
  return f.hex();
}

// ----- per-layer probes (traced mode) ----------------------------------------

/// The node state bound as constants, keyed by the compiled state leaves —
/// what the campaign substitutes into a goal before solving a grid cell.
expr::Env stateEnv(const compile::CompiledModel& cm,
                   const sim::StateSnapshot& s) {
  expr::Env env;
  env.reserve(cm.varCount());
  for (std::size_t i = 0; i < cm.states.size(); ++i) {
    const auto& sv = cm.states[i];
    if (sv.width == 1) {
      env.set(sv.id, s[i].scalar());
    } else {
      env.setArray(sv.id, s[i].elems());
    }
  }
  return env;
}

struct Trace {
  Samples solveRoundMs, fallbackRoundMs;
  std::int64_t roundsSolved = 0, roundsFallback = 0;
  std::int64_t gridCells = 0;
  double roundSeconds = 0.0;
  Samples substituteUs, solveUs;
  std::int64_t sampledCells = 0, foldedCells = 0, solvedCells = 0;
  std::int64_t boxes = 0;
  Samples saveMs;
  std::int64_t checkpointBytes = 0;
  double restoreMs = 0.0;
};

/// Count this round's unattempted (uncovered goal × node) cells in the
/// campaign's visiting order, and re-run substitution and the solver on
/// the first `take` of them, outside the campaign.
void probeGrid(const gen::Campaign& c, const compile::CompiledModel& cm,
               const gen::GenOptions& opt, const std::vector<int>& order,
               int take, Trace& tr) {
  const gen::CampaignState& st = c.state();
  const auto inputInfos = cm.inputInfos();
  for (const int g : order) {
    const gen::Goal& goal = c.goals()[static_cast<std::size_t>(g)];
    if (gen::goalCovered(st.tracker, goal)) continue;
    for (std::size_t n = 0; n < st.tree.size(); ++n) {
      const int nid = static_cast<int>(n);
      if (st.tree.isAttempted(nid, g)) continue;
      ++tr.gridCells;
      if (take <= 0) continue;
      --take;
      ++tr.sampledCells;
      const expr::Env env = stateEnv(cm, st.tree.node(nid).state);
      auto t0 = Clock::now();
      const expr::ExprPtr residual = expr::substitute(goal.pathConstraint, env);
      tr.substituteUs.add(secondsSince(t0) * 1e6);
      if (residual->op == expr::Op::kConst && !residual->constVal.toBool()) {
        ++tr.foldedCells;
        continue;
      }
      solver::SolveOptions so = opt.solver;
      so.batch = opt.batch;
      so.seed = splitmix64(static_cast<std::uint64_t>(st.round) * 1000003ULL +
                           static_cast<std::uint64_t>(g) * 7919ULL + n) %
                    1'000'000'000ULL + 1;
      t0 = Clock::now();
      const auto res =
          solver::solveWith(opt.solverKind, residual, inputInfos, so);
      tr.solveUs.add(secondsSince(t0) * 1e6);
      ++tr.solvedCells;
      tr.boxes += res.stats.boxesProcessed;
    }
  }
}

/// Replay library inputs from sampled tree nodes through the scalar and
/// the batched simulator, and look each reached state up in the tree.
void probeSim(const gen::CampaignState& st, const compile::CompiledModel& cm,
              const gen::GenOptions& opt, Samples& stepUs,
              Samples& batchStepUs, Samples& findUs) {
  constexpr std::size_t kNodes = 256;
  const std::size_t nodes = std::min(kNodes, st.tree.size());
  std::vector<sim::InputVector> inputs = st.library;
  Rng rng(opt.seed);
  while (inputs.size() < nodes) inputs.push_back(sim::randomInput(cm, rng));
  auto nodeAt = [&](std::size_t i) {
    return static_cast<int>(i * st.tree.size() / nodes);
  };

  sim::Simulator sim(cm, opt.simEngine);
  coverage::CoverageTracker scratch(cm);
  for (std::size_t i = 0; i < nodes; ++i) {
    sim.restore(st.tree.node(nodeAt(i)).state);
    auto t0 = Clock::now();
    (void)sim.step(inputs[i % inputs.size()], &scratch);
    stepUs.add(secondsSince(t0) * 1e6);
    const sim::StateSnapshot snap = sim.snapshot();
    t0 = Clock::now();
    (void)st.tree.findByState(snap);
    findUs.add(secondsSince(t0) * 1e6);
  }

  constexpr int kLanes = 8;
  sim::BatchSimulator bsim(cm, kLanes);
  sim::StepObservationBatch obs;
  std::vector<const sim::InputVector*> ptrs(kLanes);
  for (std::size_t base = 0; base < nodes; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      const std::size_t i = (base + static_cast<std::size_t>(l)) % nodes;
      bsim.restore(l, st.tree.node(nodeAt(i)).state);
      ptrs[static_cast<std::size_t>(l)] = &inputs[i % inputs.size()];
    }
    const auto t0 = Clock::now();
    bsim.stepBatch(ptrs, obs);
    batchStepUs.add(secondsSince(t0) * 1e6 / kLanes);
  }
}

std::vector<int> visitOrder(const gen::Campaign& c,
                            const gen::GenOptions& opt) {
  const auto& goals = c.goals();
  std::vector<int> order(goals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  if (opt.sortGoalsByDepth) {
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      return goals[static_cast<std::size_t>(x)].depth <
             goals[static_cast<std::size_t>(y)].depth;
    });
  }
  return order;
}

std::int64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

// ----- the campaign ----------------------------------------------------------

struct Driven {
  double campaignS = 0.0;
  double cpuS = 0.0;
  int rounds = 0;
  int goalsCovered = 0;
  gen::CoverageSummary claimed;  // the campaign tracker's own coverage
  gen::GenResult result;
  std::vector<double> roundMs;  // per runRound() call, when recorded
};

void timedSave(gen::Campaign& c, const std::string& path, Trace* tr) {
  const auto t0 = Clock::now();
  c.saveCheckpoint(path);
  if (tr != nullptr) {
    tr->saveMs.add(secondsSince(t0) * 1e3);
    tr->checkpointBytes = std::max(tr->checkpointBytes, fileBytes(path));
  }
}

/// Drive s.campaign until finished(), saving whenever checkpointDue();
/// with --resume-at, drop the campaign once at that round and resume it
/// from its last checkpoint into a fresh Campaign. Timed from the first
/// runRound() to the return of finish().
Driven drive(const Args& a, Setup& s, Trace* tr, bool recordRounds) {
  const gen::GenOptions& opt = *s.opt;
  const std::vector<int> order =
      tr != nullptr ? visitOrder(*s.campaign, opt) : std::vector<int>{};
  // Traced runs of workloads that never checkpoint still time the
  // checkpoint layer, on every sampled round, into a file of their own.
  const std::string traceCkpt = checkpointPath(a, "trace");
  std::string lastSaved;
  bool resumed = false;
  Driven d;
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  for (std::int64_t call = 0; !s.campaign->finished(); ++call) {
    const bool sampled = tr != nullptr && call % kSampleEvery == 0;
    if (tr != nullptr) {
      probeGrid(*s.campaign, *s.cm, opt, order, sampled ? kSampleCells : 0,
                *tr);
    }
    const gen::GenStats before = s.campaign->state().stats;
    const auto r0 = Clock::now();
    s.campaign->runRound();
    const double ms = secondsSince(r0) * 1e3;
    if (recordRounds) d.roundMs.push_back(ms);
    if (tr != nullptr) {
      const gen::GenStats& after = s.campaign->state().stats;
      tr->roundSeconds += ms / 1e3;
      if (after.solveSat > before.solveSat) {
        ++tr->roundsSolved;
        tr->solveRoundMs.add(ms);
      } else if (after.randomSequences > before.randomSequences) {
        ++tr->roundsFallback;
        tr->fallbackRoundMs.add(ms);
      }
    }
    if (s.campaign->checkpointDue()) {
      timedSave(*s.campaign, opt.checkpointPath, tr);
      lastSaved = opt.checkpointPath;
    } else if (sampled && opt.checkpointPath.empty()) {
      timedSave(*s.campaign, traceCkpt, tr);
      lastSaved = traceCkpt;
    }
    if (a.resumeAt > 0 && !resumed && s.campaign->state().round >= a.resumeAt) {
      s.campaign.reset();
      s.campaign = std::make_unique<gen::Campaign>(*s.cm, opt);
      const auto c0 = Clock::now();
      s.campaign->restore(lastSaved);
      if (tr != nullptr) tr->restoreMs = secondsSince(c0) * 1e3;
      resumed = true;
    }
  }
  d.result = s.campaign->finish();
  d.campaignS = secondsSince(t0);
  d.cpuS = cpuSeconds() - cpu0;

  const gen::CampaignState& st = s.campaign->state();
  d.rounds = st.round;
  d.claimed = gen::summarize(st.tracker);
  for (const auto& g : s.campaign->goals()) {
    if (gen::goalCovered(st.tracker, g)) ++d.goalsCovered;
  }
  if (tr != nullptr && !resumed && !lastSaved.empty()) {
    gen::Campaign fresh(*s.cm, opt);
    const auto c0 = Clock::now();
    fresh.restore(lastSaved);
    tr->restoreMs = secondsSince(c0) * 1e3;
  }
  std::error_code ec;
  if (!opt.checkpointPath.empty()) {
    std::filesystem::remove(opt.checkpointPath, ec);
  }
  std::filesystem::remove(traceCkpt, ec);
  return d;
}

double pruneMs(const compile::CompiledModel& cm, const gen::GenOptions& opt) {
  std::vector<gen::Goal> goals =
      gen::buildGoals(cm, opt.includeConditionGoals,
                      /*includeMcdcGoals=*/opt.includeConditionGoals);
  coverage::CoverageTracker tracker(cm);
  const auto t0 = Clock::now();
  (void)gen::pruneUnreachableGoals(cm, goals, tracker);
  return secondsSince(t0) * 1e3;
}

/// The first a.rounds rounds at jobs 1 and at jobs a.probeJobs, paired by
/// round index.
int runPoolProbe(const Args& a) {
  const int jobs[2] = {1, a.probeJobs};
  std::vector<double> roundMs[2];
  std::string fp[2];
  Args plain = a;
  plain.resumeAt = 0;
  for (int k = 0; k < 2; ++k) {
    Samples setupS, compileMs;
    Setup s = setUp(plain, genOptions(plain, jobs[k], plain.rounds), 1, setupS,
                    compileMs);
    Driven d = drive(plain, s, nullptr, /*recordRounds=*/true);
    roundMs[k] = std::move(d.roundMs);
    fp[k] = fingerprint(d.result, d.rounds);
  }
  Samples diff;
  const std::size_t n = std::min(roundMs[0].size(), roundMs[1].size());
  for (std::size_t i = 0; i < n; ++i) diff.add(roundMs[1][i] - roundMs[0][i]);
  JsonOut j;
  j.num("util.pool_round_overhead_ms_p50", diff.median());
  j.num("util.pool_round_overhead_ms_p90", diff.quantile(0.9));
  j.count("rounds_paired", static_cast<std::int64_t>(n));
  j.flag("identical", fp[0] == fp[1] && roundMs[0].size() == roundMs[1].size());
  j.print();
  return 0;
}

int runCampaign(const Args& a) {
  gen::GenOptions opt = genOptions(a, a.jobs, a.rounds);
  if (a.checkpointEvery > 0) {
    opt.checkpointPath = checkpointPath(a, "run");
    opt.checkpointEveryRounds = a.checkpointEvery;
  }
  Samples setupS, compileMs;
  Setup s = setUp(a, opt, a.setupRepeats, setupS, compileMs);
  Trace tr;
  const double prune = a.trace ? pruneMs(*s.cm, opt) : 0.0;
  Driven d = drive(a, s, a.trace ? &tr : nullptr, /*recordRounds=*/false);
  const gen::GenResult& r = d.result;
  const gen::CoverageSummary& cov = r.coverage;

  JsonOut j;
  j.num("setup_s", setupS.median());
  j.num("campaign_s", d.campaignS);
  j.num("cpu_s", d.cpuS);
  j.num("peak_rss_mb", peakRssMb());
  j.count("rounds", d.rounds);
  j.count("goals_covered", d.goalsCovered);
  j.num("decision_cov", cov.decision * 100.0);
  j.num("condition_cov", cov.condition * 100.0);
  j.num("mcdc_cov", cov.mcdc * 100.0);
  // The replayed suite must reach what the campaign's tracker claims.
  j.flag("replay_ok", cov.decision >= d.claimed.decision &&
                          cov.condition >= d.claimed.condition &&
                          cov.mcdc >= d.claimed.mcdc &&
                          cov.coveredBranches >= d.claimed.coveredBranches);
  j.str("fingerprint", fingerprint(r, d.rounds));

  if (a.trace) {
    const gen::CampaignState& st = s.campaign->state();
    Samples stepUs, batchStepUs, findUs, replayMs;
    probeSim(st, *s.cm, opt, stepUs, batchStepUs, findUs);
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      (void)gen::replaySuite(*s.cm, r.tests, st.exclusions, 8);
      replayMs.add(secondsSince(t0) * 1e3);
    }
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    j.num("compile.compile_ms", compileMs.median());
    j.num("analysis.prune_ms", prune);
    j.num("stcg.solve_round_ms_p50", tr.solveRoundMs.median());
    j.num("stcg.solve_round_ms_p90", tr.solveRoundMs.quantile(0.9));
    j.num("stcg.fallback_round_ms_p50", tr.fallbackRoundMs.median());
    j.num("stcg.fallback_round_ms_p90", tr.fallbackRoundMs.quantile(0.9));
    j.count("stcg.rounds_solved", tr.roundsSolved);
    j.count("stcg.rounds_fallback", tr.roundsFallback);
    j.count("stcg.grid_cells", tr.gridCells);
    j.count("stcg.cells_committed", r.stats.solveCalls);
    j.num("stcg.cell_yield",
          ratio(static_cast<double>(r.stats.solveCalls),
                static_cast<double>(tr.gridCells)));
    j.num("stcg.ns_per_grid_cell",
          ratio(tr.roundSeconds * 1e9, static_cast<double>(tr.gridCells)));
    j.num("expr.substitute_us_p50", tr.substituteUs.median());
    j.num("expr.substitute_us_p90", tr.substituteUs.quantile(0.9));
    j.num("expr.fold_rate", ratio(static_cast<double>(tr.foldedCells),
                                  static_cast<double>(tr.sampledCells)));
    j.num("solver.solve_us_p50", tr.solveUs.median());
    j.num("solver.solve_us_p90", tr.solveUs.quantile(0.9));
    j.num("solver.boxes_per_call", ratio(static_cast<double>(tr.boxes),
                                         static_cast<double>(tr.solvedCells)));
    j.count("solver.sat_calls", r.stats.solveSat);
    j.count("solver.unsat_calls", r.stats.solveUnsat);
    j.count("solver.unknown_calls", r.stats.solveUnknown);
    j.count("sim.steps", r.stats.stepsExecuted);
    j.num("sim.step_us", stepUs.median());
    j.num("sim.batch_step_us", batchStepUs.median());
    j.count("stcg.tree_nodes", r.stats.treeNodes);
    j.num("stcg.find_state_us", findUs.median());
    j.num("coverage.replay_ms", replayMs.median());
    j.count("coverage.tests", static_cast<std::int64_t>(r.tests.size()));
    j.num("stcg.checkpoint_save_ms_p50", tr.saveMs.median());
    j.num("stcg.checkpoint_save_ms_p90", tr.saveMs.quantile(0.9));
    j.count("stcg.checkpoint_bytes", tr.checkpointBytes);
    j.num("stcg.restore_ms", tr.restoreMs);
  }
  j.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  try {
    if (a.info) {
      JsonOut j;
      j.str("build_type", PERFBENCH_BUILD_TYPE);
      j.str("simd", expr::simdLevelName(expr::activeSimdLevel()));
      j.print();
      return 0;
    }
    return a.probeJobs > 0 ? runPoolProbe(a) : runCampaign(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_campaign: %s\n", e.what());
    return 1;
  }
}
