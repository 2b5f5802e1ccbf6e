// End-to-end benchmark of the barrier-elimination pipeline.
//
// Drives the public driver API (Compilation stage accessors and
// runComparison) plus the rt sync primitives from outside the library, on
// one of four workloads:
//
//   pipeline       counter-bound wavefronts (sor_pipeline, adi)
//   barrier_bound  short runs where barriers remain or are only partly
//                  removed
//   compute_bound  stencils whose working set fits in L2; generated-code
//                  quality dominates
//   cold_compile   every suite kernel and both sample sources, each taken
//                  from a fresh session through an empty object cache to a
//                  verified result
//
// Every run's store is checked against the sequential executor's
// reference outside the timed interval.  The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer ones (from spans the benchmark records around each layer
// call, written out as a Chrome trace).  Any failed operation makes the
// exit code 1.  perfbench/run.py builds this binary and sets up the
// private cache directory; see perfbench/README.md.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/execution.h"
#include "kernels/kernels.h"
#include "ir/seq_executor.h"
#include "obs/critical_path.h"
#include "obs/stats.h"
#include "runtime/barrier.h"
#include "runtime/counter.h"
#include "runtime/sync_primitive.h"
#include "runtime/team.h"
#include "runtime/topology.h"

namespace fs = std::filesystem;
using namespace spmd;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ------------------------------------------------------------

/// One benchmark program: a suite kernel (built with its own
/// decomposition) or a sample source file (parsed, default partition).
struct ProgramDef {
  std::string name;
  std::string file;  ///< empty: suite kernel
  i64 n = 0;
  i64 t = 0;
};

struct WorkloadDef {
  std::string name;
  bool cold = false;  ///< each sample is a cold source-to-result compile
  std::vector<ProgramDef> programs;
};

/// Problem sizes and the reason for each are recorded in
/// perfbench/README.md; keep the two in step.
std::vector<WorkloadDef> workloads(bool tiny) {
  std::vector<WorkloadDef> all = {
      {"pipeline", false,
       {{"sor_pipeline", "", 256, 100}, {"adi", "", 256, 72}}},
      {"barrier_bound", false,
       {{"jacobi1d", "", 256, 200},
        {"multiblock", "", 512, 200},
        {"lu", "", 128, 1},
        {"cyclic_jacobi", "", 256, 150},
        {"dot_reduction", "", 512, 100},
        {"mgrid_like", "", 128, 60}}},
      {"compute_bound", false,
       {{"redblack", "", 256, 60}, {"tridiag_local", "", 256, 30}}},
      {"cold_compile", true, {}},
  };
  WorkloadDef& cold = all.back();
  for (const kernels::KernelSpec& spec : kernels::allKernels())
    cold.programs.push_back({spec.name, "", spec.defaultN, spec.defaultT});
  cold.programs.push_back({"jacobi.f", "jacobi.f", 64, 8});
  cold.programs.push_back({"sweep.f", "sweep.f", 64, 8});
  if (tiny) {
    for (WorkloadDef& w : all)
      for (ProgramDef& p : w.programs) {
        p.n = p.name == "heat3d" ? 8 : 16;
        p.t = 2;
      }
  }
  return all;
}

// --- command line ---------------------------------------------------------

/// Threads of every parallel run: nproc - 1 on the 4-core host the
/// workloads were sized on (spinning threads at P = nproc were the
/// noisiest setting there).
constexpr int kThreads = 3;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corruptReference = false;
  std::string scratchDir;   ///< private directory for object caches
  std::string chromeTrace;  ///< where trace mode writes its spans
  std::string compiler = "unknown";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--tiny] [--corrupt-reference] "
               "[--chrome-trace FILE] [--compiler TEXT] [--commit TEXT]\n"
               "Run from the repository root (reads tools/samples).\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = next();
      else if (arg == "--seed") o.seed = std::stoull(next());
      else if (arg == "--seconds") o.seconds = std::stod(next());
      else if (arg == "--trace") o.trace = std::stoi(next()) != 0;
      else if (arg == "--tiny") o.tiny = true;
      else if (arg == "--corrupt-reference") o.corruptReference = true;
      else if (arg == "--scratch") o.scratchDir = next();
      else if (arg == "--chrome-trace") o.chromeTrace = next();
      else if (arg == "--compiler") o.compiler = next();
      else if (arg == "--commit") o.commit = next();
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.scratchDir.empty()) usage("--scratch is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// --- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

/// The highest whole percentile that still leaves at least ten samples
/// beyond it (the tail a sample count can support).
int tailPercentile(std::size_t samples) {
  if (samples <= 10) return 50;
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
  return std::max(50, static_cast<int>(std::floor(p)));
}

// --- spans ------------------------------------------------------------------

/// In-memory span recorder.  Every span has a name, start, end, parent
/// and the id of the sample it belongs to; `pass` groups the compile
/// passes (one cold compile of every program) whose per-layer sums the
/// report takes medians over.  Recording is off in untraced runs.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder was made
    double end = 0.0;
    int parent = -1;
    int sample = -1;
    int pass = -1;
  };

  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  /// Starts a new sample: spans opened at top level until the next call
  /// share its id.
  void beginSample(int pass) {
    ++sample_;
    pass_ = pass;
  }

  int open(const std::string& name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.start = secondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.sample = sample_;
    s.pass = pass_;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (!on_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
    stack_.pop_back();
  }

  /// Self time of every span: its duration minus what its children cover.
  std::vector<double> selfTimes() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  /// Median over compile passes of the per-pass sum of `name`'s self time.
  double passMedianSelf(const std::string& name) const {
    const std::vector<double> self = selfTimes();
    std::map<int, double> perPass;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].pass >= 0 && spans_[i].name == name)
        perPass[spans_[i].pass] += self[i];
    std::vector<double> v;
    for (const auto& [pass, s] : perPass) v.push_back(s);
    return median(v);
  }

  /// Share of top-level span time that no child span covers (a top-level
  /// span without children is a layer of its own and fully attributed).
  double unattributedShare() const {
    const std::vector<double> self = selfTimes();
    std::vector<bool> hasChild(spans_.size(), false);
    for (const Span& s : spans_)
      if (s.parent >= 0) hasChild[static_cast<std::size_t>(s.parent)] = true;
    double root = 0.0, uncovered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent < 0) {
        root += spans_[i].end - spans_[i].start;
        if (hasChild[i]) uncovered += self[i];
      }
    return root > 0.0 ? uncovered / root : 0.0;
  }

  /// Summed self time per span name (for the human-readable table).
  std::map<std::string, double> totalsByName() const {
    const std::vector<double> self = selfTimes();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += self[i];
    return out;
  }

  bool writeChrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"sample\":%d,\"pass\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent, s.sample, s.pass);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int sample_ = -1;
  int pass_ = -1;
};

/// Times `fn` and, when recording, wraps it in a span named `name`.
template <class F>
double timed(Spans& spans, const std::string& name, F&& fn) {
  const int id = spans.open(name);
  const Clock::time_point t0 = Clock::now();
  fn();
  const double s = secondsSince(t0);
  spans.close(id);
  return s;
}

// --- per-program state ------------------------------------------------------

enum Variant { kBase, kSerial, kOpt, kOptTraced, kVariants };
const char* const kVariantSpan[kVariants] = {"base run", "serial run",
                                             "optimized run",
                                             "traced optimized run"};

struct RunRecord {
  Variant variant;
  rt::SyncCounts counts;
  bool storeOk = false;
  bool nativeOk = false;
};

struct Program {
  ProgramDef def;
  double tolerance = 1e-9;

  // The sequential reference: its program must outlive the store.
  std::shared_ptr<ir::Program> refProgram;
  std::optional<ir::Store> reference;

  std::optional<driver::Compilation> warm;  ///< session the timed runs use
  ir::SymbolBindings symbols;

  std::vector<double> seconds[kVariants];
  std::size_t moves[kVariants] = {};  ///< runs started, for CPU rotation
  std::vector<RunRecord> runs;
  rt::SyncCounts sourceCounts;  ///< of the last source-to-result run
  std::vector<double> sourceToResult;
  core::OptStats stats;
  exec::native::BuildReport build;
  obs::BlameBuckets blame;
  std::int64_t blameWallNs = 0;
  bool blameComplete = true;
};

bool sameCounts(const rt::SyncCounts& a, const rt::SyncCounts& b) {
  return a.barriers == b.barriers && a.broadcasts == b.broadcasts &&
         a.counterPosts == b.counterPosts && a.counterWaits == b.counterWaits;
}

class Bench {
 public:
  explicit Bench(Options options)
      : o_(std::move(options)), spans_(o_.trace), rng_(o_.seed) {}

  int run();

 private:
  driver::Compilation newSession(Program& p);
  void buildReference(Program& p);
  void sourceToResult(Program& p, const std::string& cacheDir, int pass);
  void runVariant(Program& p, Variant v);
  void runVariants(Program& p);
  void probeRuntime();
  std::size_t finish();

  std::string cacheDir(const std::string& tag) {
    return (fs::path(o_.scratchDir) / ("cache-" + tag)).string();
  }

  Options o_;
  Spans spans_;
  std::mt19937_64 rng_;
  WorkloadDef workload_;
  std::vector<Program> programs_;

  bool timedPhase_ = false;
  std::vector<double> setupSeconds_;
  int passes_ = 0;
  std::map<int, double> toolchainByPass_;
  std::size_t timedBuilds_ = 0, timedHits_ = 0;
  std::size_t samples_ = 0;  ///< source-to-result samples taken
  std::map<std::string, std::uint64_t> firstPassStats_;
  double barrierEpisodeNs_ = 0.0, counterHandoffNs_ = 0.0;
  double phaseSeconds_[3] = {};  ///< reference, set-up, timed
};

driver::Compilation Bench::newSession(Program& p) {
  if (p.def.file.empty()) {
    kernels::KernelSpec spec = kernels::kernelByName(p.def.name);
    p.tolerance = spec.tolerance;
    return driver::Compilation::fromProgram(spec.program, spec.decomp,
                                            spec.name);
  }
  const std::string path = "tools/samples/" + p.def.file;
  std::ifstream in(path);
  SPMD_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return driver::Compilation::fromSource(text.str(), path);
}

void Bench::buildReference(Program& p) {
  driver::Compilation c = newSession(p);
  SPMD_CHECK(c.validateOk(), p.def.name + ": program does not validate");
  p.refProgram = c.parsed().program;
  p.symbols = p.def.file.empty()
                  ? kernels::kernelByName(p.def.name).bindings(p.def.n, p.def.t)
                  : driver::bindSymbols(*p.refProgram,
                                        {{"N", p.def.n}, {"T", p.def.t}});
  p.reference.emplace(*p.refProgram, p.symbols);
  ir::runSequential(*p.refProgram, *p.reference);
  if (o_.corruptReference && &p == &programs_.front())
    p.reference->data(ir::ArrayId{0})[0] += 1.0;
}

/// One source-to-verified-result sample: a fresh session through the
/// object cache in `dir` (empty: a cold compile; filled: a warm one), one
/// optimized run, its store compared with the reference.  The session
/// becomes the one the program's timed runs use.  `pass` >= 0 marks a
/// cold compile pass whose per-layer times the traced report uses.
void Bench::sourceToResult(Program& p, const std::string& dir, int pass) {
  ::setenv("SPMD_NATIVE_CACHE_DIR", dir.c_str(), 1);
  spans_.beginSample(pass);
  const int root = spans_.open("source to result " + p.def.name);
  const Clock::time_point t0 = Clock::now();
  RunRecord rec{kOpt, {}, false, false};
  try {
    std::optional<driver::Compilation> c;
    timed(spans_, "parse", [&] {
      c.emplace(newSession(p));
      c->parseOk();
    });
    bool valid = false;
    timed(spans_, "validate", [&] { valid = c->validateOk(); });
    SPMD_CHECK(valid, p.def.name + ": program does not validate");
    timed(spans_, "partition", [&] { c->partitioned(); });
    timed(spans_, "regions", [&] { c->regionTree(); });
    timed(spans_, "plan", [&] { p.stats = c->syncPlan().stats; });
    timed(spans_, "lower", [&] { c->loweredExec(); });
    timed(spans_, "native build", [&] {
      const driver::NativeExec& ne = c->nativeExec();
      rec.nativeOk = ne.available();
      p.build = ne.report;
    });
    driver::RunRequest req;
    req.symbols = p.symbols;
    req.threads = kThreads;
    req.exec.engine = cg::EngineKind::Native;
    req.runBase = false;
    driver::RunComparison out;
    timed(spans_, kVariantSpan[kOpt],
          [&] { out = driver::runComparison(*c, req); });
    timed(spans_, "verify", [&] {
      rec.storeOk = ir::Store::maxAbsDifference(*p.reference,
                                                *out.optStore) <= p.tolerance;
    });
    rec.counts = p.sourceCounts = out.optCounts;
    p.warm.emplace(std::move(*c));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << p.def.name << ": " << e.what() << "\n";
  }
  const double seconds = secondsSince(t0);
  spans_.close(root);
  ++samples_;
  p.runs.push_back(rec);
  if (pass >= 0) toolchainByPass_[pass] += p.build.compileSeconds;
  if (timedPhase_) {
    p.sourceToResult.push_back(seconds);
    ++timedBuilds_;
    timedHits_ += p.build.fromCache ? 1 : 0;
  }
}

void Bench::runVariant(Program& p, Variant v) {
  driver::RunRequest req;
  req.symbols = p.symbols;
  req.threads = v == kSerial ? 1 : kThreads;
  req.exec.engine = cg::EngineKind::Native;
  req.runBase = v == kBase;
  req.runOptimized = v != kBase;
  req.timed = true;
  req.trace = v == kOptTraced;
  // Room for every event of the run (barrier waits, counter posts and
  // stalls, forks) so the blame walk sees a complete trace.
  const rt::SyncCounts& c = p.sourceCounts;
  req.traceCapacity = std::bit_ceil(
      4096 + 4 * (c.barriers + c.broadcasts +
                  (c.counterPosts + c.counterWaits) /
                      static_cast<std::uint64_t>(kThreads)));
  RunRecord rec{v, {}, false, false};
  cpu_set_t all{};
  bool confine = false;
  timed(spans_, "placement", [&] {
    // Confine the run to req.threads CPUs, the next ones in turn from a
    // seeded start (its threads inherit this thread's mask), so the
    // samples of one process cover every core evenly rather than the ones
    // the scheduler left it on: on a virtual host the cores' speeds
    // differ, and a serial stencil's median moved by up to 60% with it.
    confine = ::sched_getaffinity(0, sizeof all, &all) == 0;
    if (!confine) return;
    std::vector<int> cpus;
    for (int i = 0; i < CPU_SETSIZE; ++i)
      if (CPU_ISSET(i, &all)) cpus.push_back(i);
    const std::size_t first = o_.seed + p.moves[v]++;
    cpu_set_t some;
    CPU_ZERO(&some);
    for (int i = 0; i < req.threads; ++i)
      CPU_SET(cpus[(first + static_cast<std::size_t>(i)) % cpus.size()],
              &some);
    ::sched_setaffinity(0, sizeof some, &some);
  });
  try {
    SPMD_CHECK(p.warm.has_value(), p.def.name + ": no compiled session");
    driver::Compilation& c = *p.warm;
    rec.nativeOk = c.nativeExec().available();
    driver::RunComparison out;
    timed(spans_, kVariantSpan[v],
          [&] { out = driver::runComparison(c, req); });
    const ir::Store& store = v == kBase ? *out.baseStore : *out.optStore;
    timed(spans_, "verify", [&] {
      rec.storeOk =
          ir::Store::maxAbsDifference(*p.reference, store) <= p.tolerance;
    });
    rec.counts = v == kBase ? out.baseCounts : out.optCounts;
    p.seconds[v].push_back(v == kBase ? out.baseSeconds : out.optSeconds);
    if (v == kOptTraced && out.optTrace.has_value()) {
      obs::BlameReport blame;
      timed(spans_, "blame", [&] { blame = obs::buildBlame(*out.optTrace); });
      p.blame.computeNs += blame.buckets.computeNs;
      p.blame.barrierWaitNs += blame.buckets.barrierWaitNs;
      p.blame.serialNs += blame.buckets.serialNs;
      p.blame.counterStallNs += blame.buckets.counterStallNs;
      p.blame.imbalanceNs += blame.buckets.imbalanceNs;
      p.blameWallNs += blame.wallNs;
      p.blameComplete = p.blameComplete && blame.complete;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << p.def.name << ": " << e.what() << "\n";
  }
  if (confine) ::sched_setaffinity(0, sizeof all, &all);
  p.runs.push_back(rec);
}

/// Base, serial and optimized runs of one program (plus a traced
/// optimized run when tracing), in a seeded order, so host drift hits
/// every variant alike.
void Bench::runVariants(Program& p) {
  std::vector<Variant> variants = {kBase, kSerial, kOpt};
  if (o_.trace) variants.push_back(kOptTraced);
  std::shuffle(variants.begin(), variants.end(), rng_);
  spans_.beginSample(-1);
  const int root = spans_.open("round " + p.def.name);
  for (Variant v : variants) runVariant(p, v);
  spans_.close(root);
}

/// Times the runtime's barrier episode and counter hand-off directly
/// through the public primitives at P threads (median of seven trials).
void Bench::probeRuntime() {
  const int P = kThreads;
  const int episodes = o_.tiny ? 2000 : 20000;
  rt::ThreadTeam team(P);
  std::vector<double> barrierNs, counterNs;
  for (int trial = 0; trial < 7; ++trial) {
    auto prim = rt::makeSyncPrimitive(rt::SyncPrimitive::Kind::Barrier, P);
    rt::Barrier& barrier = rt::asBarrier(*prim);
    Clock::time_point t0 = Clock::now();
    team.run([&](int tid) {
      for (int e = 0; e < episodes; ++e) barrier.arrive(tid);
    });
    barrierNs.push_back(secondsSince(t0) * 1e9 / episodes);

    // Token ring: thread t posts its o-th visit after thread t-1 posted
    // its own, so every post releases exactly one waiter.
    auto cprim = rt::makeSyncPrimitive(rt::SyncPrimitive::Kind::Counter, P);
    rt::CounterSync& counter = rt::asCounter(*cprim);
    const int laps = episodes / P;
    t0 = Clock::now();
    team.run([&](int tid) {
      const int prev = (tid + P - 1) % P;
      for (int o = 1; o <= laps; ++o) {
        const auto need = static_cast<std::uint64_t>(tid == 0 ? o - 1 : o);
        if (need > 0) counter.wait(prev, need);
        counter.post(tid, static_cast<std::uint64_t>(o));
      }
    });
    counterNs.push_back(secondsSince(t0) * 1e9 / (laps * P));
  }
  barrierEpisodeNs_ = median(barrierNs);
  counterHandoffNs_ = median(counterNs);
}

int Bench::run() {
  for (const WorkloadDef& w : workloads(o_.tiny))
    if (w.name == o_.workload) workload_ = w;
  if (workload_.name.empty()) usage("unknown workload " + o_.workload);

  programs_.reserve(workload_.programs.size());
  for (const ProgramDef& def : workload_.programs) {
    programs_.emplace_back();
    programs_.back().def = def;
  }

  // The reference stores are the benchmark's own checking machinery, not
  // set-up of the program under test, so they are outside setup_s.  The
  // sequential executor is slow, so programs run side by side.
  phaseSeconds_[0] = timed(spans_, "reference", [&] {
    std::vector<std::string> errors(programs_.size());
    rt::ThreadTeam team(kThreads);
    team.parallelFor(programs_.size(), [&](std::size_t i) {
      try {
        buildReference(programs_[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
    for (const std::string& e : errors) SPMD_CHECK(e.empty(), e);
  });

  std::vector<Program*> order;
  for (Program& p : programs_) order.push_back(&p);
  obs::setStatsEnabled(o_.trace);

  // Set-up, kSetupReps times: every program of a warm workload (for the
  // cold one, the two sample sources, which also warms the toolchain's
  // files) compiled cold through an empty cache to a verified result.
  std::vector<Program*> setupSet = order;
  if (workload_.cold)
    std::erase_if(setupSet, [](Program* p) { return p->def.file.empty(); });
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) fs::remove_all(cacheDir("setup" + std::to_string(rep - 1)));
    if (o_.trace) obs::resetStats();
    const int pass = workload_.cold ? -1 : passes_++;
    const Clock::time_point t0 = Clock::now();
    for (Program* p : setupSet)
      sourceToResult(*p, cacheDir("setup" + std::to_string(rep)), pass);
    setupSeconds_.push_back(secondsSince(t0));
    if (o_.trace && rep == 0 && !workload_.cold)
      for (const obs::StatRow& row : obs::statsSnapshot())
        firstPassStats_[row.group + "." + row.name] = row.value;
  }
  phaseSeconds_[1] = std::accumulate(setupSeconds_.begin(), setupSeconds_.end(), 0.0);
  // Warm workloads keep compiling through the last set-up cache.
  const std::string warmDir = cacheDir("setup" + std::to_string(kSetupReps - 1));

  // Timed phase: whole rounds until the time is spent.  A warm round
  // takes each program, in a seeded order, from source to a verified
  // result through the filled cache, then runs its variants.  The cold
  // workload spends two thirds of its time on rounds that compile each
  // program through an empty cache, then a third on rounds of runs on
  // the sessions the last of them built (away from the toolchain's
  // processes, which would disturb runs this short).
  timedPhase_ = true;
  const Clock::time_point start = Clock::now();
  const double coldSeconds = workload_.cold ? o_.seconds * 2.0 / 3.0 : 0.0;
  for (int round = 0; workload_.cold &&
                      (round == 0 || secondsSince(start) < coldSeconds);
       ++round) {
    std::shuffle(order.begin(), order.end(), rng_);
    if (o_.trace) obs::resetStats();
    const int pass = passes_++;
    for (Program* p : order) {
      const std::string dir = cacheDir("cold" + std::to_string(samples_));
      sourceToResult(*p, dir, pass);
      fs::remove_all(dir);
    }
    if (o_.trace && round == 0)
      for (const obs::StatRow& row : obs::statsSnapshot())
        firstPassStats_[row.group + "." + row.name] = row.value;
  }
  const Clock::time_point runsStart = Clock::now();
  const double runSeconds = o_.seconds - coldSeconds;
  for (int round = 0; round == 0 || secondsSince(runsStart) < runSeconds;
       ++round) {
    std::shuffle(order.begin(), order.end(), rng_);
    for (Program* p : order) {
      if (!workload_.cold) sourceToResult(*p, warmDir, -1);
      runVariants(*p);
    }
  }
  phaseSeconds_[2] = secondsSince(start);
  fs::remove_all(warmDir);
  if (o_.trace) probeRuntime();
  return finish() == 0 ? 0 : 1;
}

// --- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::size_t Bench::finish() {
  // Failures: every run, timed or inside a source-to-result sample, is
  // one operation.
  std::size_t attempted = 0, failed = 0;
  std::uint64_t barriersBase = 0, barriersOpt = 0, posts = 0, waits = 0,
                broadcasts = 0;
  for (Program& p : programs_) {
    std::optional<rt::SyncCounts> first[kVariants];
    for (const RunRecord& r : p.runs)
      if (!first[r.variant]) first[r.variant] = r.counts;
    // The traced run is the optimized configuration observed.
    const std::optional<rt::SyncCounts>& opt =
        first[kOpt] ? first[kOpt] : first[kOptTraced];
    for (const RunRecord& r : p.runs) {
      const Variant config = r.variant == kOptTraced ? kOpt : r.variant;
      bool ok = r.storeOk && r.nativeOk;
      if (first[config]) ok = ok && sameCounts(r.counts, *first[config]);
      if (config == kOpt && first[kBase])
        ok = ok && r.counts.barriers <= first[kBase]->barriers;
      ++attempted;
      if (!ok) ++failed;
    }
    if (first[kBase]) barriersBase += first[kBase]->barriers;
    if (opt) {
      barriersOpt += opt->barriers;
      posts += opt->counterPosts;
      waits += opt->counterWaits;
      broadcasts += opt->broadcasts;
    }
  }
  if (attempted == 0) attempted = 1, failed = 1;

  // Per-program medians.
  double runS = 0.0, baseS = 0.0, serialS = 0.0, tailS = 0.0, tracedS = 0.0,
         s2rS = 0.0;
  std::vector<double> vsSerial, elim;
  std::size_t minSamples = SIZE_MAX;
  int tailPct = 100;
  std::cout << "program          N     T   base_s      serial_s    opt_s  "
               "     serial/opt base/opt  barriers base->opt  posts\n";
  for (Program& p : programs_) {
    const double b = median(p.seconds[kBase]);
    const double s = median(p.seconds[kSerial]);
    const double o = median(p.seconds[kOpt]);
    const std::size_t n = p.seconds[kOpt].size();
    minSamples = std::min(minSamples, n);
    const int pct = tailPercentile(n);
    tailPct = std::min(tailPct, pct);
    runS += o;
    baseS += b;
    serialS += s;
    tailS += quantile(p.seconds[kOpt], pct / 100.0);
    tracedS += median(p.seconds[kOptTraced]);
    if (o > 0 && s > 0) vsSerial.push_back(s / o);
    if (o > 0 && b > 0) elim.push_back(b / o);
    s2rS += median(p.sourceToResult);
    std::uint64_t bb = 0, bo = 0, cp = 0;
    for (const RunRecord& r : p.runs) {
      if (r.variant == kBase) bb = r.counts.barriers;
      if (r.variant == kOpt) bo = r.counts.barriers, cp = r.counts.counterPosts;
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-14s %5lld %5lld %.4e  %.4e  %.4e  %9.3f %8.3f  %8llu -> "
                  "%-8llu %llu\n",
                  p.def.name.c_str(), static_cast<long long>(p.def.n),
                  static_cast<long long>(p.def.t), b, s, o, s > 0 ? s / o : 0,
                  o > 0 ? b / o : 0, static_cast<unsigned long long>(bb),
                  static_cast<unsigned long long>(bo),
                  static_cast<unsigned long long>(cp));
    std::cout << line;
  }
  const double reduction =
      barriersBase == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(barriersOpt) /
                               static_cast<double>(barriersBase));

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double rssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::cout << "phases (s): reference " << phaseSeconds_[0] << ", set-up "
            << phaseSeconds_[1] << ", timed " << phaseSeconds_[2] << "\n";
  // Provenance stamp (never the last line).
  std::cout << "stamp: {\"workload\": \"" << o_.workload
            << "\", \"seed\": " << o_.seed << ", \"threads\": " << kThreads
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"topology\": \"" << rt::Topology::detected().toString()
            << "\", \"compiler\": \"" << o_.compiler << "\", \"commit\": \""
            << o_.commit << "\", \"tiny\": " << (o_.tiny ? "true" : "false")
            << ", \"sizes\": {";
  for (std::size_t i = 0; i < programs_.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << programs_[i].def.name
              << "\": [" << programs_[i].def.n << ", " << programs_[i].def.t
              << "]";
  std::cout << "}}\n";

  std::vector<Metric> m;
  if (!o_.trace) {
    m = {
        {"setup_s", median(setupSeconds_), "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"success_rate",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
        {"run_s", runS, "s"},
        {"speedup_vs_serial", geomean(vsSerial), "x"},
        {"elim_speedup", geomean(elim), "x"},
        {"barrier_reduction_pct", reduction, "%"},
        {"source_to_result_s", s2rS, "s"},
    };
  } else {
    std::size_t sourceBytes = 0, units = 0;
    std::size_t boundaries = 0, eliminated = 0, counters = 0, kept = 0,
                pipelined = 0;
    obs::BlameBuckets blame;
    std::int64_t blameWall = 0;
    bool blameComplete = true;
    for (const Program& p : programs_) {
      sourceBytes += p.build.sourceBytes;
      units += p.build.unitCount;
      boundaries += p.stats.boundaries;
      eliminated += p.stats.eliminated;
      counters += p.stats.counters;
      kept += p.stats.barriers;
      pipelined += p.stats.backEdgesPipelined;
      blame.computeNs += p.blame.computeNs;
      blame.barrierWaitNs += p.blame.barrierWaitNs;
      blame.serialNs += p.blame.serialNs;
      blame.counterStallNs += p.blame.counterStallNs;
      blame.imbalanceNs += p.blame.imbalanceNs;
      blameWall += p.blameWallNs;
      blameComplete = blameComplete && p.blameComplete;
    }
    // Toolchain seconds are not spans (the compile runs inside
    // nativeExec()): median over cold passes of the per-pass sum.
    std::vector<double> perPass;
    for (const auto& [pass, s] : toolchainByPass_) perPass.push_back(s);
    const double toolchain = median(perPass);
    auto pct = [&](std::int64_t ns) {
      return blameWall > 0 ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(blameWall)
                           : 0.0;
    };
    auto stat = [&](const std::string& key) {
      auto it = firstPassStats_.find(key);
      return it == firstPassStats_.end() ? 0.0
                                         : static_cast<double>(it->second);
    };
    if (!blameComplete)
      std::cout << "note: some traced runs dropped events; blame shares "
                   "cover what was attributed\n";
    m = {
        {"ir.parse_s", spans_.passMedianSelf("parse"), "s"},
        {"analysis.validate_s", spans_.passMedianSelf("validate"), "s"},
        {"partition.partition_s", spans_.passMedianSelf("partition"), "s"},
        {"core.regions_s", spans_.passMedianSelf("regions"), "s"},
        {"core.plan_s", spans_.passMedianSelf("plan"), "s"},
        {"exec.lower_s", spans_.passMedianSelf("lower"), "s"},
        {"native.build_s", spans_.passMedianSelf("native build"), "s"},
        {"native.toolchain_s", toolchain, "s"},
        {"native.source_bytes", static_cast<double>(sourceBytes), "bytes"},
        {"native.units", static_cast<double>(units), "count"},
        {"native.cache_hit_ratio",
         timedBuilds_ ? static_cast<double>(timedHits_) /
                            static_cast<double>(timedBuilds_)
                      : 0.0,
         "ratio"},
        {"comm.pair_queries", stat("comm.pair-queries"), "count"},
        {"poly.fm_scans", stat("poly.fm-scans"), "count"},
        {"poly.fm_eliminations", stat("poly.fm-eliminations"), "count"},
        {"core.boundaries", static_cast<double>(boundaries), "count"},
        {"core.eliminated", static_cast<double>(eliminated), "count"},
        {"core.counters", static_cast<double>(counters), "count"},
        {"core.barriers_kept", static_cast<double>(kept), "count"},
        {"core.backedges_pipelined", static_cast<double>(pipelined), "count"},
        {"run.opt_s", runS, "s"},
        {"run.opt_tail_s", tailS, "s"},
        {"run.tail_percentile", static_cast<double>(tailPct), "percentile"},
        {"run.samples_per_program", static_cast<double>(minSamples), "count"},
        {"run.base_s", baseS, "s"},
        {"run.serial_s", serialS, "s"},
        {"runtime.barriers_base", static_cast<double>(barriersBase), "count"},
        {"runtime.barriers_opt", static_cast<double>(barriersOpt), "count"},
        {"runtime.counter_posts", static_cast<double>(posts), "count"},
        {"runtime.counter_waits", static_cast<double>(waits), "count"},
        {"runtime.broadcasts", static_cast<double>(broadcasts), "count"},
        {"runtime.barrier_episode_ns", barrierEpisodeNs_, "ns"},
        {"runtime.counter_handoff_ns", counterHandoffNs_, "ns"},
        {"blame.compute_pct", pct(blame.computeNs), "%"},
        {"blame.barrier_wait_pct", pct(blame.barrierWaitNs), "%"},
        {"blame.serial_pct", pct(blame.serialNs), "%"},
        {"blame.counter_stall_pct", pct(blame.counterStallNs), "%"},
        {"blame.imbalance_pct", pct(blame.imbalanceNs), "%"},
        {"trace.overhead_ratio", runS > 0 ? tracedS / runS : 0.0, "x"},
        {"trace.unattributed_pct", 100.0 * spans_.unattributedShare(), "%"},
    };
    std::cout << "span self time (s, summed):";
    for (const auto& [name, s] : spans_.totalsByName())
      if (name.rfind("round ", 0) != 0 &&
          name.rfind("source to result", 0) != 0)
        std::cout << " [" << name << " " << s << "]";
    std::cout << "\n";
    if (!o_.chromeTrace.empty() && !spans_.writeChrome(o_.chromeTrace))
      std::cerr << "perfbench: cannot write " << o_.chromeTrace << "\n";
  }
  printResult(failed == 0, attempted, failed, m);
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold as large blocks are freed, so where an
  // array lands -- page-mapped or inside the heap -- would depend on the
  // seed-shuffled allocation history, and a stencil's serial run time
  // moves by up to 60% with the relative alignment of its arrays.  A fixed
  // threshold maps every large array the same way in every run.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options = parseOptions(argc, argv);
  try {
    Bench bench(std::move(options));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
