#ifndef TPCDS_PERFBENCH_BENCH_H_
#define TPCDS_PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark (perfbench/README.md): run
// context, metric map, span tracer and the helpers the three workloads
// use. Everything here times the program from outside, around calls into
// its public functions; no program code is instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "engine/database.h"
#include "maintenance/maintenance.h"

namespace tpcds::perfbench {

/// The benchmark's fixed scale: every workload runs at SF 0.1.
inline constexpr double kScaleFactor = 0.1;
/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Minimum latency samples per run, so that p95 has at least ten samples
/// beyond it.
inline constexpr int64_t kMinQuerySamples = 200;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One span: a timed call into a layer, in nanoseconds from the tracer's
/// origin. `parent` indexes the enclosing span (-1 for a root); `id` is
/// the query or cycle the span belongs to.
struct Span {
  std::string name;
  std::string detail;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t id = -1;
};

/// In-memory span recorder. Disabled tracers record nothing and return -1
/// handles, so untraced runs pay one branch per call site. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;

  /// Opens a span and returns its handle.
  int Begin(const std::string& name, int parent = -1, int64_t id = -1,
            const std::string& detail = "");
  void End(int span);
  /// Records an already finished span (children synthesised from outcome
  /// structs such as QueryOutcome and MaintenanceReport).
  int Add(const std::string& name, int parent, int64_t id, int64_t start_ns,
          int64_t end_ns, const std::string& detail = "");

  int64_t StartNs(int span) const;
  /// Durations in ms of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Summed self time in ms by span name; a span's self time is its
  /// duration minus the part of it covered by its children.
  std::map<std::string, double> SelfMs() const;

  size_t size() const;
  /// Writes every span as JSON; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope (or until End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
             int64_t id = -1, const std::string& detail = "")
      : tracer_(tracer), span_(tracer->Begin(name, parent, id, detail)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int handle() const { return span_; }
  void End() {
    if (!ended_) tracer_->End(span_);
    ended_ = true;
  }

 private:
  Tracer* tracer_;
  int span_;
  bool ended_ = false;
};

/// Everything one invocation needs.
struct RunContext {
  explicit RunContext(bool trace) : tracer(trace) {}

  uint64_t seed = 1;     // the workload seed from the command line
  double seconds = 10;   // measured interval
  int threads = 4;       // nproc: the thread budget of every workload
  std::string workdir;   // scratch directory for checkpoints and the WAL
  /// Name of a correctness check whose expected value is perturbed, to
  /// prove that the check can fail; empty for normal runs.
  std::string perturb;
  Tracer tracer;

  /// The data generator's master seed. Like the paper's dsdgen it is fixed,
  /// so every run measures the same database; the workload seed picks the
  /// query bind sets and the maintenance refresh sets.
  static constexpr uint64_t kDataSeed = 19620718;
  /// Seed of the query generator and of maintenance, from the workload seed.
  uint64_t QuerySeed() const;
  bool Perturbed(const std::string& check) const { return perturb == check; }
};

/// What a workload measured. `metrics` holds every number the workload
/// produced (end-to-end and per layer); the launcher selects the ones the
/// run reports.
struct RunResult {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation; a false `ok` counts it failed.
  void Check(bool ok, const std::string& what);
};

RunResult RunPower(RunContext* ctx);
RunResult RunThroughput(RunContext* ctx);
RunResult RunRefresh(RunContext* ctx);

// --- helpers (common.cc) ------------------------------------------------

/// The BenchmarkConfig every workload starts from: SF 0.1, the data seed,
/// default PlannerOptions and refresh volume.
BenchmarkConfig BaseConfig();

/// Options of maintenance cycle `cycle` (1-based) of this run.
MaintenanceOptions CycleOptions(const RunContext& ctx, int cycle);

/// RunLoadTest into `db` under a "dsgen.load" span; returns seconds (or
/// records a failure and returns a negative value).
double TimedLoad(RunContext* ctx, const BenchmarkConfig& config, Database* db,
                 RunResult* result);

/// Order-sensitive FNV-1a digest of a result: headers, then every value's
/// kind and display text.
uint64_t DigestResult(const QueryResult& result);

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank percentile (p in (0, 100]); 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Records query_p50_ms, query_p95_ms and qph from client-observed
/// latencies over `measured_s` seconds of wall time.
void SetQueryMetrics(const std::vector<double>& latencies_ms,
                     double measured_s, RunResult* result);

/// Adds a maintenance cycle's per-operation spans under `cycle_span`,
/// laid out back to back from the cycle's start.
void AddMaintenanceSpans(Tracer* tracer, int cycle_span, int64_t cycle_id,
                         const MaintenanceReport& report);

/// Per-layer metrics derived from the recorded spans (maintenance, qgen,
/// dsgen, checkpoint and tracing-cost figures). Workloads add the layer
/// counters the spans cannot carry.
void SetSpanMetrics(const Tracer& tracer, int64_t rows_loaded,
                    RunResult* result);

/// Total size in bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace tpcds::perfbench

#endif  // TPCDS_PERFBENCH_BENCH_H_
