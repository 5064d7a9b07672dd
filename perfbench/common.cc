#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace tpcds::perfbench {

// --- Tracer --------------------------------------------------------------

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int parent, int64_t id,
                  const std::string& detail) {
  if (!enabled_) return -1;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, detail, now, now, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (span < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

int Tracer::Add(const std::string& name, int parent, int64_t id,
                int64_t start_ns, int64_t end_ns, const std::string& detail) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, detail, start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

int64_t Tracer::StartNs(int span) const {
  if (span < 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(span)].start_ns;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [begin, end] : kids) {
      int64_t from = std::max(begin, reach);
      int64_t to = std::min(end, s.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Names and details are fixed ASCII identifiers; no escaping needed.
    out << "  {\"i\": " << i << ", \"name\": \"" << s.name
        << "\", \"detail\": \"" << s.detail << "\", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- RunContext / RunResult ----------------------------------------------

uint64_t RunContext::QuerySeed() const { return Mix64(kDataSeed ^ seed); }

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

// --- helpers ---------------------------------------------------------------

BenchmarkConfig BaseConfig() {
  BenchmarkConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = RunContext::kDataSeed;
  return config;
}

MaintenanceOptions CycleOptions(const RunContext& ctx, int cycle) {
  BenchmarkConfig config = BaseConfig();
  MaintenanceOptions dm;
  dm.seed = ctx.QuerySeed();
  dm.scale_factor = config.scale_factor;
  dm.refresh_cycle = cycle;
  dm.refresh_fraction = config.refresh_fraction;
  dm.dimension_updates = config.dimension_updates;
  return dm;
}

double TimedLoad(RunContext* ctx, const BenchmarkConfig& config, Database* db,
                 RunResult* result) {
  Stopwatch timer;
  Result<double> loaded = [&] {
    ScopedSpan span(&ctx->tracer, "dsgen.load");
    return RunLoadTest(config, db);
  }();
  double seconds = timer.ElapsedSeconds();
  result->Check(loaded.ok(), "load: " + loaded.status().ToString());
  return loaded.ok() ? seconds : -1.0;
}

uint64_t DigestResult(const QueryResult& result) {
  uint64_t h = 1469598103934665603ull;
  auto feed = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  };
  for (const std::string& column : result.columns) feed(column);
  for (const std::vector<Value>& row : result.rows) {
    for (const Value& v : row) {
      feed(std::to_string(static_cast<int>(v.kind())));
      feed(v.ToDisplayString());
    }
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void SetQueryMetrics(const std::vector<double>& latencies_ms,
                     double measured_s, RunResult* result) {
  result->Set("query_p50_ms", Percentile(latencies_ms, 50), "ms");
  result->Set("query_p95_ms", Percentile(latencies_ms, 95), "ms");
  result->Set("query_samples", static_cast<double>(latencies_ms.size()),
              "count");
  result->Set("qph",
              measured_s > 0 ? static_cast<double>(latencies_ms.size()) /
                                   measured_s * 3600.0
                             : 0.0,
              "queries/h");
}

void AddMaintenanceSpans(Tracer* tracer, int cycle_span, int64_t cycle_id,
                         const MaintenanceReport& report) {
  if (cycle_span < 0) return;
  // The report carries durations only; operations run back to back after
  // the fork, so lay them out from the cycle start. Self times do not
  // depend on the placement as long as the children stay disjoint.
  int64_t at = tracer->StartNs(cycle_span);
  for (const MaintenanceOpResult& op : report.operations) {
    std::string category = op.operation.substr(0, op.operation.find(':'));
    if (category == "scd_update") category = "scd";
    if (category == "inplace_update") category = "inplace";
    int64_t end = at + static_cast<int64_t>(op.seconds * 1e9);
    tracer->Add("maintenance." + category, cycle_span, cycle_id, at, end,
                op.operation);
    at = end;
  }
}

namespace {

/// Cost of recording one span pair (Begin + End), measured on a private
/// tracer so the run's own spans are not disturbed.
double SpanCostNs() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  Stopwatch timer;
  for (int i = 0; i < kSpans; ++i) {
    probe.End(probe.Begin("engine.materialise", 0, i));
  }
  return timer.ElapsedSeconds() * 1e9 / kSpans;
}

}  // namespace

void SetSpanMetrics(const Tracer& tracer, int64_t rows_loaded,
                    RunResult* result) {
  std::map<std::string, double> self = tracer.SelfMs();
  auto mean_self = [&](const std::string& name, int64_t per) {
    return per == 0 ? 0.0 : self[name] / static_cast<double>(per);
  };

  std::vector<double> loads = tracer.DurationsMs("dsgen.load");
  double load_ms = Median(loads);
  result->Set("dsgen.load_ms", load_ms, "ms");
  result->Set("dsgen.rows_per_s",
              load_ms > 0 ? static_cast<double>(rows_loaded) / load_ms * 1e3
                          : 0.0,
              "rows/s");

  std::vector<double> qgen = tracer.DurationsMs("qgen.instantiate");
  double qgen_total = 0.0;
  for (double ms : qgen) qgen_total += ms;
  result->Set("qgen.ms",
              qgen.empty() ? 0.0
                           : qgen_total / static_cast<double>(qgen.size()),
              "ms");

  std::vector<double> cycles = tracer.DurationsMs("maintenance.cycle");
  auto n_cycles = static_cast<int64_t>(cycles.size());
  double cycle_total = 0.0;
  for (double ms : cycles) cycle_total += ms;
  double fork_ms = mean_self("maintenance.cycle", n_cycles);
  result->Set("maintenance.cycle_ms",
              n_cycles == 0 ? 0.0 : cycle_total / static_cast<double>(n_cycles),
              "ms");
  result->Set("maintenance.fork_ms", fork_ms, "ms");
  double ops_ms = 0.0;
  for (std::string category : {"scd", "inplace", "fact_insert",
                               "fact_delete"}) {
    double ms = mean_self("maintenance." + category, n_cycles);
    result->Set("maintenance." + category + "_ms", ms, "ms");
    ops_ms += ms;
  }
  result->Set("maintenance.ops_ms", ops_ms, "ms");

  for (std::string call : {"save", "attach", "load"}) {
    result->Set("checkpoint." + call + "_ms",
                Median(tracer.DurationsMs("checkpoint." + call)), "ms");
  }

  result->Set("trace.spans", static_cast<double>(tracer.size()), "count");
  result->Set("trace.overhead_ms",
              static_cast<double>(tracer.size()) * SpanCostNs() / 1e6, "ms");
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace tpcds::perfbench
