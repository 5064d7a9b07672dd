// `power`: one client runs the 99 templates of a few stream bind sets in
// turn at intra-query parallelism nproc - 1. The executor's calling thread
// drains morsels beside its `parallelism` pool threads, so this keeps the
// busy threads at nproc. No admission, no writes: this workload isolates
// the engine (planner, operators, parallel executor).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"
#include "engine/executor.h"
#include "engine/parser.h"
#include "engine/plan.h"
#include "qgen/qgen.h"
#include "templates/templates.h"
#include "util/stopwatch.h"

namespace tpcds::perfbench {
namespace {

/// Distinct stream bind sets the measured passes cycle through.
constexpr int kBindSets = 3;
/// Measured passes (99 queries each) per second of --seconds. The work is
/// fixed by --seconds rather than stopped by the clock: a pass takes about
/// 2.8 s on the 4-core reference container, and a clock-based stop would
/// switch between k and k+1 passes as the machine's speed drifts, changing
/// which queries a run measures.
constexpr double kPassesPerSecond = 1.0 / 3.0;

/// Operator family of an ExecStats::OpStat label (PlanNodeLabel text).
const char* OpMetric(const std::string& label) {
  if (label.starts_with("scan ")) return "op.scan_ms";
  if (label.starts_with("hash join") || label.starts_with("nested-loop join") ||
      label.starts_with("index join")) {
    return "op.hash_join_ms";
  }
  if (label.starts_with("star semi-join")) return "op.star_ms";
  if (label.starts_with("aggregate")) return "op.aggregate_ms";
  if (label.starts_with("sort") || label.starts_with("top-k")) {
    return "op.sort_ms";
  }
  return "op.other_ms";
}

/// Executor counters summed over the traced queries.
struct ExecTotals {
  int64_t queries = 0;
  std::map<std::string, double> op_ms;
  double rows_scanned = 0, rows_joined = 0, bytes_touched = 0;
  double morsels_pruned = 0, bloom_rejects = 0, topk_seen = 0, topk_kept = 0;
  std::vector<double> q_errors;

  void Add(const ExecStats& stats) {
    ++queries;
    for (const ExecStats::OpStat& op : stats.operators) {
      if (op.executed) op_ms[OpMetric(op.label)] += op.seconds * 1e3;
    }
    rows_scanned += static_cast<double>(stats.rows_scanned);
    rows_joined += static_cast<double>(stats.rows_joined);
    bytes_touched += static_cast<double>(stats.bytes_touched);
    morsels_pruned += static_cast<double>(stats.morsels_pruned);
    bloom_rejects += static_cast<double>(stats.bloom_rejects);
    topk_seen += static_cast<double>(stats.topk_seen);
    topk_kept += static_cast<double>(stats.topk_kept);
    if (stats.max_q_error > 0.0) q_errors.push_back(stats.max_q_error);
  }
};

/// Database::Query, spelled out as the chain it wraps (Snapshot, ParseSql,
/// BuildPlan, ExecutePlan, materialise) with one span per call.
Result<QueryResult> TracedQuery(Tracer* tracer, const Database& db,
                                const std::string& sql,
                                const PlannerOptions& options, int64_t id,
                                ExecStats* stats) {
  ScopedSpan query(tracer, "engine.query", -1, id);
  int root = query.handle();
  std::shared_ptr<const DataFacade> facade;
  {
    ScopedSpan span(tracer, "engine.snapshot", root, id);
    facade = db.Snapshot();
  }
  Result<std::shared_ptr<SelectStmt>> stmt = [&] {
    ScopedSpan span(tracer, "engine.parse", root, id);
    return ParseSql(sql);
  }();
  if (!stmt.ok()) return stmt.status();
  Result<PhysicalPlan> plan = [&] {
    ScopedSpan span(tracer, "engine.plan", root, id);
    return BuildPlan(facade.get(), **stmt, options);
  }();
  if (!plan.ok()) return plan.status();
  Result<std::shared_ptr<RowSet>> rows = [&] {
    ScopedSpan span(tracer, "engine.exec", root, id);
    return ExecutePlan(facade.get(), *plan, options, stats);
  }();
  if (!rows.ok()) return rows.status();
  ScopedSpan span(tracer, "engine.materialise", root, id);
  QueryResult result;
  const RowSet& rs = **rows;
  result.columns.reserve(rs.cols.size());
  for (size_t i = 0; i < rs.cols.size(); ++i) {
    result.columns.push_back(rs.HeaderOf(i));
  }
  result.rows = std::move((*rows)->rows);
  // Release in Database::Query's order: plan (borrows the AST), result
  // rows, AST, pinned generation.
  *plan = PhysicalPlan();
  rows->reset();
  stmt->reset();
  facade.reset();
  return result;
}

/// Engine per-layer metrics of the traced run, per measured query.
void SetEngineMetrics(const Tracer& tracer, const ExecTotals& totals,
                      RunResult* result) {
  std::map<std::string, double> self = tracer.SelfMs();
  double n = static_cast<double>(std::max<int64_t>(totals.queries, 1));
  auto per_query = [&](const std::string& span) { return self[span] / n; };
  result->Set("parse.ms", per_query("engine.parse"), "ms");
  result->Set("plan.ms", per_query("engine.plan"), "ms");
  double exec_ms = per_query("engine.exec");
  result->Set("exec.ms", exec_ms, "ms");
  result->Set("materialise.ms", per_query("engine.materialise"), "ms");
  // Client-observed time the four calls above do not cover: the snapshot
  // plus the gaps between calls.
  result->Set("trace.remainder_ms",
              per_query("engine.query") + per_query("engine.snapshot"), "ms");
  double op_total = 0.0;
  for (const char* op : {"op.scan_ms", "op.hash_join_ms", "op.star_ms",
                         "op.aggregate_ms", "op.sort_ms", "op.other_ms"}) {
    auto it = totals.op_ms.find(op);
    double ms = it == totals.op_ms.end() ? 0.0 : it->second / n;
    result->Set(op, ms, "ms");
    op_total += ms;
  }
  result->Set("exec.unattributed_ms", exec_ms - op_total, "ms");
  result->Set("exec.rows_scanned", totals.rows_scanned / n, "rows/query");
  result->Set("exec.rows_joined", totals.rows_joined / n, "rows/query");
  result->Set("exec.bytes_touched", totals.bytes_touched / n, "B/query");
  result->Set("exec.morsels_pruned", totals.morsels_pruned / n,
              "morsels/query");
  result->Set("exec.bloom_rejects", totals.bloom_rejects / n, "rows/query");
  result->Set("exec.topk_kept_ratio",
              totals.topk_seen > 0 ? totals.topk_kept / totals.topk_seen : 0.0,
              "ratio");
  result->Set("plan.q_error_p50", Percentile(totals.q_errors, 50), "ratio");
  result->Set("plan.q_error_p95", Percentile(totals.q_errors, 95), "ratio");
}

/// One distinct statement of the measured bind sets.
struct BoundQuery {
  std::string name;
  int bind_set = 0;
  std::string sql;
};

/// One measured execution: which statement, and its result digest.
struct Execution {
  size_t query = 0;
  uint64_t digest = 0;
};

/// Runs every statement with the reference evaluator (row-at-a-time,
/// serial) on `db` and checks each measured execution's digest against it.
/// Statements are spread over `threads` clients; each runs serially.
void CheckAgainstReference(RunContext* ctx, Database* db,
                           const std::vector<BoundQuery>& queries,
                           const std::vector<Execution>& executions,
                           RunResult* result) {
  PlannerOptions reference;
  reference.vectorized_execution = false;
  reference.parallelism = 1;
  std::shared_ptr<const DataFacade> facade = db->Snapshot();
  std::vector<Result<uint64_t>> expected(queries.size(),
                                         Status::Internal("not run"));
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < ctx->threads; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < queries.size(); i = next++) {
        Result<QueryResult> r = QueryFacade(*facade, queries[i].sql, reference);
        expected[i] = r.ok() ? Result<uint64_t>(DigestResult(*r))
                             : Result<uint64_t>(r.status());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (ctx->Perturbed("power_digest") && expected[0].ok()) {
    expected[0] = *expected[0] ^ 1;
  }
  for (const Execution& e : executions) {
    const BoundQuery& q = queries[e.query];
    const Result<uint64_t>& want = expected[e.query];
    std::string what = "power: " + q.name + " (bind set " +
                       std::to_string(q.bind_set) + ") ";
    result->Check(want.ok() && *want == e.digest,
                  want.ok() ? what + "digest differs from the reference"
                            : what + "reference failed: " +
                                  want.status().ToString());
  }
}

}  // namespace

RunResult RunPower(RunContext* ctx) {
  RunResult result;
  Tracer* tracer = &ctx->tracer;
  BenchmarkConfig config = BaseConfig();
  PlannerOptions options;
  options.parallelism = std::max(1, ctx->threads - 1);
  const std::vector<QueryTemplate>& templates = AllTemplates();
  QueryGenerator qgen(ctx->QuerySeed());

  // Setup: the load test, then one warm-up pass over bind set 0 that fills
  // the lazy stats, zone maps and indexes (timed as setup, not as queries).
  std::vector<double> load_s;
  auto db = std::make_unique<Database>();
  load_s.push_back(TimedLoad(ctx, config, db.get(), &result));
  if (load_s.back() < 0) return result;
  const int64_t rows_loaded = db->TotalRows();
  Stopwatch warm_timer;
  for (const QueryTemplate& tmpl : templates) {
    Result<std::string> sql = qgen.Instantiate(tmpl, /*stream=*/0);
    Status st = sql.ok() ? db->Query(*sql, options).status() : sql.status();
    result.Check(st.ok(), "power warm-up " + tmpl.name + ": " + st.ToString());
  }
  const double warm_s = warm_timer.ElapsedSeconds();

  // The measured statements: kBindSets stream bind sets, each the 99
  // templates in that stream's permutation order.
  std::vector<BoundQuery> queries;
  for (int set = 1; set <= kBindSets; ++set) {
    for (int index : qgen.StreamPermutation(set, templates)) {
      const QueryTemplate& tmpl = templates[static_cast<size_t>(index)];
      Result<std::string> sql = [&] {
        ScopedSpan span(tracer, "qgen.instantiate");
        return qgen.Instantiate(tmpl, set);
      }();
      result.Check(sql.ok(), "power qgen " + tmpl.name + ": " +
                                 sql.status().ToString());
      if (!sql.ok()) return result;
      queries.push_back(BoundQuery{tmpl.name, set, *sql});
    }
  }

  // Measured: the bind sets in turn, whole sets only, so every run weighs
  // each template equally and has at least kMinQuerySamples latencies.
  const size_t per_set = templates.size();
  const auto passes = std::max<size_t>(
      static_cast<size_t>(std::lround(ctx->seconds * kPassesPerSecond)),
      (kMinQuerySamples + per_set - 1) / per_set);
  std::vector<Execution> executions;
  std::vector<double> latencies_ms;
  ExecTotals totals;
  Stopwatch run_timer;
  for (size_t pass = 0; pass < passes; ++pass) {
    size_t first = (pass % kBindSets) * per_set;
    for (size_t i = first; i < first + per_set; ++i) {
      auto id = static_cast<int64_t>(executions.size());
      ExecStats stats;
      Stopwatch query_timer;
      Result<QueryResult> r =
          tracer->enabled()
              ? TracedQuery(tracer, *db, queries[i].sql, options, id, &stats)
              : db->Query(queries[i].sql, options);
      double ms = query_timer.ElapsedSeconds() * 1e3;
      result.Check(r.ok(), "power " + queries[i].name + ": " +
                               r.status().ToString());
      if (!r.ok()) continue;
      latencies_ms.push_back(ms);
      executions.push_back(Execution{i, DigestResult(*r)});
      if (tracer->enabled()) totals.Add(stats);
    }
  }
  const double measured_s = run_timer.ElapsedSeconds();
  SetQueryMetrics(latencies_ms, measured_s, &result);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (tracer->enabled()) SetEngineMetrics(*tracer, totals, &result);
  db.reset();

  // Setup repeats. The second load also serves the reference evaluator:
  // every measured result must match it digest for digest.
  for (int repeat = 1; repeat < kSetupRepeats; ++repeat) {
    Database again;
    load_s.push_back(TimedLoad(ctx, config, &again, &result));
    if (repeat == 1 && load_s.back() >= 0) {
      CheckAgainstReference(ctx, &again, queries, executions, &result);
    }
  }
  result.Set("setup_s", Median(load_s) + warm_s, "s");
  result.Set("setup.warmup_s", warm_s, "s");
  if (tracer->enabled()) SetSpanMetrics(*tracer, rows_loaded, &result);
  return result;
}

}  // namespace tpcds::perfbench
