// `throughput`: the paper's execution rules through the driver. The load
// test is the setup; the measured phase is Query Run 1 (S streams through
// the QueryService), then alternately one data-maintenance generation and
// the next query run: QR1, DM, QR2, DM, QR3, ...

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "engine/audit.h"
#include "metric/metric.h"
#include "qgen/qgen.h"
#include "templates/templates.h"
#include "util/stopwatch.h"

namespace tpcds::perfbench {
namespace {

/// Concurrent streams, one worker slot each, parallelism 1 per query.
constexpr int kStreams = 4;
/// Seconds of --seconds per query run. A query run (4 x 99 queries) and
/// the maintenance generation before it take about 5 s on the 4-core
/// reference container; fixing the number of query runs from --seconds
/// keeps a drifting machine speed from changing how many a run measures.
constexpr double kSecondsPerQueryRun = 5.0;

}  // namespace

RunResult RunThroughput(RunContext* ctx) {
  RunResult result;
  Tracer* tracer = &ctx->tracer;
  BenchmarkConfig config = BaseConfig();
  config.streams = kStreams;
  config.service_worker_slots = kStreams;

  std::vector<double> load_s;
  auto db = std::make_unique<Database>();
  load_s.push_back(TimedLoad(ctx, config, db.get(), &result));
  if (load_s.back() < 0) return result;
  const int64_t rows_loaded = db->TotalRows();
  // The driver's query generator (and retry jitter) follow the workload
  // seed; the database stays the fixed one.
  BenchmarkConfig streams_config = config;
  streams_config.seed = ctx->QuerySeed();

  // Measured: QR1, then a maintenance generation before each further
  // query run. At least QR1, DM, QR2.
  FailureReport failures;
  ServiceCounters service;
  std::vector<double> service_latencies_ms;
  std::vector<QueryExecution> executions;
  std::vector<double> t_qr2, t_dm;
  int64_t dm_rows = 0;
  auto query_run = [&](int run, const std::string& phase) {
    ScopedSpan span(tracer, "driver.query_run", -1, run, phase);
    Result<double> t =
        RunQueryRun(streams_config, db.get(), 1 + (run - 1) * kStreams,
                    &executions, &failures, phase, nullptr, &service,
                    &service_latencies_ms);
    result.Check(t.ok(), "throughput " + phase + ": " + t.status().ToString());
    return t.ok() ? *t : 0.0;
  };
  const int query_runs = std::max(
      2, static_cast<int>(std::lround(ctx->seconds / kSecondsPerQueryRun)));
  Stopwatch run_timer;
  const double t_qr1 = query_run(1, "qr1");
  for (int cycle = 1; cycle < query_runs; ++cycle) {
    MaintenanceReport report;
    Stopwatch dm_timer;
    ScopedSpan span(tracer, "maintenance.cycle", -1, cycle);
    Status dm = RunMaintenanceGeneration(db.get(), CycleOptions(*ctx, cycle),
                                         &report);
    span.End();
    t_dm.push_back(dm_timer.ElapsedSeconds());
    AddMaintenanceSpans(tracer, span.handle(), cycle, report);
    result.Check(dm.ok(), "throughput dm" + std::to_string(cycle) + ": " +
                              dm.ToString());
    dm_rows += report.TotalRows();
    t_qr2.push_back(query_run(cycle + 1, "qr" + std::to_string(cycle + 1)));
  }
  const int cycles = query_runs - 1;
  const double measured_s = run_timer.ElapsedSeconds();

  // Every query the driver ran is an attempted operation; those that
  // exhausted their retries are the failed ones.
  std::vector<double> latencies_ms;
  for (const QueryExecution& e : executions) {
    latencies_ms.push_back(e.seconds * 1e3);
  }
  result.attempted +=
      static_cast<int64_t>(executions.size() + failures.failures.size());
  result.failed += static_cast<int64_t>(failures.failures.size());
  for (const QueryFailure& f : failures.failures) {
    result.errors.push_back("throughput " + f.phase + " template " +
                            std::to_string(f.template_id) + ": " + f.error);
  }
  SetQueryMetrics(latencies_ms, measured_s, &result);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");

  const int64_t expected_queries =
      static_cast<int64_t>(query_runs) * kStreams * kQueriesPerRun;
  result.Check(service.Balanced() && service.PoolDrained() &&
                   service.completed == expected_queries &&
                   !ctx->Perturbed("service_counters"),
               "throughput service counters: " + service.ToString() +
                   ", expected " + std::to_string(expected_queries) +
                   " completed");
  const uint64_t live_hash = HashDatabaseContent(*db);
  db.reset();

  // Setup repeats. The second load replays the same maintenance cycles in
  // place (RunDataMaintenance, no fork) to give the expected final state.
  for (int repeat = 1; repeat < kSetupRepeats; ++repeat) {
    Database again;
    load_s.push_back(TimedLoad(ctx, config, &again, &result));
    if (repeat != 1 || load_s.back() < 0) continue;
    Status replayed;
    for (int c = 1; c <= cycles && replayed.ok(); ++c) {
      MaintenanceReport report;
      replayed = RunDataMaintenance(&again, CycleOptions(*ctx, c), &report);
    }
    uint64_t expected = HashDatabaseContent(again);
    if (ctx->Perturbed("throughput_state")) expected ^= 1;
    result.Check(replayed.ok() && expected == live_hash,
                 "throughput: database state after maintenance differs from "
                 "the in-place replay (" + replayed.ToString() + ")");
  }

  const double setup_s = Median(load_s);
  MetricInputs inputs;
  inputs.scale_factor = config.scale_factor;
  inputs.streams = kStreams;
  inputs.t_load_sec = setup_s;
  inputs.t_qr1_sec = t_qr1;
  inputs.t_dm_sec = Median(t_dm);
  inputs.t_qr2_sec = Median(t_qr2);
  result.Set("setup_s", setup_s, "s");
  result.Set("qphds", QphDs(inputs), "queries/h");
  result.Set("t_qr1_s", inputs.t_qr1_sec, "s");
  result.Set("t_qr2_s", inputs.t_qr2_sec, "s");
  result.Set("t_dm_s", inputs.t_dm_sec, "s");
  result.Set("driver.retries", static_cast<double>(failures.total_retries),
             "count");
  result.Set("service.queued_ratio",
             service.submitted > 0 ? static_cast<double>(service.queued) /
                                         static_cast<double>(service.submitted)
                                   : 0.0,
             "ratio");
  result.Set("service.peak_queue_depth",
             static_cast<double>(service.peak_queue_depth), "count");
  result.Set("maintenance.rows_per_cycle",
             static_cast<double>(dm_rows) / cycles, "rows");

  if (tracer->enabled()) {
    // RunQueryRun instantiates inside the driver; time the same
    // instantiations through the benchmark's own calls.
    QueryGenerator qgen(streams_config.seed);
    const std::vector<QueryTemplate>& templates = AllTemplates();
    for (int stream = 1; stream <= query_runs * kStreams; ++stream) {
      for (const QueryTemplate& tmpl : templates) {
        ScopedSpan span(tracer, "qgen.instantiate", -1, stream);
        (void)qgen.Instantiate(tmpl, stream);
      }
    }
    SetSpanMetrics(*tracer, rows_loaded, &result);
  }
  return result;
}

}  // namespace tpcds::perfbench
