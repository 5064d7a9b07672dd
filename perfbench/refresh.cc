// `refresh`: writes beside reads. Setup loads, checkpoints and attaches the
// checkpoint (mmap), so maintenance mutates copy-on-write from mapped
// storage. Each reader session runs its template mix once, untimed; then
// the bench thread runs maintenance generations back to back through one
// WAL while the readers loop over the mix on fewer worker slots than
// readers. The run ends with Recover.

#include <atomic>
#include <filesystem>
#include <iterator>
#include <latch>
#include <thread>

#include "bench.h"
#include "engine/audit.h"
#include "engine/recovery.h"
#include "qgen/qgen.h"
#include "service/service.h"
#include "templates/templates.h"
#include "util/stopwatch.h"
#include "util/wal.h"

namespace tpcds::perfbench {
namespace {

constexpr int kReaders = 3;
constexpr int kReaderSlots = 2;
/// Cycles per run at least, so the cycle median has samples to work with.
constexpr int kMinCycles = 5;
/// Hard stop for the measured phase, whatever the floors still want.
constexpr double kMaxMeasuredSeconds = 90.0;
/// Fact-scanning templates the readers loop over: store, catalog and web
/// channels, each scanning a fact table the maintenance cycles rewrite.
constexpr int kReaderMix[] = {1, 17, 22, 40, 46, 58, 62, 76, 94, 96};
/// Bind sets of the mix per reader. A 15 s run completes 110-150 of a
/// reader's 160 statements, so each runs at most once and a run's mean
/// cost does not hinge on a handful of bind values.
constexpr int kReaderBindSets = 16;

/// Load, SaveCheckpoint into `dir`, drop the heap copy, AttachCheckpoint.
/// Returns the attached database (nullptr on failure) and its wall time.
std::unique_ptr<Database> SetUp(RunContext* ctx, const BenchmarkConfig& config,
                                const std::string& dir, RunResult* result,
                                double* seconds, int64_t* rows_loaded) {
  Tracer* tracer = &ctx->tracer;
  Stopwatch timer;
  {
    Database loaded;
    if (TimedLoad(ctx, config, &loaded, result) < 0) return nullptr;
    *rows_loaded = loaded.TotalRows();
    std::filesystem::remove_all(dir);
    Status saved = [&] {
      ScopedSpan span(tracer, "checkpoint.save");
      return loaded.SaveCheckpoint(dir);
    }();
    result->Check(saved.ok(), "refresh checkpoint: " + saved.ToString());
    if (!saved.ok()) return nullptr;
  }
  auto db = std::make_unique<Database>();
  Status attached = [&] {
    ScopedSpan span(tracer, "checkpoint.attach");
    return db->AttachCheckpoint(dir);
  }();
  result->Check(attached.ok(), "refresh attach: " + attached.ToString());
  if (!attached.ok()) return nullptr;
  *seconds = timer.ElapsedSeconds();
  return db;
}

/// One reader statement as the client saw it.
struct ReaderSample {
  bool completed = false;
  double total_ms = 0.0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::string error;
};

}  // namespace

RunResult RunRefresh(RunContext* ctx) {
  RunResult result;
  Tracer* tracer = &ctx->tracer;
  BenchmarkConfig config = BaseConfig();
  const std::string ckpt_dir = ctx->workdir + "/checkpoint";
  const std::string wal_path = ctx->workdir + "/maintenance.wal";

  std::vector<double> setup_s(1, 0.0);
  int64_t rows_loaded = 0;
  std::unique_ptr<Database> db =
      SetUp(ctx, config, ckpt_dir, &result, &setup_s[0], &rows_loaded);
  if (db == nullptr) return result;
  const uint64_t checkpoint_bytes = DirectoryBytes(ckpt_dir);

  // Reader statements: the fixed template mix under kReaderBindSets bind
  // sets per reader, instantiated before the measured phase.
  QueryGenerator qgen(ctx->QuerySeed());
  std::vector<std::vector<std::string>> reader_sql(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    for (int iteration = 0; iteration < kReaderBindSets; ++iteration) {
      for (int id : kReaderMix) {
        Result<std::string> sql = [&] {
          ScopedSpan span(tracer, "qgen.instantiate", -1, id);
          return qgen.Instantiate(*FindTemplate(id), /*stream=*/r + 1,
                                  iteration);
        }();
        result.Check(sql.ok(), "refresh qgen: " + sql.status().ToString());
        if (!sql.ok()) return result;
        reader_sql[static_cast<size_t>(r)].push_back(*sql);
      }
    }
  }

  WalWriter wal;
  Status opened = wal.Open(wal_path);
  result.Check(opened.ok(), "refresh wal: " + opened.ToString());
  if (!opened.ok()) return result;
  auto provider = std::make_unique<DataFacadeProvider>();
  provider->Publish(db->Snapshot());

  std::vector<std::vector<ReaderSample>> samples(kReaders);
  std::vector<double> cycle_ms;
  int64_t cycle_rows = 0;
  ServiceCounters counters;
  double measured_s = 0.0;
  double warm_s = 0.0;
  std::vector<std::string> warm_errors;
  {
    ServiceConfig service_config;
    service_config.worker_slots = kReaderSlots;
    service_config.max_queue_depth = 0;  // closed loop: at most kReaders wait
    QueryService service(service_config, provider.get());
    std::atomic<bool> stop{false};
    std::atomic<int64_t> completed{0};
    std::latch warm(kReaders);
    std::latch go(1);
    warm_errors.resize(kReaders);
    Stopwatch warm_timer;
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      SessionOptions options;
      options.tenant = "reader-" + std::to_string(r);
      Session session = service.OpenSession(options);
      readers.emplace_back([&, r, session] {
        const auto reader = static_cast<size_t>(r);
        const std::vector<std::string>& pool = reader_sql[reader];
        std::vector<ReaderSample>& out = samples[reader];
        // Warm-up: one untimed pass over the mix faults in the mapped
        // checkpoint pages and fills the lazy derived state, one-off costs
        // that would otherwise land on the first measured statements.
        for (size_t k = 0; k < std::size(kReaderMix); ++k) {
          QueryOutcome outcome =
              session.Execute(pool[(k + reader) % pool.size()]);
          if (outcome.disposition != QueryDisposition::kCompleted) {
            warm_errors[reader] = outcome.status.ToString();
          }
        }
        warm.count_down();
        go.wait();
        for (size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
          auto id = static_cast<int64_t>(reader * 1000000 + k);
          ScopedSpan span(tracer, "service.execute", -1, id);
          Stopwatch timer;
          QueryOutcome outcome =
              session.Execute(pool[(k + reader) % pool.size()]);
          ReaderSample sample;
          sample.total_ms = timer.ElapsedSeconds() * 1e3;
          span.End();
          sample.completed =
              outcome.disposition == QueryDisposition::kCompleted;
          sample.queue_ms = outcome.queue_ms;
          sample.exec_ms = outcome.exec_ms;
          if (!sample.completed) sample.error = outcome.status.ToString();
          if (span.handle() >= 0) {
            int64_t start = tracer->StartNs(span.handle());
            int64_t granted =
                start + static_cast<int64_t>(outcome.queue_ms * 1e6);
            tracer->Add("service.queue", span.handle(), id, start, granted);
            tracer->Add("service.exec", span.handle(), id, granted,
                        granted + static_cast<int64_t>(outcome.exec_ms * 1e6));
          }
          if (sample.completed) completed.fetch_add(1);
          out.push_back(std::move(sample));
        }
      });
    }

    // The bench thread: maintenance generations back to back, once every
    // reader is warm.
    warm.wait();
    warm_s = warm_timer.ElapsedSeconds();
    go.count_down();
    Stopwatch run_timer;
    for (int cycle = 1;; ++cycle) {
      MaintenanceReport report;
      Stopwatch cycle_timer;
      ScopedSpan span(tracer, "maintenance.cycle", -1, cycle);
      Status st = RunMaintenanceGeneration(
          db.get(), CycleOptions(*ctx, cycle), &report, &wal, provider.get());
      span.End();
      cycle_ms.push_back(cycle_timer.ElapsedSeconds() * 1e3);
      AddMaintenanceSpans(tracer, span.handle(), cycle, report);
      cycle_rows += report.TotalRows();
      result.Check(st.ok(), "refresh cycle " + std::to_string(cycle) + ": " +
                                st.ToString());
      double elapsed = run_timer.ElapsedSeconds();
      if (!st.ok() || elapsed >= kMaxMeasuredSeconds) break;
      if (elapsed >= ctx->seconds && cycle >= kMinCycles &&
          completed.load() >= kMinQuerySamples) {
        break;
      }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    measured_s = run_timer.ElapsedSeconds();
    counters = service.Counters();
  }
  Status closed = wal.Close();
  result.Check(closed.ok(), "refresh wal close: " + closed.ToString());
  std::error_code ec;
  const uint64_t wal_bytes = std::filesystem::file_size(wal_path, ec);
  result.Check(!ec, "refresh wal size: " + ec.message());
  const double wal_records = static_cast<double>(wal.records_written());

  for (const std::string& error : warm_errors) {
    result.Check(error.empty(), "refresh reader warm-up: " + error);
  }
  std::vector<double> latencies_ms, queue_ms, exec_ms;
  // Statements submitted: the warm-up passes plus every measured one.
  auto queries = static_cast<int64_t>(kReaders * std::size(kReaderMix));
  for (const std::vector<ReaderSample>& reader : samples) {
    for (const ReaderSample& s : reader) {
      ++queries;
      result.Check(s.completed, "refresh reader: " + s.error);
      if (!s.completed) continue;
      latencies_ms.push_back(s.total_ms);
      queue_ms.push_back(s.queue_ms);
      exec_ms.push_back(s.exec_ms);
    }
  }
  SetQueryMetrics(latencies_ms, measured_s, &result);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Check(counters.Balanced() && counters.PoolDrained() &&
                   counters.submitted == queries &&
                   !ctx->Perturbed("service_counters"),
               "refresh service counters: " + counters.ToString() + ", " +
                   std::to_string(queries) + " statements submitted");

  // Recovery: checkpoint + WAL must rebuild exactly the live state.
  const uint64_t live_hash = HashDatabaseContent(*db);
  double recovery_ms = 0.0;
  int64_t records_replayed = 0;
  {
    Database recovered;
    Stopwatch timer;
    Result<RecoveryReport> report = [&] {
      ScopedSpan span(tracer, "recovery.recover");
      return Recover(&recovered, ckpt_dir, wal_path);
    }();
    recovery_ms = timer.ElapsedSeconds() * 1e3;
    uint64_t recovered_hash = HashDatabaseContent(recovered);
    if (ctx->Perturbed("recovery")) recovered_hash ^= 1;
    result.Check(report.ok() && recovered_hash == live_hash,
                 "refresh: Recover(checkpoint, WAL) differs from the live "
                 "database (" + report.status().ToString() + ")");
    if (report.ok()) records_replayed = report->records_replayed;
  }
  if (tracer->enabled()) {
    // The deep checkpoint read alone, so replay time can be separated.
    Database loaded;
    ScopedSpan span(tracer, "checkpoint.load");
    (void)loaded.LoadCheckpoint(ckpt_dir);
  }
  provider.reset();
  db.reset();
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove(wal_path);

  // Setup repeats. The second replays the cycles in place (no fork, no
  // WAL) to give the expected final state.
  const int cycles = static_cast<int>(cycle_ms.size());
  for (int repeat = 1; repeat < kSetupRepeats; ++repeat) {
    const std::string dir = ckpt_dir + "-" + std::to_string(repeat);
    double seconds = 0.0;
    int64_t rows = 0;
    std::unique_ptr<Database> again =
        SetUp(ctx, config, dir, &result, &seconds, &rows);
    if (again != nullptr) setup_s.push_back(seconds);
    if (again != nullptr && repeat == 1) {
      Status replayed;
      for (int c = 1; c <= cycles && replayed.ok(); ++c) {
        MaintenanceReport report;
        replayed = RunDataMaintenance(again.get(), CycleOptions(*ctx, c),
                                      &report);
      }
      uint64_t expected = HashDatabaseContent(*again);
      if (ctx->Perturbed("refresh_state")) expected ^= 1;
      result.Check(replayed.ok() && expected == live_hash,
                   "refresh: database state after the cycles differs from "
                   "the in-place replay (" + replayed.ToString() + ")");
    }
    again.reset();
    std::filesystem::remove_all(dir);
  }

  double cycle_total_ms = 0.0;
  for (double ms : cycle_ms) cycle_total_ms += ms;
  result.Set("setup_s", Median(setup_s) + warm_s, "s");
  result.Set("setup.warmup_s", warm_s, "s");
  result.Set("refresh_cycle_p50_ms", Median(cycle_ms), "ms");
  result.Set("refresh_rows_per_s",
             static_cast<double>(cycle_rows) / cycle_total_ms * 1e3, "rows/s");
  result.Set("refresh_cycles", static_cast<double>(cycles), "count");
  result.Set("recovery_s", recovery_ms / 1e3, "s");
  result.Set("service.queue_ms_p50", Percentile(queue_ms, 50), "ms");
  result.Set("service.queue_ms_p95", Percentile(queue_ms, 95), "ms");
  result.Set("service.exec_ms_p50", Percentile(exec_ms, 50), "ms");
  result.Set("service.queued_ratio",
             counters.submitted > 0
                 ? static_cast<double>(counters.queued) /
                       static_cast<double>(counters.submitted)
                 : 0.0,
             "ratio");
  result.Set("service.peak_queue_depth",
             static_cast<double>(counters.peak_queue_depth), "count");
  result.Set("maintenance.rows_per_cycle",
             static_cast<double>(cycle_rows) / cycles, "rows");
  result.Set("wal.bytes_per_row", static_cast<double>(wal_bytes) / cycle_rows,
             "B/row");
  result.Set("wal.records_per_row", wal_records / cycle_rows, "records/row");
  result.Set("checkpoint.bytes", static_cast<double>(checkpoint_bytes), "B");
  result.Set("recovery.records_replayed", static_cast<double>(records_replayed),
             "records");
  if (tracer->enabled()) {
    SetSpanMetrics(*tracer, rows_loaded, &result);
    result.Set("recovery.replay_ms",
               recovery_ms - result.metrics["checkpoint.load_ms"].value, "ms");
  }
  return result;
}

}  // namespace tpcds::perfbench
