#ifndef TPCDS_ENGINE_RECOVERY_H_
#define TPCDS_ENGINE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/table.h"
#include "util/result.h"
#include "util/wal.h"

namespace tpcds {

/// Logs data-maintenance mutations through a WalWriter while applying them.
///
/// Protocol per mutation: apply to the table, then append the logical
/// redo record (after-images only) to the WAL. There is no undo: a
/// maintenance run mutates a private fork (RunMaintenanceGeneration), so a
/// failed append leaves the fork ahead of the log and the fork is simply
/// discarded. The writer may be null, which turns every call into the
/// plain table mutation.
class WalSession {
 public:
  /// `writer` may be null; the session does not take ownership.
  explicit WalSession(WalWriter* writer) : writer_(writer) {}

  WalSession(const WalSession&) = delete;
  WalSession& operator=(const WalSession&) = delete;

  /// Marks the start of one refresh operation in the log.
  Status BeginOp(const std::string& op_name);
  /// Writes the commit marker and flushes; the operation is now durable.
  Status CommitOp(const std::string& op_name, int64_t rows_affected);

  /// Logged equivalent of EngineTable::SetValue.
  Status SetCell(EngineTable* table, int64_t row, int col, const Value& v);
  /// Logged equivalent of EngineTable::AppendRowValues.
  Status AppendRowValues(EngineTable* table, const std::vector<Value>& row);
  /// Logged equivalent of EngineTable::AppendRowStrings; the after-image
  /// is read back from storage so the log is exact even after parsing.
  Status AppendRowStrings(EngineTable* table,
                          const std::vector<std::string>& fields);
  /// Logged equivalent of EngineTable::DeleteRows (sorted ascending).
  /// Returns the number of rows removed.
  Result<int64_t> DeleteRows(EngineTable* table,
                             const std::vector<int64_t>& sorted_rows);

  WalWriter* writer() const { return writer_; }

 private:
  /// Appends to the WAL when a writer is attached; no-op otherwise.
  Status Log(WalRecordType type, const std::string& payload);

  /// Logs the row appended last (shared by both append shims).
  Status LogAppendedRow(EngineTable* table);

  WalWriter* writer_;
};

/// What a recovery pass did, for the driver's report and for tests.
struct RecoveryReport {
  int64_t tables_restored = 0;   // tables loaded from the checkpoint
  int64_t records_scanned = 0;   // well-formed WAL records read
  int64_t records_replayed = 0;  // mutation records applied
  int64_t ops_replayed = 0;      // operations with a commit marker
  int64_t ops_discarded = 0;     // uncommitted trailing operations dropped
  uint64_t torn_bytes = 0;       // physical bytes truncated as a torn tail
  double seconds = 0.0;
  std::vector<std::string> replayed_ops;    // op names, commit order
  std::vector<std::string> tables_touched;  // sorted unique table names

  std::string ToString() const;
};

/// Rebuilds a database from durable state: loads the checkpoint in
/// `checkpoint_dir` (Database::LoadCheckpoint — an mmap attach plus a full
/// verification pass), then replays every *committed* operation from the
/// WAL at `wal_path` in LSN order onto the attached tables, whose mutated
/// columns copy-on-write to the heap. Uncommitted trailing records (no commit
/// marker — including a torn tail) are discarded. A missing WAL file is
/// fine (recovery to the checkpoint); a CRC failure inside the committed
/// region, a malformed checkpoint and a WAL of another version are all
/// kDataLoss.
///
/// `db` must be empty. Postcondition (the recovery invariant): the restored
/// database hashes identically — HashDatabaseContent — to an in-memory
/// database that applied exactly the committed operations.
Result<RecoveryReport> Recover(Database* db, const std::string& checkpoint_dir,
                               const std::string& wal_path);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_RECOVERY_H_
