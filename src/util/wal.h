#ifndef TPCDS_UTIL_WAL_H_
#define TPCDS_UTIL_WAL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tpcds {

/// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` chains incremental
/// computations: Crc32(b, nb, Crc32(a, na)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Logical record kinds of the data-maintenance write-ahead log. The util
/// layer only frames records; payload encodings belong to the engine's
/// recovery module (src/engine/recovery.cc).
enum class WalRecordType : uint8_t {
  kOpBegin = 1,    // start of one refresh operation (payload: op name)
  kUpdateCell = 2, // one cell overwrite (after-image)
  kAppendRow = 3,  // one appended row (after-image of every cell)
  kDeleteRows = 4, // clustered delete (row indexes)
  kOpCommit = 5,   // commit marker: the operation is durable
};

struct WalRecord {
  WalRecordType type = WalRecordType::kOpBegin;
  uint64_t lsn = 0;
  std::string payload;
};

/// Append-only, redo-only log of data-maintenance mutations.
///
/// File layout: a 12-byte header ("TPCDSWAL" + u32 version 2), then records
///
///   u32 payload_len | u32 crc | u8 type | u64 lsn | payload bytes
///
/// where crc covers everything after itself (type, lsn, payload). Each
/// record is assigned a monotonically increasing LSN at append time; the
/// commit marker of an operation is flushed so a crash can lose at most
/// the uncommitted tail. Records carry after-images only: rollback is the
/// discard of a maintenance fork, never a log undo, so version 1 logs
/// (which also carried before-images) are refused on read. Fault sites: "wal-append" fires on any record
/// append, "wal-commit" only on commit markers. With torn writes enabled,
/// an injected append fault additionally leaves a partial record prefix
/// in the file — the torn tail recovery must truncate.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates (truncates) the log at `path` and writes the header.
  Status Open(const std::string& path);

  /// Appends one record; returns its LSN. Write-ahead contract: on error
  /// nothing the caller can replay was made durable (except a torn prefix
  /// in torn-write mode, which recovery discards).
  Result<uint64_t> Append(WalRecordType type, const std::string& payload);

  /// Appends a commit marker and flushes the stream, making every record
  /// of the operation durable.
  Result<uint64_t> AppendCommit(const std::string& payload);

  /// Flushes buffered records to the OS.
  Status Sync();
  Status Close();

  /// Simulates torn writes: an injected "wal-append"/"wal-commit" fault
  /// leaves the first half of the encoded record in the file.
  void set_torn_writes(bool torn) { torn_writes_ = torn; }

  uint64_t records_written() const { return records_; }
  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& path() const { return path_; }

 private:
  Result<uint64_t> AppendAt(const char* site, WalRecordType type,
                            const std::string& payload);

  std::ofstream out_;
  std::string path_;
  uint64_t next_lsn_ = 1;
  uint64_t records_ = 0;
  bool torn_writes_ = false;
  bool failed_ = false;
};

/// Everything a scan of the log yields: the well-formed record prefix,
/// plus how many trailing bytes were discarded as a torn tail.
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t torn_bytes = 0;
  bool truncated_tail = false;
};

/// Reads a WAL back. A short or CRC-failing record at the physical end of
/// the file is a torn tail and is truncated (counted in `torn_bytes`); a
/// CRC failure anywhere else is corruption of committed state and yields
/// kDataLoss rather than a silently shortened history.
Result<WalReadResult> ReadWal(const std::string& path);

}  // namespace tpcds

#endif  // TPCDS_UTIL_WAL_H_
