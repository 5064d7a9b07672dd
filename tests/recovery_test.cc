// Durability tests: checkpoint round-trip fidelity, WAL framing and torn
// tails, and crash-point recovery for the data-maintenance run — after a
// fault at any WAL or checkpoint site, recovery must rebuild exactly the
// committed prefix, byte-identical (content hash) to the live database.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/audit.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "maintenance/maintenance.h"
#include "schema/schema.h"
#include "util/fault.h"
#include "util/flatfile.h"
#include "util/wal.h"
#include "test_scratch.h"

namespace tpcds {
namespace {

namespace fs = std::filesystem;

constexpr double kSf = 0.01;

/// Loads the TPC-DS database once and checkpoints it once; every test
/// recovers from that shared checkpoint instead of re-serializing it.
class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = kSf;
    Status st = db_->LoadTpcdsData(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ckpt_dir_ = TestScratchPath("recovery_test_ckpt");
    st = db_->SaveCheckpoint(ckpt_dir_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  static void TearDownTestSuite() {
    fs::remove_all(ckpt_dir_);
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override { FaultInjector::Global().Clear(); }

  /// A per-test scratch path under the test tempdir, removed up front.
  static std::string Scratch(const std::string& leaf) {
    return TestScratchPath("recovery_test_" + leaf);
  }

  static void FlipByteNearEnd(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    ASSERT_GT(size, 16);
    f.seekp(size - 9);
    char byte = 0;
    f.seekg(size - 9);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 9);
    f.write(&byte, 1);
  }

  MaintenanceOptions DmOptions() {
    MaintenanceOptions o;
    o.scale_factor = kSf;
    o.refresh_cycle = 1;
    o.dimension_updates = 20;
    return o;
  }

  static Database* db_;
  static std::string ckpt_dir_;
};

Database* RecoveryTest::db_ = nullptr;
std::string RecoveryTest::ckpt_dir_;

TEST_F(RecoveryTest, CheckpointRoundTripIsByteIdentical) {
  Database restored;
  Status st = restored.LoadCheckpoint(ckpt_dir_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(restored.TableNames().size(), db_->TableNames().size());
  for (const std::string& name : db_->TableNames()) {
    const EngineTable* got = restored.FindTable(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(HashTableContent(*got), HashTableContent(*db_->FindTable(name)))
        << name;
  }
  EXPECT_EQ(HashDatabaseContent(restored), HashDatabaseContent(*db_));
}

TEST_F(RecoveryTest, CheckpointTableCorruptionIsDataLoss) {
  std::string dir = Scratch("corrupt_table");
  fs::copy(ckpt_dir_, dir, fs::copy_options::recursive);
  FlipByteNearEnd(dir + "/item.col");
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, CheckpointManifestCorruptionIsDataLoss) {
  std::string dir = Scratch("corrupt_manifest");
  fs::copy(ckpt_dir_, dir, fs::copy_options::recursive);
  FlipByteNearEnd(dir + "/MANIFEST");
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, MissingManifestIsNotFound) {
  std::string dir = Scratch("no_manifest");
  fs::create_directories(dir);
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, CheckpointWriteFaultsLeaveNoManifest) {
  for (const char* spec : {"ckpt-write=nth:3", "ckpt-manifest=nth:1"}) {
    std::string dir = Scratch("ckpt_fault");
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    Status st = db_->SaveCheckpoint(dir);
    FaultInjector::Global().Clear();
    EXPECT_FALSE(st.ok()) << spec;
    // The manifest is written last: a crashed save must never leave a
    // directory that looks loadable.
    EXPECT_FALSE(fs::exists(dir + "/MANIFEST")) << spec;
    fs::remove_all(dir);
  }
}

TEST(WalTest, RoundTripPreservesRecordsAndLsns) {
  std::string path = TestScratchPath("wal_roundtrip.wal");
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "op").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdateCell, "payload-1").ok());
    ASSERT_TRUE(wal.AppendCommit("op-commit").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].type, WalRecordType::kOpBegin);
  EXPECT_EQ(read->records[1].payload, "payload-1");
  EXPECT_EQ(read->records[2].type, WalRecordType::kOpCommit);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[2].lsn, 3u);
  EXPECT_EQ(read->torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  std::string path = TestScratchPath("wal_torn.wal");
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    wal.set_torn_writes(true);
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "op").ok());
    ASSERT_TRUE(FaultInjector::Global().Configure("wal-append=nth:1").ok());
    EXPECT_FALSE(wal.Append(WalRecordType::kUpdateCell, "payload").ok());
    FaultInjector::Global().Clear();
    (void)wal.Close();
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 1u);  // the half-written record is gone
  EXPECT_EQ(read->records[0].type, WalRecordType::kOpBegin);
  EXPECT_TRUE(read->truncated_tail);
  EXPECT_GT(read->torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, MidFileCorruptionIsDataLoss) {
  std::string path = TestScratchPath("wal_corrupt.wal");
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "payload-one").ok());
    ASSERT_TRUE(wal.AppendCommit("payload-two").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Corrupt the FIRST record: damage before the physical tail is committed
  // history gone bad, not a torn write, and must refuse to recover.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(12 + 9);  // header, then past the first record's framing
  f.write("X", 1);
  f.close();
  Result<WalReadResult> read = ReadWal(path);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
      << read.status().ToString();
  std::remove(path.c_str());
}

// The core durability property: inject a fault at every WAL-involved
// crash point, then prove recovery rebuilds exactly the committed prefix.
//
//   live      = checkpointed state + DM run that crashed mid-way
//   recovered = Recover(checkpoint, WAL)
//   expected  = checkpointed state + re-run of only the committed ops
//
// All three must be byte-identical (content hash), and the recovered
// database must still satisfy the schema's PK/FK constraints and the SCD
// single-open-revision invariant.
TEST_F(RecoveryTest, CrashSweepRecoversExactlyTheCommittedPrefix) {
  struct Trial {
    const char* spec;
    bool torn;
  };
  const Trial trials[] = {
      {"wal-append=nth:1", false},  {"wal-append=nth:5", false},
      {"wal-append=nth:20", true},  {"wal-commit=nth:1", false},
      {"wal-commit=nth:2", false},  {"maintenance=nth:2", false},
  };
  for (const Trial& trial : trials) {
    SCOPED_TRACE(trial.spec);
    std::string wal_path = Scratch("sweep.wal");

    Database live;
    ASSERT_TRUE(live.LoadCheckpoint(ckpt_dir_).ok());
    WalWriter wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    wal.set_torn_writes(trial.torn);
    ASSERT_TRUE(FaultInjector::Global().Configure(trial.spec).ok());
    MaintenanceReport report;
    Status dm = RunMaintenanceGeneration(&live, DmOptions(), &report, &wal);
    FaultInjector::Global().Clear();
    (void)wal.Close();
    EXPECT_FALSE(dm.ok());  // every trial crashes mid-run

    Database recovered;
    Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->ops_replayed,
              static_cast<int64_t>(report.operations.size()));
    EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(live));

    // Independent replay: the committed prefix alone, no WAL involved.
    Database expected;
    ASSERT_TRUE(expected.LoadCheckpoint(ckpt_dir_).ok());
    if (!rec->replayed_ops.empty()) {
      MaintenanceOptions prefix = DmOptions();
      prefix.operations = rec->replayed_ops;
      MaintenanceReport prefix_report;
      Status st = RunDataMaintenance(&expected, prefix, &prefix_report);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(expected));

    Result<AuditReport> audit =
        ValidateConstraints(&recovered, TpcdsSchema());
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    EXPECT_EQ(audit->TotalViolations(), 0) << audit->ToString();

    // SCD invariant (Fig. 9): at most one open revision per business key,
    // whether or not the crashed run got to the item update.
    const EngineTable* item = recovered.FindTable("item");
    int end_col = item->ColumnIndex("i_rec_end_date");
    int bk_col = item->ColumnIndex("i_item_id");
    const EngineTable::StringIndex& index =
        const_cast<EngineTable*>(item)->GetOrBuildStringIndex(bk_col);
    for (const auto& [key, rows] : index) {
      int open = 0;
      for (int64_t row : rows) {
        if (item->GetValue(row, end_col).is_null()) ++open;
      }
      EXPECT_EQ(open, 1) << "business key " << key;
    }
    std::remove(wal_path.c_str());
  }
}

TEST_F(RecoveryTest, UncommittedTailIsDiscarded) {
  std::string wal_path = Scratch("uncommitted.wal");
  Database live;
  ASSERT_TRUE(live.LoadCheckpoint(ckpt_dir_).ok());
  // Crash right before the first commit marker: the op's mutations are in
  // the log but never committed, so recovery must ignore all of them.
  WalWriter wal;
  ASSERT_TRUE(wal.Open(wal_path).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("wal-commit=nth:1").ok());
  MaintenanceReport report;
  Status dm = RunMaintenanceGeneration(&live, DmOptions(), &report, &wal);
  FaultInjector::Global().Clear();
  (void)wal.Close();
  EXPECT_FALSE(dm.ok());
  EXPECT_TRUE(report.operations.empty());

  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->ops_replayed, 0);
  EXPECT_EQ(rec->ops_discarded, 1);
  EXPECT_GT(rec->records_scanned, 0);
  EXPECT_EQ(rec->records_replayed, 0);
  EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(*db_));
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, WalOnAndOffConvergeToTheSameState) {
  Database with_wal;
  ASSERT_TRUE(with_wal.LoadCheckpoint(ckpt_dir_).ok());
  std::string wal_path = Scratch("converge.wal");
  WalWriter wal;
  ASSERT_TRUE(wal.Open(wal_path).ok());
  MaintenanceReport report_on;
  Status st = RunDataMaintenance(&with_wal, DmOptions(), &report_on, &wal);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(wal.Close().ok());

  Database without_wal;
  ASSERT_TRUE(without_wal.LoadCheckpoint(ckpt_dir_).ok());
  MaintenanceReport report_off;
  st = RunDataMaintenance(&without_wal, DmOptions(), &report_off);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(report_on.operations.size(), report_off.operations.size());
  EXPECT_EQ(HashDatabaseContent(with_wal),
            HashDatabaseContent(without_wal));

  // And a full replay of that WAL lands on the same state again.
  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->ops_replayed, 12);
  EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(with_wal));
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, OperationsFilterRunsOnlyNamedOps) {
  Database db;
  ASSERT_TRUE(db.LoadCheckpoint(ckpt_dir_).ok());
  MaintenanceOptions options = DmOptions();
  options.operations = {"scd_update:item", "inplace_update:customer"};
  MaintenanceReport report;
  Status st = RunDataMaintenance(&db, options, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(report.operations.size(), 2u);
  EXPECT_EQ(report.operations[0].operation, "scd_update:item");
  EXPECT_EQ(report.operations[1].operation, "inplace_update:customer");
}

TEST_F(RecoveryTest, VersionOneWalIsRefusedCleanly) {
  // Version 1 logs carried before-images; the redo-only reader must
  // refuse them with a clean error rather than misparse their records.
  std::string wal_path = Scratch("v1.wal");
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "op").ok());
    ASSERT_TRUE(wal.AppendCommit("op").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    std::fstream f(wal_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // past the magic: the u32 little-endian version
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, sizeof(v1));
  }
  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss)
      << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("version"), std::string::npos)
      << rec.status().ToString();
  std::remove(wal_path.c_str());
}

// Per-operation atomicity comes from discarding the generation fork alone.
// A generation that fails at operation k publishes exactly operations
// 1..k-1 when a WAL is attached (what recovery replays), and nothing at
// all — live database and report untouched — without one.
TEST_F(RecoveryTest, FailedGenerationPublishesExactlyTheCommittedPrefix) {
  const std::vector<std::string> kOps = {
      "scd_update:item",         "scd_update:store",
      "scd_update:web_site",     "inplace_update:customer",
      "inplace_update:customer_address", "inplace_update:promotion",
      "fact_delete:store",       "fact_delete:catalog",
      "fact_delete:web",         "fact_insert:store",
      "fact_insert:catalog",     "fact_insert:web"};
  for (int k : {1, 5, 9, 12}) {
    SCOPED_TRACE("failing operation " + std::to_string(k));
    const std::string spec = "maintenance=nth:" + std::to_string(k);

    // With a WAL: the committed prefix is published.
    std::string wal_path = Scratch("prefix.wal");
    Database live;
    ASSERT_TRUE(live.LoadCheckpoint(ckpt_dir_).ok());
    WalWriter wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    MaintenanceReport report;
    Status dm = RunMaintenanceGeneration(&live, DmOptions(), &report, &wal);
    FaultInjector::Global().Clear();
    ASSERT_TRUE(wal.Close().ok());
    EXPECT_FALSE(dm.ok());
    ASSERT_EQ(report.operations.size(), static_cast<size_t>(k - 1));
    for (int i = 0; i < k - 1; ++i) {
      EXPECT_EQ(report.operations[i].operation, kOps[i]);
    }
    Database expected;
    ASSERT_TRUE(expected.LoadCheckpoint(ckpt_dir_).ok());
    if (k > 1) {
      MaintenanceOptions prefix = DmOptions();
      prefix.operations.assign(kOps.begin(), kOps.begin() + (k - 1));
      MaintenanceReport prefix_report;
      Status st = RunDataMaintenance(&expected, prefix, &prefix_report);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ(HashDatabaseContent(live), HashDatabaseContent(expected));
    Database recovered;
    Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->ops_replayed, k - 1);
    EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(live));
    std::remove(wal_path.c_str());

    // Without a WAL: nothing is published.
    Database untouched;
    ASSERT_TRUE(untouched.LoadCheckpoint(ckpt_dir_).ok());
    const uint64_t hash_before = HashDatabaseContent(untouched);
    const uint64_t generation_before = untouched.generation();
    MaintenanceReport kept;
    kept.operations.push_back(MaintenanceOpResult{"earlier", 7, 0.5});
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    dm = RunMaintenanceGeneration(&untouched, DmOptions(), &kept);
    FaultInjector::Global().Clear();
    EXPECT_FALSE(dm.ok());
    EXPECT_EQ(HashDatabaseContent(untouched), hash_before);
    EXPECT_EQ(untouched.generation(), generation_before);
    ASSERT_EQ(kept.operations.size(), 1u);
    EXPECT_EQ(kept.operations[0].operation, "earlier");
  }
}

// Two writers save one database into one directory while a third thread
// attaches and hashes whatever is published. Every file is written under
// its own temporary name and renamed into place, so no writer truncates a
// file a reader has mapped: each attach either fails cleanly (nothing
// published yet) or sees the source exactly.
TEST(CheckpointConcurrencyTest, ConcurrentSavesNeverTearAnAttach) {
  Database source;
  ASSERT_TRUE(source
                  .CreateTable("t", {{"k", ColumnType::kIdentifier},
                                     {"name", ColumnType::kVarchar},
                                     {"price", ColumnType::kDecimal}})
                  .ok());
  EngineTable* t = source.FindTable("t");
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i),
                                     "name-" + std::to_string(i * 7919),
                                     std::to_string(i % 100) + ".25"})
                    .ok());
  }
  const uint64_t want = HashDatabaseContent(source);
  const std::string dir = TestScratchPath("concurrent_ckpt");

  constexpr int kSaves = 100;
  std::atomic<int> writers_left{2};
  std::atomic<int> save_failures{0};
  auto writer = [&] {
    for (int i = 0; i < kSaves; ++i) {
      if (!source.SaveCheckpoint(dir).ok()) ++save_failures;
    }
    --writers_left;
  };
  int attached = 0;
  int mismatched = 0;
  std::vector<std::string> unclean;
  auto reader = [&] {
    while (writers_left.load() > 0) {
      Database db;
      Status st = db.AttachCheckpoint(dir);
      if (st.ok()) {
        ++attached;
        if (HashDatabaseContent(db) != want) ++mismatched;
      } else if (st.code() != StatusCode::kNotFound) {
        unclean.push_back(st.ToString());
      }
    }
  };
  std::thread w1(writer);
  std::thread w2(writer);
  std::thread r(reader);
  w1.join();
  w2.join();
  r.join();
  EXPECT_EQ(save_failures.load(), 0);
  EXPECT_EQ(mismatched, 0) << attached << " attaches";
  EXPECT_TRUE(unclean.empty()) << unclean.front();

  // The last save left a complete checkpoint behind, and no temporaries.
  Database last;
  ASSERT_TRUE(last.LoadCheckpoint(dir).ok());
  EXPECT_EQ(HashDatabaseContent(last), want);
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
        << e.path();
  }
  fs::remove_all(dir);
}

TEST(FlatFileFaultTest, WriteFaultSurfacesAndLatches) {
  std::string path = TestScratchPath("flatfile_fault.dat");
  FlatFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append({"1", "a"}).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("io-write=nth:1").ok());
  Status st = writer.Append({"2", "b"});
  FaultInjector::Global().Clear();
  EXPECT_FALSE(st.ok());
  // The failure latches: an ENOSPC-style mid-table error must not be
  // masked by later writes or a clean-looking close.
  EXPECT_FALSE(writer.Append({"3", "c"}).ok());
  EXPECT_FALSE(writer.Close().ok());
  std::remove(path.c_str());
}

TEST(FlatFileFaultTest, CloseFaultSurfaces) {
  std::string path = TestScratchPath("flatfile_close_fault.dat");
  FlatFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append({"1", "a"}).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("io-close=nth:1").ok());
  EXPECT_FALSE(writer.Close().ok());
  FaultInjector::Global().Clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpcds
