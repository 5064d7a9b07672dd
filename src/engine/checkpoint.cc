#include "engine/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stats.h"
#include "util/bytes.h"
#include "util/fault.h"
#include "util/mmap_file.h"
#include "util/wal.h"

namespace tpcds {
namespace {

// Mapped columns read int64/u64 payloads in place, so the on-disk byte
// order must be the host's.
static_assert(std::endian::native == std::endian::little,
              "checkpoint v2 assumes a little-endian host");

constexpr char kTableMagic[8] = {'T', 'P', 'C', 'D', 'S', 'T', 'B', '2'};
constexpr char kManifestMagic[8] = {'T', 'P', 'C', 'D', 'S', 'C', 'K', '2'};
constexpr const char* kManifestName = "MANIFEST";
// Optional statistics sidecar (engine/stats.h): per-table NDV sketches,
// histograms and min/max, so a restored or attached checkpoint starts with
// warm optimizer statistics instead of re-scanning every table.
constexpr char kStatsMagic[8] = {'T', 'P', 'C', 'D', 'S', 'S', 'T', '1'};
constexpr const char* kStatsName = "STATS";

constexpr size_t kSectionAlign = 64;
constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;  // magic, cols, rows, dir crc
// type, encoding, nulls_off, data_off, aux_off, arena_off, arena_len,
// param0, param1, crc. Widened from the pre-encoding 37-byte entry; old
// files fail the directory CRC and load as clean kDataLoss.
constexpr size_t kDirEntrySize = 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4;

/// Publishes `contents` at `path` via a uniquely named temporary file in
/// the same directory plus rename. Each writer gets its own inode, so a
/// concurrent writer never truncates or rewrites a file another writer
/// published — which a reader may already have mapped.
Status WriteFileAtomically(const std::string& path,
                           const std::string& contents) {
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) {
    return Status::IoError("checkpoint: cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  // mkstemp creates owner-only files; published checkpoints stay
  // readable by other processes, as files created by open(2) are.
  ::fchmod(fd, 0644);
  const char* p = contents.data();
  size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::close(fd) != 0 || left > 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("checkpoint: short write to " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IoError("checkpoint: rename " + tmp + " -> " + path +
                           ": " + err);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("checkpoint: cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("checkpoint: read failed: " + path);
  return data;
}

size_t AlignUp(size_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

void PatchU32(std::string* out, size_t pos, uint32_t v) {
  std::string bytes;
  PutU32(&bytes, v);
  out->replace(pos, 4, bytes);
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Per-column section placement, shared by the writer and the reader.
/// Section meaning depends on the encoding:
///   plain numeric  data = int64 × rows
///   plain string   data = u64 offsets × (rows+1), arena = string bytes
///   dict (string)  data = u32 codes × rows, aux = u64 dict offsets ×
///                  (param0+1), arena = dictionary bytes, param0 = ndv
///   rle (numeric)  data = int64 run values × param0, aux = u32 cumulative
///                  run ends × param0, param0 = runs
///   for (numeric)  data = u64 packed words (incl. one padding word),
///                  param0 = bit-cast base, param1 = bit width
struct ColumnLayout {
  ColumnType type = ColumnType::kInteger;
  ColEncoding encoding = ColEncoding::kPlain;
  uint64_t nulls_off = 0;
  uint64_t data_off = 0;
  uint64_t aux_off = 0;    // dict offsets / rle ends, else 0
  uint64_t arena_off = 0;  // plain-string / dict arena, else 0
  uint64_t arena_len = 0;
  uint64_t param0 = 0;
  uint64_t param1 = 0;
  uint32_t section_crc = 0;

  bool is_string() const {
    return type == ColumnType::kChar || type == ColumnType::kVarchar;
  }
  /// Byte length of the data section (per the table above).
  uint64_t data_len(uint64_t rows) const {
    switch (encoding) {
      case ColEncoding::kPlain:
        return is_string() ? (rows + 1) * sizeof(uint64_t)
                           : rows * sizeof(int64_t);
      case ColEncoding::kDict:
        return rows * sizeof(uint32_t);
      case ColEncoding::kRle:
        return param0 * sizeof(int64_t);
      case ColEncoding::kFor:
        return ((rows * param1 + 63) / 64 + 1) * sizeof(uint64_t);
    }
    return 0;
  }
  /// Plain-string and dictionary columns carry a string arena.
  bool has_arena() const {
    return encoding == ColEncoding::kDict ||
           (encoding == ColEncoding::kPlain && is_string());
  }
  /// Byte length of the aux section (0 when the encoding has none).
  uint64_t aux_len() const {
    switch (encoding) {
      case ColEncoding::kDict:
        return (param0 + 1) * sizeof(uint64_t);
      case ColEncoding::kRle:
        return param0 * sizeof(uint32_t);
      default:
        return 0;
    }
  }
};

uint64_t ArenaLength(const StorageColumn& col) {
  if (col.encoding() == ColEncoding::kDict) {
    return col.DictOffsets()[col.DictNdv()];
  }
  uint64_t total = 0;
  for (size_t r = 0; r < col.size(); ++r) total += col.Str(r).size();
  return total;
}

/// CRC over one column's sections — nulls, data, aux, arena — back to
/// back, padding excluded. `data` is the whole table file.
uint32_t SectionCrc(const char* data, const ColumnLayout& l, uint64_t rows) {
  uint32_t crc = Crc32(data + l.nulls_off, rows);
  crc = Crc32(data + l.data_off, l.data_len(rows), crc);
  if (l.aux_len() > 0) crc = Crc32(data + l.aux_off, l.aux_len(), crc);
  if (l.has_arena()) crc = Crc32(data + l.arena_off, l.arena_len, crc);
  return crc;
}

std::string EncodeTableFile(const EngineTable& table) {
  const size_t rows = static_cast<size_t>(table.num_rows());
  const size_t cols = table.num_columns();

  // Pass 1: place the sections. The file persists each column's *current*
  // representation — encoded columns write their encoded sections.
  std::vector<ColumnLayout> layout(cols);
  size_t off = kHeaderSize + cols * kDirEntrySize;
  for (size_t c = 0; c < cols; ++c) {
    const StorageColumn& col = table.column(c);
    ColumnLayout& l = layout[c];
    l.type = col.type();
    l.encoding = col.encoding();
    switch (l.encoding) {
      case ColEncoding::kPlain:
        break;
      case ColEncoding::kDict:
        l.param0 = col.DictNdv();
        break;
      case ColEncoding::kRle:
        l.param0 = col.RleRuns();
        break;
      case ColEncoding::kFor:
        l.param0 = static_cast<uint64_t>(col.ForBase());
        l.param1 = col.ForWidth();
        break;
    }
    l.nulls_off = off = AlignUp(off);
    off += rows;
    l.data_off = off = AlignUp(off);
    off += l.data_len(rows);
    if (l.aux_len() > 0) {
      l.aux_off = off = AlignUp(off);
      off += l.aux_len();
    }
    if (l.has_arena()) {
      l.arena_len = ArenaLength(col);
      l.arena_off = off = AlignUp(off);
      off += l.arena_len;
    }
  }

  // Pass 2: header, directory (CRCs back-patched), then the sections.
  std::string out;
  out.reserve(off);
  out.append(kTableMagic, sizeof(kTableMagic));
  PutU32(&out, static_cast<uint32_t>(cols));
  PutU64(&out, static_cast<uint64_t>(rows));
  const size_t dir_crc_pos = out.size();
  PutU32(&out, 0);
  const size_t dir_pos = out.size();
  std::vector<size_t> crc_pos(cols);
  for (size_t c = 0; c < cols; ++c) {
    out.push_back(static_cast<char>(layout[c].type));
    out.push_back(static_cast<char>(layout[c].encoding));
    PutU64(&out, layout[c].nulls_off);
    PutU64(&out, layout[c].data_off);
    PutU64(&out, layout[c].aux_off);
    PutU64(&out, layout[c].arena_off);
    PutU64(&out, layout[c].arena_len);
    PutU64(&out, layout[c].param0);
    PutU64(&out, layout[c].param1);
    crc_pos[c] = out.size();
    PutU32(&out, 0);
  }
  for (size_t c = 0; c < cols; ++c) {
    const StorageColumn& col = table.column(c);
    const ColumnLayout& l = layout[c];
    out.resize(l.nulls_off, '\0');
    out.append(reinterpret_cast<const char*>(col.nulls().data()), rows);
    out.resize(l.data_off, '\0');
    switch (l.encoding) {
      case ColEncoding::kPlain:
        if (col.is_string()) {
          uint64_t run = 0;
          PutU64(&out, run);
          for (size_t r = 0; r < rows; ++r) {
            run += col.Str(r).size();
            PutU64(&out, run);
          }
        } else {
          out.append(reinterpret_cast<const char*>(col.nums().data()),
                     rows * sizeof(int64_t));
        }
        break;
      case ColEncoding::kDict:
        out.append(reinterpret_cast<const char*>(col.DictCodes()),
                   rows * sizeof(uint32_t));
        break;
      case ColEncoding::kRle:
        out.append(reinterpret_cast<const char*>(col.RleValues()),
                   l.param0 * sizeof(int64_t));
        break;
      case ColEncoding::kFor:
        out.append(reinterpret_cast<const char*>(col.ForWords()),
                   l.data_len(rows));
        break;
    }
    if (l.aux_len() > 0) {
      out.resize(l.aux_off, '\0');
      if (l.encoding == ColEncoding::kDict) {
        out.append(reinterpret_cast<const char*>(col.DictOffsets()),
                   l.aux_len());
      } else {
        out.append(reinterpret_cast<const char*>(col.RleEnds()),
                   l.aux_len());
      }
    }
    if (l.has_arena()) {
      out.resize(l.arena_off, '\0');
      if (l.encoding == ColEncoding::kDict) {
        out.append(col.DictArena(), l.arena_len);
      } else {
        for (size_t r = 0; r < rows; ++r) {
          std::string_view s = col.Str(r);
          out.append(s.data(), s.size());
        }
      }
    }
    PatchU32(&out, crc_pos[c], SectionCrc(out.data(), l, rows));
  }
  // Directory CRC covers the final directory bytes, section CRCs included.
  PatchU32(&out, dir_crc_pos,
           Crc32(out.data() + dir_pos, cols * kDirEntrySize));
  return out;
}

Status WriteTableFile(const EngineTable& table, const std::string& path,
                      uint32_t* file_crc) {
  TPCDS_FAULT_POINT("ckpt-write");
  std::string encoded = EncodeTableFile(table);
  *file_crc = Crc32(encoded.data(), encoded.size());
  return WriteFileAtomically(path, encoded);
}

Result<ColumnType> DecodeColumnType(uint8_t raw, const std::string& ctx) {
  if (raw > static_cast<uint8_t>(ColumnType::kVarchar)) {
    return Status::DataLoss(ctx + ": invalid column type " +
                            std::to_string(raw));
  }
  return static_cast<ColumnType>(raw);
}

/// One table's manifest entry.
struct ManifestTable {
  std::string name;
  uint64_t rows = 0;
  std::vector<EngineTable::ColumnMeta> columns;
  uint32_t file_crc = 0;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<ManifestTable> tables;
};

Result<Manifest> ReadManifest(const std::string& dir) {
  TPCDS_ASSIGN_OR_RETURN(std::string raw,
                         ReadWholeFile(dir + "/" + kManifestName));
  if (raw.size() < 12 || raw.compare(0, 8, kManifestMagic, 8) != 0) {
    return Status::DataLoss("checkpoint manifest: truncated or bad magic");
  }
  const std::string body = raw.substr(8, raw.size() - 12);
  if (Crc32(body.data(), body.size()) != LoadU32(raw.data() + raw.size() - 4)) {
    return Status::DataLoss("checkpoint manifest: CRC mismatch");
  }
  ByteReader reader(body, "checkpoint manifest");
  Manifest manifest;
  TPCDS_ASSIGN_OR_RETURN(manifest.generation, reader.ReadU64());
  TPCDS_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32());
  manifest.tables.reserve(table_count);
  for (uint32_t t = 0; t < table_count; ++t) {
    ManifestTable entry;
    TPCDS_ASSIGN_OR_RETURN(entry.name, reader.ReadLenString());
    TPCDS_ASSIGN_OR_RETURN(entry.rows, reader.ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint32_t cols, reader.ReadU32());
    entry.columns.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      EngineTable::ColumnMeta meta;
      TPCDS_ASSIGN_OR_RETURN(meta.name, reader.ReadLenString());
      TPCDS_ASSIGN_OR_RETURN(uint8_t raw_type, reader.ReadU8());
      TPCDS_ASSIGN_OR_RETURN(
          meta.type, DecodeColumnType(raw_type, "checkpoint manifest"));
      entry.columns.push_back(std::move(meta));
    }
    TPCDS_ASSIGN_OR_RETURN(entry.file_crc, reader.ReadU32());
    manifest.tables.push_back(std::move(entry));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("checkpoint manifest: trailing bytes");
  }
  return manifest;
}

/// Parses and validates one table file's header + directory against its
/// manifest entry. `data`/`size` may come from a heap read or an mmap;
/// only header and directory bytes are touched. Fills `layout`.
Status ParseTableHeader(const char* data, size_t size,
                        const ManifestTable& entry,
                        std::vector<ColumnLayout>* layout) {
  const std::string ctx = "checkpoint table " + entry.name;
  if (size < kHeaderSize ||
      std::memcmp(data, kTableMagic, sizeof(kTableMagic)) != 0) {
    return Status::DataLoss(ctx + ": truncated or bad magic");
  }
  const uint32_t cols = LoadU32(data + 8);
  const uint64_t rows = LoadU64(data + 12);
  if (cols != entry.columns.size() || rows != entry.rows) {
    return Status::DataLoss(ctx + ": header disagrees with manifest");
  }
  const uint32_t dir_crc = LoadU32(data + 20);
  const size_t dir_len = static_cast<size_t>(cols) * kDirEntrySize;
  if (size < kHeaderSize + dir_len) {
    return Status::DataLoss(ctx + ": truncated directory");
  }
  if (Crc32(data + kHeaderSize, dir_len) != dir_crc) {
    return Status::DataLoss(ctx + ": directory CRC mismatch");
  }
  layout->resize(cols);
  const char* p = data + kHeaderSize;
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnLayout& l = (*layout)[c];
    const std::string col_ctx = ctx + ": column " + std::to_string(c);
    TPCDS_ASSIGN_OR_RETURN(
        l.type, DecodeColumnType(static_cast<uint8_t>(*p), ctx));
    const uint8_t raw_enc = static_cast<uint8_t>(p[1]);
    if (raw_enc > static_cast<uint8_t>(ColEncoding::kFor)) {
      return Status::DataLoss(col_ctx + ": invalid encoding " +
                              std::to_string(raw_enc));
    }
    l.encoding = static_cast<ColEncoding>(raw_enc);
    l.nulls_off = LoadU64(p + 2);
    l.data_off = LoadU64(p + 10);
    l.aux_off = LoadU64(p + 18);
    l.arena_off = LoadU64(p + 26);
    l.arena_len = LoadU64(p + 34);
    l.param0 = LoadU64(p + 42);
    l.param1 = LoadU64(p + 50);
    l.section_crc = LoadU32(p + 58);
    p += kDirEntrySize;
    if (l.type != entry.columns[c].type) {
      return Status::DataLoss(col_ctx + " type disagrees with manifest");
    }
    // Encoding / type compatibility plus parameter sanity — the section
    // lengths below are computed from these parameters, so reject
    // nonsense before using them.
    switch (l.encoding) {
      case ColEncoding::kPlain:
        break;
      case ColEncoding::kDict:
        if (!l.is_string()) {
          return Status::DataLoss(col_ctx + ": dict on non-string column");
        }
        if (l.param0 > UINT32_MAX || (rows > 0 && l.param0 == 0)) {
          return Status::DataLoss(col_ctx + ": invalid dictionary size");
        }
        break;
      case ColEncoding::kRle:
        if (l.is_string()) {
          return Status::DataLoss(col_ctx + ": rle on string column");
        }
        if (rows > UINT32_MAX || l.param0 > rows || (rows > 0 && l.param0 == 0)) {
          return Status::DataLoss(col_ctx + ": invalid run count");
        }
        break;
      case ColEncoding::kFor:
        if (l.is_string()) {
          return Status::DataLoss(col_ctx + ": for on string column");
        }
        if (l.param1 > 64) {
          return Status::DataLoss(col_ctx + ": invalid bit width");
        }
        break;
    }
    const uint64_t data_len = l.data_len(rows);
    const uint64_t aux_len = l.aux_len();
    // Bounds + alignment: mapped readers dereference these offsets
    // directly, so reject anything that escapes the file or would
    // misalign an int64 load.
    if (l.nulls_off % kSectionAlign != 0 || l.data_off % kSectionAlign != 0 ||
        l.nulls_off + rows > size || l.data_off + data_len > size ||
        (aux_len > 0 &&
         (l.aux_off % kSectionAlign != 0 || l.aux_off + aux_len > size)) ||
        (l.has_arena() &&
         (l.arena_off % kSectionAlign != 0 ||
          l.arena_off + l.arena_len > size))) {
      return Status::DataLoss(col_ctx + " sections out of bounds");
    }
    if (l.encoding == ColEncoding::kPlain && l.is_string()) {
      // O(1) consistency probe: the offsets array must end exactly at the
      // arena length, or mapped string_views could run past the arena.
      if (LoadU64(data + l.data_off + rows * sizeof(uint64_t)) !=
          l.arena_len) {
        return Status::DataLoss(col_ctx + " offsets/arena length mismatch");
      }
    }
    if (l.encoding == ColEncoding::kDict) {
      // Same probe on the dictionary: last offset == arena length.
      if (LoadU64(data + l.aux_off + l.param0 * sizeof(uint64_t)) !=
          l.arena_len) {
        return Status::DataLoss(col_ctx + " dict offsets/arena mismatch");
      }
    }
    if (l.encoding == ColEncoding::kRle && rows > 0) {
      // O(1) probe: the cumulative run ends must finish exactly at rows.
      if (LoadU32(data + l.aux_off + (l.param0 - 1) * sizeof(uint32_t)) !=
          rows) {
        return Status::DataLoss(col_ctx + " run ends do not cover rows");
      }
    }
  }
  return Status::OK();
}

/// True when `count + 1` u64 offsets at `base` start at 0 and never
/// decrease or pass `limit` — every string they delimit lies in the arena.
bool OffsetsMonotonic(const char* base, uint64_t count, uint64_t limit) {
  uint64_t prev = LoadU64(base);
  if (prev != 0) return false;
  for (uint64_t i = 1; i <= count; ++i) {
    const uint64_t next = LoadU64(base + i * sizeof(uint64_t));
    if (next < prev || next > limit) return false;
    prev = next;
  }
  return true;
}

/// The full verification pass of LoadCheckpoint over one table file whose
/// header and directory ParseTableHeader already accepted: every section
/// CRC, then the structural invariants mapped accessors rely on but the
/// O(1) header probes cannot see. A file that passes serves every row of
/// every column without an out-of-bounds read.
Status VerifySections(const char* data, const ManifestTable& entry,
                      const std::vector<ColumnLayout>& layout) {
  const uint64_t rows = entry.rows;
  for (size_t c = 0; c < layout.size(); ++c) {
    const ColumnLayout& l = layout[c];
    const std::string col_ctx =
        "checkpoint table " + entry.name + " column " + std::to_string(c);
    if (SectionCrc(data, l, rows) != l.section_crc) {
      return Status::DataLoss(col_ctx + ": section CRC mismatch");
    }
    switch (l.encoding) {
      case ColEncoding::kPlain:
        if (l.is_string() &&
            !OffsetsMonotonic(data + l.data_off, rows, l.arena_len)) {
          return Status::DataLoss(col_ctx + ": non-monotonic offsets");
        }
        break;
      case ColEncoding::kDict: {
        if (!OffsetsMonotonic(data + l.aux_off, l.param0, l.arena_len)) {
          return Status::DataLoss(col_ctx + ": non-monotonic dict offsets");
        }
        const char* codes = data + l.data_off;
        for (uint64_t r = 0; r < rows; ++r) {
          if (LoadU32(codes + r * sizeof(uint32_t)) >= l.param0) {
            return Status::DataLoss(col_ctx + ": dict code out of range");
          }
        }
        break;
      }
      case ColEncoding::kRle: {
        const char* ends = data + l.aux_off;
        uint32_t prev_end = 0;
        for (uint64_t run = 0; run < l.param0; ++run) {
          const uint32_t end = LoadU32(ends + run * sizeof(uint32_t));
          if (end <= prev_end || end > rows) {
            return Status::DataLoss(col_ctx + ": non-increasing run ends");
          }
          prev_end = end;
        }
        if (prev_end != rows) {
          return Status::DataLoss(col_ctx + ": run ends do not cover rows");
        }
        break;
      }
      case ColEncoding::kFor:
        break;  // any packed word decodes; the header bounded the width
    }
  }
  return Status::OK();
}

/// Attaches one table file: mmap, header + directory verification, then
/// every column points into the mapped pages. With `verify` (the
/// LoadCheckpoint path) the whole-file CRC against the manifest and
/// VerifySections run over the same mapping before anything is attached.
Status AttachTableFile(EngineTable* table, const ManifestTable& entry,
                       const std::string& path, bool verify) {
  TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  if (verify && Crc32(file->data(), file->size()) != entry.file_crc) {
    return Status::DataLoss("checkpoint table " + entry.name +
                            ": file CRC mismatch with manifest");
  }
  std::vector<ColumnLayout> layout;
  TPCDS_RETURN_NOT_OK(
      ParseTableHeader(file->data(), file->size(), entry, &layout));
  if (verify) TPCDS_RETURN_NOT_OK(VerifySections(file->data(), entry, layout));
  const size_t rows = static_cast<size_t>(entry.rows);
  for (size_t c = 0; c < layout.size(); ++c) {
    const ColumnLayout& l = layout[c];
    const char* base = file->data();
    const auto* nulls = reinterpret_cast<const uint8_t*>(base + l.nulls_off);
    StorageColumn* col = table->mutable_column(c);
    switch (l.encoding) {
      case ColEncoding::kPlain:
        if (l.is_string()) {
          col->AttachStorage(
              file, nulls, nullptr, base + l.arena_off,
              reinterpret_cast<const uint64_t*>(base + l.data_off), rows);
        } else {
          col->AttachStorage(
              file, nulls,
              reinterpret_cast<const int64_t*>(base + l.data_off), nullptr,
              nullptr, rows);
        }
        break;
      case ColEncoding::kDict:
        col->AttachDictStorage(
            file, nulls,
            reinterpret_cast<const uint32_t*>(base + l.data_off),
            reinterpret_cast<const uint64_t*>(base + l.aux_off),
            base + l.arena_off, static_cast<uint32_t>(l.param0), rows);
        break;
      case ColEncoding::kRle:
        col->AttachRleStorage(
            file, nulls,
            reinterpret_cast<const int64_t*>(base + l.data_off),
            reinterpret_cast<const uint32_t*>(base + l.aux_off),
            static_cast<uint32_t>(l.param0), rows);
        break;
      case ColEncoding::kFor:
        col->AttachForStorage(
            file, nulls,
            reinterpret_cast<const uint64_t*>(base + l.data_off),
            static_cast<int64_t>(l.param0), static_cast<uint32_t>(l.param1),
            rows);
        break;
    }
  }
  return table->FinishRawLoad(static_cast<int64_t>(rows));
}

/// Writes the statistics sidecar: every table whose stats are currently
/// computed (Database::AnalyzeStorage computes all of them) serialises
/// under its name. Always written — an empty sidecar overwrites any stale
/// one left in a reused directory.
Status WriteStatsFile(const Database& db, const std::string& dir) {
  std::string body;
  std::vector<std::pair<std::string, std::shared_ptr<const TableStats>>>
      entries;
  for (const std::string& name : db.TableNames()) {
    std::shared_ptr<const TableStats> stats =
        db.FindTable(name)->ComputedStats();
    if (stats != nullptr) entries.emplace_back(name, std::move(stats));
  }
  PutU32(&body, static_cast<uint32_t>(entries.size()));
  for (const auto& [name, stats] : entries) {
    PutLenString(&body, name);
    SerializeTableStats(*stats, &body);
  }
  std::string file(kStatsMagic, sizeof(kStatsMagic));
  file.append(body);
  PutU32(&file, Crc32(body.data(), body.size()));
  return WriteFileAtomically(dir + "/" + kStatsName, file);
}

/// Restores the statistics sidecar when present. The sidecar is a cache:
/// a missing file is fine (stats recompute lazily) and entries whose
/// table, row count or column count no longer match are skipped; but a
/// present-yet-corrupt file is data loss, like every other durable file.
Status LoadStatsFile(Database* db, const std::string& dir) {
  Result<std::string> data = ReadWholeFile(dir + "/" + kStatsName);
  if (!data.ok()) {
    return data.status().code() == StatusCode::kNotFound ? Status::OK()
                                                         : data.status();
  }
  const std::string& s = *data;
  if (s.size() < sizeof(kStatsMagic) + 4) {
    return Status::DataLoss("checkpoint stats: truncated");
  }
  const uint32_t crc = LoadU32(s.data() + s.size() - 4);
  if (Crc32(s.data() + sizeof(kStatsMagic),
            s.size() - sizeof(kStatsMagic) - 4) != crc) {
    return Status::DataLoss("checkpoint stats: body crc mismatch");
  }
  ByteReader reader(s, "checkpoint stats");
  TPCDS_RETURN_NOT_OK(reader.ReadMagic(kStatsMagic));
  TPCDS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    TPCDS_ASSIGN_OR_RETURN(std::string name, reader.ReadLenString());
    TPCDS_ASSIGN_OR_RETURN(TableStats stats,
                           DeserializeTableStats(&reader));
    EngineTable* table = db->FindTable(name);
    if (table == nullptr || stats.row_count != table->num_rows() ||
        stats.columns.size() != table->num_columns()) {
      continue;
    }
    table->InstallStats(std::make_shared<TableStats>(std::move(stats)));
  }
  return Status::OK();
}

Status RestoreCheckpoint(Database* db, const std::string& dir, bool verify) {
  if (!db->TableNames().empty()) {
    return Status::InvalidArgument(
        "checkpoint: target database is not empty");
  }
  TPCDS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dir));
  for (const ManifestTable& entry : manifest.tables) {
    TPCDS_RETURN_NOT_OK(db->CreateTable(entry.name, entry.columns));
    EngineTable* table = db->FindTable(entry.name);
    TPCDS_RETURN_NOT_OK(AttachTableFile(
        table, entry, dir + "/" + entry.name + ".col", verify));
  }
  db->set_generation(manifest.generation);
  return LoadStatsFile(db, dir);
}

}  // namespace

Status SaveCheckpointTo(const Database& db, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("checkpoint: cannot create directory " + dir +
                           ": " + ec.message());
  }
  std::string body;
  PutU64(&body, db.generation());
  std::vector<std::string> names = db.TableNames();
  PutU32(&body, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const EngineTable* table = db.FindTable(name);
    uint32_t file_crc = 0;
    TPCDS_RETURN_NOT_OK(
        WriteTableFile(*table, dir + "/" + name + ".col", &file_crc));
    PutLenString(&body, name);
    PutU64(&body, static_cast<uint64_t>(table->num_rows()));
    PutU32(&body, static_cast<uint32_t>(table->num_columns()));
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const EngineTable::ColumnMeta& meta = table->column_meta(c);
      PutLenString(&body, meta.name);
      body.push_back(static_cast<char>(meta.type));
    }
    PutU32(&body, file_crc);
  }
  TPCDS_RETURN_NOT_OK(WriteStatsFile(db, dir));
  TPCDS_FAULT_POINT("ckpt-manifest");
  std::string manifest(kManifestMagic, sizeof(kManifestMagic));
  manifest.append(body);
  PutU32(&manifest, Crc32(body.data(), body.size()));
  return WriteFileAtomically(dir + "/" + kManifestName, manifest);
}

Status LoadCheckpointFrom(Database* db, const std::string& dir) {
  return RestoreCheckpoint(db, dir, /*verify=*/true);
}

Status AttachCheckpointFrom(Database* db, const std::string& dir) {
  return RestoreCheckpoint(db, dir, /*verify=*/false);
}

Status Database::SaveCheckpoint(const std::string& dir) const {
  return SaveCheckpointTo(*this, dir);
}

Status Database::LoadCheckpoint(const std::string& dir) {
  return LoadCheckpointFrom(this, dir);
}

Status Database::AttachCheckpoint(const std::string& dir) {
  return AttachCheckpointFrom(this, dir);
}

}  // namespace tpcds
