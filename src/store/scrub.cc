#include "store/scrub.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/faults.h"
#include "common/retry.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "store/io.h"
#include "store/json.h"
#include "store/manifest.h"
#include "store/shard.h"
#include "store/snapshot.h"

namespace enld {
namespace store {

namespace {

/// Collects findings for one scrub pass; binds the report plus the
/// current snapshot context so walk helpers stay small.
class Scrubber {
 public:
  explicit Scrubber(ScrubReport* report) : report_(report) {}

  void Add(uint64_t seq, const std::string& file, const std::string& section,
           const std::string& reason, const std::string& detail) {
    report_->findings.push_back({seq, file, section, reason, detail});
  }

  /// Reads one file through the "store/scrub_read" fault site, counting it
  /// into the report. On failure records a finding (reason "missing" for
  /// NotFound, "unreadable" otherwise) and returns the error.
  StatusOr<std::string> Read(uint64_t seq, const std::string& path,
                             const std::string& rel) {
    StatusOr<std::string> data = Status::Internal("not read");
    const Status status = RetryWithBackoff(
        DefaultIoRetryPolicy(), "scrub " + path, [&]() -> Status {
          ENLD_RETURN_IF_ERROR(faults::Check("store/scrub_read"));
          data = ReadFile(path);
          return data.ok() ? Status::OK() : data.status();
        });
    if (!status.ok()) {
      Add(seq, rel, "file",
          status.code() == StatusCode::kNotFound ? "missing" : "unreadable",
          status.message());
      return status;
    }
    ++report_->files_checked;
    report_->bytes_scrubbed += data.value().size();
    return data;
  }

  /// Walks a run of (id u32, len u64, crc u32, payload) envelopes starting
  /// at `offset`, recording a finding per damaged section and counting the
  /// intact ones. Keeps going past a CRC mismatch — repair needs to know
  /// every surviving section — but stops at truncation.
  void WalkSections(uint64_t seq, const std::string& rel,
                    const std::string& data, size_t offset,
                    const std::vector<uint32_t>& expected_ids) {
    BinaryReader reader(data);
    reader.Skip(offset);
    for (uint32_t expected : expected_ids) {
      uint32_t id = 0, crc = 0;
      uint64_t length = 0;
      if (!reader.ReadU32(&id) || !reader.ReadU64(&length) ||
          !reader.ReadU32(&crc)) {
        Add(seq, rel, "section-" + std::to_string(expected), "truncated",
            "file ends before section " + std::to_string(expected));
        return;
      }
      if (id != expected) {
        Add(seq, rel, "section-" + std::to_string(expected), "malformed",
            "section id " + std::to_string(id) + " where " +
                std::to_string(expected) + " expected");
        return;
      }
      std::string payload;
      if (length > reader.remaining() || !reader.ReadBytes(length, &payload)) {
        Add(seq, rel, "section-" + std::to_string(id), "truncated",
            "section " + std::to_string(id) + " payload truncated");
        return;
      }
      ++report_->sections_checked;
      if (Crc32(payload) != crc) {
        Add(seq, rel, "section-" + std::to_string(id), "crc_mismatch",
            "section " + std::to_string(id) + " payload fails its CRC");
      }
    }
    if (reader.remaining() != 0) {
      Add(seq, rel, "file", "trailing_bytes",
          std::to_string(reader.remaining()) +
              " trailing bytes after last section");
    }
  }

  /// Structural walk of a state.bin buffer: header then per-section CRCs.
  void WalkState(uint64_t seq, const std::string& rel,
                 const std::string& data) {
    if (data.size() < sizeof(kSnapshotStateMagic) ||
        std::memcmp(data.data(), kSnapshotStateMagic,
                    sizeof(kSnapshotStateMagic)) != 0) {
      Add(seq, rel, "header", "bad_magic",
          "not an ENLD snapshot state file");
      return;
    }
    BinaryReader reader(data);
    reader.Skip(sizeof(kSnapshotStateMagic));
    uint32_t endian = 0, version = 0, sections = 0;
    if (!reader.ReadU32(&endian) || !reader.ReadU32(&version) ||
        !reader.ReadU32(&sections)) {
      Add(seq, rel, "header", "truncated", "truncated state header");
      return;
    }
    if (endian != kByteOrderTag) {
      Add(seq, rel, "header", "mismatch", "byte-order tag mismatch");
      return;
    }
    if (version != kSnapshotStateVersion) {
      Add(seq, rel, "header", "malformed",
          "unsupported state version " + std::to_string(version));
      return;
    }
    if (sections != kSnapshotStateSectionCount) {
      Add(seq, rel, "header", "mismatch",
          "section count " + std::to_string(sections) + " != " +
              std::to_string(kSnapshotStateSectionCount));
      return;
    }
    WalkSections(seq, rel, data, reader.offset(),
                 {kSnapshotSectionMeta, kSnapshotSectionStats,
                  kSnapshotSectionRng, kSnapshotSectionConditional,
                  kSnapshotSectionSelected, kSnapshotSectionAdmission});
  }

  /// Structural walk of a shard buffer. `expect_rows` < 0 skips the
  /// geometry cross-check against the dataset manifest.
  void WalkShard(uint64_t seq, const std::string& rel,
                 const std::string& data, int64_t expect_rows) {
    if (data.size() < sizeof(kShardMagic) ||
        std::memcmp(data.data(), kShardMagic, sizeof(kShardMagic)) != 0) {
      Add(seq, rel, "header", "bad_magic", "not an ENLD shard");
      return;
    }
    BinaryReader reader(data);
    reader.Skip(sizeof(kShardMagic));
    uint32_t endian = 0, version = 0, classes = 0, sections = 0;
    uint64_t rows = 0, dim = 0;
    if (!reader.ReadU32(&endian) || !reader.ReadU32(&version) ||
        !reader.ReadU64(&rows) || !reader.ReadU64(&dim) ||
        !reader.ReadU32(&classes) || !reader.ReadU32(&sections)) {
      Add(seq, rel, "header", "truncated", "truncated shard header");
      return;
    }
    if (endian != kByteOrderTag) {
      Add(seq, rel, "header", "mismatch", "byte-order tag mismatch");
      return;
    }
    if (version != kShardVersion || sections != kShardSectionCount) {
      Add(seq, rel, "header", "malformed",
          "unsupported shard version/section count");
      return;
    }
    if (expect_rows >= 0 && rows != static_cast<uint64_t>(expect_rows)) {
      Add(seq, rel, "geometry", "mismatch",
          "header rows " + std::to_string(rows) + " != manifest rows " +
              std::to_string(expect_rows));
    }
    WalkSections(seq, rel, data, reader.offset(),
                 {kShardSectionFeatures, kShardSectionObserved,
                  kShardSectionTrue, kShardSectionIds,
                  kShardSectionMissingBitmap});
  }

 private:
  ScrubReport* report_;
};

/// Verifies one file against its manifest-recorded size and CRC.
void CheckAgainstManifest(Scrubber* scrub, uint64_t seq,
                          const std::string& rel, const std::string& data,
                          uint64_t bytes, uint32_t crc) {
  if (data.size() != bytes) {
    scrub->Add(seq, rel, "file", "size_mismatch",
               "file is " + std::to_string(data.size()) +
                   " bytes, manifest says " + std::to_string(bytes));
  }
  if (Crc32(data) != crc) {
    scrub->Add(seq, rel, "file", "crc_mismatch",
               "whole-file CRC32 does not match the manifest");
  }
}

void ScrubDatasetDir(Scrubber* scrub, uint64_t seq,
                     const std::string& dir, const std::string& rel) {
  const std::string manifest_rel = rel + "/manifest.json";
  StatusOr<std::string> text =
      scrub->Read(seq, dir + "/manifest.json", manifest_rel);
  if (!text.ok()) return;
  StatusOr<DatasetManifest> manifest = ReadDatasetManifest(dir);
  if (!manifest.ok()) {
    scrub->Add(seq, manifest_rel, "manifest", "malformed",
               manifest.status().message());
    return;
  }
  for (const ShardEntry& entry : manifest.value().shards) {
    const std::string shard_rel = rel + "/" + entry.file;
    StatusOr<std::string> data =
        scrub->Read(seq, dir + "/" + entry.file, shard_rel);
    if (!data.ok()) continue;
    CheckAgainstManifest(scrub, seq, shard_rel, data.value(), entry.bytes,
                         entry.crc32);
    scrub->WalkShard(seq, shard_rel, data.value(),
                     static_cast<int64_t>(entry.rows));
  }
}

void ScrubSnapshotDir(Scrubber* scrub, ScrubReport* report, uint64_t seq,
                      const std::string& root) {
  const std::string name = SnapshotStore::DirName(seq);
  const std::string dir = root + "/" + name;
  report->scrubbed.push_back(seq);

  // The snapshot manifest drives the walk; when it is damaged the
  // conventional files are still scrubbed so repair knows what survives.
  uint64_t state_bytes = 0, model_bytes = 0;
  uint32_t state_crc = 0, model_crc = 0;
  bool state_listed = false, model_listed = false;
  const std::string manifest_rel = name + "/" + kSnapshotManifestFile;
  StatusOr<std::string> manifest_text =
      scrub->Read(seq, dir + "/" + kSnapshotManifestFile, manifest_rel);
  if (manifest_text.ok()) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(manifest_text.value());
    const JsonValue* doc = parsed.ok() ? &parsed.value() : nullptr;
    const JsonValue* schema =
        doc != nullptr && doc->is_object() ? doc->Find("schema") : nullptr;
    if (schema == nullptr || !schema->is_string() ||
        schema->AsString() != "enld-snapshot-manifest-v1") {
      scrub->Add(seq, manifest_rel, "manifest", "malformed",
                 "missing or unsupported snapshot manifest schema");
    } else {
      const JsonValue* seq_field = doc->Find("seq");
      if (seq_field == nullptr || !seq_field->is_number() ||
          static_cast<uint64_t>(seq_field->AsNumber()) != seq) {
        scrub->Add(seq, manifest_rel, "manifest", "mismatch",
                   "manifest seq does not match its directory");
      }
      const JsonValue* files = doc->Find("files");
      if (files == nullptr || !files->is_array()) {
        scrub->Add(seq, manifest_rel, "manifest", "malformed",
                   "manifest has no 'files' array");
      } else {
        for (const JsonValue& item : files->items()) {
          const JsonValue* file = item.Find("file");
          const JsonValue* bytes = item.Find("bytes");
          const JsonValue* crc = item.Find("crc32");
          if (file == nullptr || !file->is_string() || bytes == nullptr ||
              !bytes->is_number() || crc == nullptr || !crc->is_number()) {
            scrub->Add(seq, manifest_rel, "manifest", "malformed",
                       "malformed file entry");
            continue;
          }
          if (file->AsString() == kSnapshotStateFile) {
            state_listed = true;
            state_bytes = static_cast<uint64_t>(bytes->AsNumber());
            state_crc = static_cast<uint32_t>(crc->AsNumber());
          } else if (file->AsString() == kSnapshotModelFile) {
            model_listed = true;
            model_bytes = static_cast<uint64_t>(bytes->AsNumber());
            model_crc = static_cast<uint32_t>(crc->AsNumber());
          }
        }
        if (!state_listed || !model_listed) {
          scrub->Add(seq, manifest_rel, "manifest", "malformed",
                     "manifest must list state.bin and model.bin");
        }
      }
    }
  }

  const std::string state_rel = name + "/" + kSnapshotStateFile;
  StatusOr<std::string> state =
      scrub->Read(seq, dir + "/" + kSnapshotStateFile, state_rel);
  if (state.ok()) {
    if (state_listed) {
      CheckAgainstManifest(scrub, seq, state_rel, state.value(), state_bytes,
                           state_crc);
    }
    scrub->WalkState(seq, state_rel, state.value());
  }

  const std::string model_rel = name + "/" + kSnapshotModelFile;
  StatusOr<std::string> model =
      scrub->Read(seq, dir + "/" + kSnapshotModelFile, model_rel);
  if (model.ok() && model_listed) {
    CheckAgainstManifest(scrub, seq, model_rel, model.value(), model_bytes,
                         model_crc);
  }

  for (const char* dataset : {kSnapshotTrainDir, kSnapshotCandidateDir}) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir + "/" + dataset, ec)) {
      scrub->Add(seq, name + "/" + dataset, "manifest", "missing",
                 std::string("dataset directory ") + dataset + " is missing");
      continue;
    }
    ScrubDatasetDir(scrub, seq, dir + "/" + dataset,
                    name + "/" + dataset);
  }
}

}  // namespace

bool ScrubReport::snapshot_clean(uint64_t seq) const {
  if (std::find(scrubbed.begin(), scrubbed.end(), seq) == scrubbed.end()) {
    return false;
  }
  for (const ScrubFinding& finding : findings) {
    if (finding.seq == seq) return false;
  }
  return true;
}

std::vector<uint64_t> ScrubReport::intact_seqs() const {
  std::vector<uint64_t> intact;
  for (uint64_t seq : scrubbed) {
    if (snapshot_clean(seq)) intact.push_back(seq);
  }
  return intact;
}

StatusOr<ScrubReport> ScrubSnapshotStore(const std::string& root) {
  ENLD_TRACE_SPAN("store/scrub");
  std::error_code ec;
  if (!std::filesystem::is_directory(root, ec) || ec) {
    return Status::NotFound("snapshot root " + root +
                            " is not a readable directory");
  }

  ScrubReport report;
  report.root = root;
  Scrubber scrub(&report);

  // CURRENT first (store-level, seq 0 in findings).
  const SnapshotStore store(root);
  StatusOr<std::string> current =
      scrub.Read(0, root + "/" + kSnapshotCurrentFile, kSnapshotCurrentFile);
  if (current.ok()) {
    const StatusOr<uint64_t> seq = store.LatestSeq();
    if (!seq.ok()) {
      scrub.Add(0, kSnapshotCurrentFile, "pointer", "malformed",
                seq.status().message());
    } else if (!std::filesystem::is_directory(
                   root + "/" + SnapshotStore::DirName(seq.value()), ec)) {
      scrub.Add(0, kSnapshotCurrentFile, "pointer", "dangling",
                "CURRENT points at missing directory " +
                    SnapshotStore::DirName(seq.value()));
    } else {
      report.current_seq = seq.value();
    }
  }

  for (uint64_t seq : store.ListSeqs()) {
    ScrubSnapshotDir(&scrub, &report, seq, root);
  }

  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* runs = registry.GetCounter("store/scrub_runs");
  static telemetry::Counter* files = registry.GetCounter("store/scrub_files");
  static telemetry::Counter* found =
      registry.GetCounter("store/scrub_findings");
  runs->Increment();
  for (uint64_t i = 0; i < report.files_checked; ++i) files->Increment();
  for (size_t i = 0; i < report.findings.size(); ++i) found->Increment();
  return report;
}

Status WriteScrubReportJson(const ScrubReport& report,
                            const std::string& path) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("enld-scrub-v1"));
  doc.Set("root", JsonValue::String(report.root));
  doc.Set("current_seq",
          JsonValue::Number(static_cast<double>(report.current_seq)));
  JsonValue scrubbed = JsonValue::Array();
  for (uint64_t seq : report.scrubbed) {
    scrubbed.items().push_back(
        JsonValue::Number(static_cast<double>(seq)));
  }
  doc.Set("scrubbed", std::move(scrubbed));
  JsonValue intact = JsonValue::Array();
  for (uint64_t seq : report.intact_seqs()) {
    intact.items().push_back(JsonValue::Number(static_cast<double>(seq)));
  }
  doc.Set("intact", std::move(intact));
  doc.Set("files_checked",
          JsonValue::Number(static_cast<double>(report.files_checked)));
  doc.Set("sections_checked",
          JsonValue::Number(static_cast<double>(report.sections_checked)));
  doc.Set("bytes_scrubbed",
          JsonValue::Number(static_cast<double>(report.bytes_scrubbed)));
  doc.Set("clean", JsonValue::Bool(report.clean()));
  JsonValue findings = JsonValue::Array();
  for (const ScrubFinding& finding : report.findings) {
    JsonValue entry = JsonValue::Object();
    entry.Set("seq", JsonValue::Number(static_cast<double>(finding.seq)));
    entry.Set("file", JsonValue::String(finding.file));
    entry.Set("section", JsonValue::String(finding.section));
    entry.Set("reason", JsonValue::String(finding.reason));
    entry.Set("detail", JsonValue::String(finding.detail));
    findings.items().push_back(std::move(entry));
  }
  doc.Set("findings", std::move(findings));
  return WriteFileDurable(path, doc.ToString());
}

}  // namespace store
}  // namespace enld
