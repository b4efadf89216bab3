// Quarantine replay coverage (docs/ROBUSTNESS.md §"Self-healing
// runbook"): the quarantine JSON round-trips its truncation marker,
// replay re-screens every quarantined sample afresh against corrected
// source data (readmitted / still_rejected / missing verdicts, id-level
// dedup), and readmitted rows flow back into the platform through the
// normal Process path with the operator's request id on the audit trail.

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/workload.h"
#include "enld/admission.h"
#include "enld/platform.h"
#include "store/io.h"
#include "store/quarantine.h"
#include "store/replay.h"
#include "test_util.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

QuarantineRecord Record(uint64_t sample_id, RejectionReason reason) {
  QuarantineRecord record;
  record.request = 1;
  record.request_id = 42;
  record.sample_id = sample_id;
  record.row = sample_id;
  record.reason = reason;
  record.detail = "test record";
  return record;
}

TEST(QuarantineFileTest, TruncatedMarkerRoundTrips) {
  QuarantineLog log(/*capacity=*/2);
  log.Add(Record(10, RejectionReason::kNonFiniteFeature));
  log.Add(Record(11, RejectionReason::kObservedLabelOutOfRange));
  log.Add(Record(12, RejectionReason::kTrueLabelOutOfRange));
  ASSERT_TRUE(log.truncated());

  const std::string path = TempPath("quarantine_truncated.json");
  ASSERT_TRUE(store::WriteQuarantineJson(log, path).ok());
  const StatusOr<std::string> raw = store::ReadFile(path);
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw.value().find("\"truncated\": true"), std::string::npos);

  const StatusOr<store::QuarantineFile> parsed =
      store::ReadQuarantineJson(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().truncated);
  EXPECT_EQ(parsed.value().total, 3u);
  EXPECT_EQ(parsed.value().capacity, 2u);
  ASSERT_EQ(parsed.value().records.size(), 2u);
  EXPECT_EQ(parsed.value().records[0].sample_id, 10u);
  EXPECT_EQ(parsed.value().records[0].reason, "non_finite_feature");
  EXPECT_EQ(parsed.value().records[0].request_id, 42u);
  fs::remove(path);
}

TEST(QuarantineFileTest, UntruncatedLogWritesFalseMarker) {
  QuarantineLog log(/*capacity=*/8);
  log.Add(Record(5, RejectionReason::kNonFiniteFeature));
  const std::string path = TempPath("quarantine_full.json");
  ASSERT_TRUE(store::WriteQuarantineJson(log, path).ok());
  const StatusOr<store::QuarantineFile> parsed =
      store::ReadQuarantineJson(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().truncated);
  EXPECT_EQ(parsed.value().total, 1u);
  fs::remove(path);
}

TEST(QuarantineFileTest, TruncationDerivesFromTotalAndRecords) {
  // The reader derives truncation as total > records, the writer's own
  // definition, so it needs no "truncated" key to report it.
  const std::string path = TempPath("quarantine_derived.json");
  ASSERT_TRUE(store::WriteFileDurable(
                  path,
                  "{\"schema\": \"enld-quarantine-v1\", \"total\": 4, "
                  "\"recorded\": 1, \"capacity\": 1, \"records\": "
                  "[{\"request\": 1, \"row\": 0, \"sample_id\": 7, "
                  "\"reason\": \"non_finite_feature\"}]}")
                  .ok());
  const StatusOr<store::QuarantineFile> parsed =
      store::ReadQuarantineJson(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().truncated);
  ASSERT_EQ(parsed.value().records.size(), 1u);
  // Optional fields absent in old files default cleanly.
  EXPECT_EQ(parsed.value().records[0].request_id, 0u);
  fs::remove(path);
}

TEST(QuarantineFileTest, RejectsForeignSchema) {
  const std::string path = TempPath("quarantine_bad.json");
  ASSERT_TRUE(
      store::WriteFileDurable(path, "{\"schema\": \"other\"}").ok());
  const StatusOr<store::QuarantineFile> parsed =
      store::ReadQuarantineJson(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store::ReadQuarantineJson(TempPath("no_such_quarantine.json"))
                .status()
                .code(),
            StatusCode::kNotFound);
  fs::remove(path);
}

/// A 6-row source with stable ids 100..105; row 3 (id 103) still carries a
/// NaN feature, everything else is clean.
Dataset CorrectedSource() {
  Matrix features(6, 2);
  for (size_t r = 0; r < 6; ++r) {
    features.Row(r)[0] = static_cast<float>(r);
    features.Row(r)[1] = 1.0f;
  }
  features.Row(3)[1] = std::numeric_limits<float>::quiet_NaN();
  return MakeDataset(std::move(features), {0, 1, 0, 1, 0, 1},
                     {0, 1, 0, 1, 0, 1}, /*num_classes=*/2,
                     /*first_id=*/100);
}

store::QuarantineFile ReplayLog() {
  store::QuarantineFile log;
  log.total = 4;
  log.capacity = 16;
  const auto add = [&log](uint64_t sample_id, const std::string& reason) {
    store::QuarantineFileRecord record;
    record.request = 1;
    record.sample_id = sample_id;
    record.row = sample_id;
    record.reason = reason;
    log.records.push_back(record);
  };
  add(101, "non_finite_feature");   // fixed upstream -> readmitted
  add(103, "non_finite_feature");   // still NaN in the source
  add(999, "observed_label_out_of_range");  // id absent from the source
  add(101, "non_finite_feature");   // duplicate, deduped by id
  return log;
}

TEST(ReplayQuarantineTest, VerdictsCoverReadmittedRejectedAndMissing) {
  const store::QuarantineFile log = ReplayLog();
  const Dataset source = CorrectedSource();
  const StatusOr<store::ReplayReport> report =
      store::ReplayQuarantine(log, source, /*platform=*/nullptr,
                              /*request_id=*/7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const store::ReplayReport& r = report.value();
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.records, 3u);  // 4 log records, one duplicate id
  EXPECT_EQ(r.replayed, 2u);
  EXPECT_EQ(r.missing, 1u);
  EXPECT_EQ(r.readmitted, 1u);
  EXPECT_EQ(r.still_rejected, 1u);
  EXPECT_EQ(r.still_rejected_by_reason[static_cast<size_t>(
                RejectionReason::kNonFiniteFeature)],
            1u);
  EXPECT_FALSE(r.all_readmitted());
  EXPECT_FALSE(r.processed);

  ASSERT_EQ(r.outcomes.size(), 3u);  // log order, deduplicated
  EXPECT_EQ(r.outcomes[0].sample_id, 101u);
  EXPECT_EQ(r.outcomes[0].verdict, "readmitted");
  EXPECT_EQ(r.outcomes[0].source_row, 1u);
  EXPECT_EQ(r.outcomes[1].sample_id, 103u);
  EXPECT_EQ(r.outcomes[1].verdict, "still_rejected");
  EXPECT_EQ(r.outcomes[1].reason, "non_finite_feature");
  EXPECT_EQ(r.outcomes[2].sample_id, 999u);
  EXPECT_EQ(r.outcomes[2].verdict, "missing");
  // The recorded reason is surfaced for context, never trusted.
  EXPECT_EQ(r.outcomes[0].prior_reason, "non_finite_feature");
}

TEST(ReplayQuarantineTest, AllCleanSourceReadmitsEverything) {
  store::QuarantineFile log = ReplayLog();
  log.records.erase(log.records.begin() + 2);  // drop the missing id
  Dataset source = CorrectedSource();
  source.features.Row(3)[1] = 1.0f;  // fix the NaN too
  const StatusOr<store::ReplayReport> report =
      store::ReplayQuarantine(log, source, nullptr, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records, 2u);
  EXPECT_EQ(report.value().readmitted, 2u);
  EXPECT_TRUE(report.value().all_readmitted());
}

TEST(ReplayQuarantineTest, ReadmittedRowsFlowThroughPlatform) {
  const Workload workload =
      BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatformConfig config;
  config.enld.general = testing_util::TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload.inventory).ok());
  ASSERT_TRUE(platform.Process(workload.incremental[0]).ok());
  const uint64_t requests_before = platform.stats().requests;

  // Quarantine the first three rows of the next incremental batch, then
  // replay them against the (clean) batch as the corrected source.
  const Dataset& source = workload.incremental[1];
  store::QuarantineFile log;
  log.total = 3;
  log.capacity = 16;
  for (size_t row = 0; row < 3; ++row) {
    store::QuarantineFileRecord record;
    record.request = 2;
    record.sample_id = source.ids[row];
    record.row = row;
    record.reason = "non_finite_feature";
    log.records.push_back(record);
  }

  const StatusOr<store::ReplayReport> report =
      store::ReplayQuarantine(log, source, &platform, /*request_id=*/99);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().readmitted, 3u);
  EXPECT_TRUE(report.value().processed);
  EXPECT_EQ(report.value().process_status, "ok");
  EXPECT_EQ(platform.stats().requests, requests_before + 1);

  // Determinism: an identical platform replaying the same log produces the
  // same verdicts and the same detection outcome.
  DataPlatform twin(config);
  ASSERT_TRUE(twin.Initialize(workload.inventory).ok());
  ASSERT_TRUE(twin.Process(workload.incremental[0]).ok());
  const StatusOr<store::ReplayReport> again =
      store::ReplayQuarantine(log, source, &twin, /*request_id=*/99);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().readmitted, report.value().readmitted);
  EXPECT_EQ(again.value().process_flagged_noisy,
            report.value().process_flagged_noisy);
}

TEST(ReplayQuarantineTest, EmptyLogIsANoOp) {
  const store::QuarantineFile log;
  const StatusOr<store::ReplayReport> report =
      store::ReplayQuarantine(log, CorrectedSource(), nullptr, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records, 0u);
  EXPECT_FALSE(report.value().processed);
  EXPECT_FALSE(report.value().all_readmitted());
}

TEST(ReplayQuarantineTest, ReportJsonCarriesSchemaAndVerdicts) {
  const StatusOr<store::ReplayReport> report =
      store::ReplayQuarantine(ReplayLog(), CorrectedSource(), nullptr, 7);
  ASSERT_TRUE(report.ok());
  const std::string path = TempPath("replay_report.json");
  ASSERT_TRUE(store::WriteReplayReportJson(report.value(), path).ok());
  const StatusOr<std::string> raw = store::ReadFile(path);
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw.value().find("\"enld-replay-v1\""), std::string::npos);
  EXPECT_NE(raw.value().find("\"readmitted\""), std::string::npos);
  EXPECT_NE(raw.value().find("\"missing\""), std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace enld
