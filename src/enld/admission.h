#ifndef ENLD_ENLD_ADMISSION_H_
#define ENLD_ENLD_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace enld {

/// Per-sample admission control for the DataPlatform (docs/ROBUSTNESS.md).
///
/// A data lake serving live traffic sees NaN/Inf features and corrupted
/// labels routinely; rejecting the whole request on the first bad sample
/// (the pre-admission behavior, still available as `strict`) throws away
/// the clean majority of the batch. Admission screens every sample,
/// quarantines the bad ones with a typed reason, and lets the rest proceed
/// through detection.

/// Why a sample was refused admission. Values are part of the snapshot state
/// on-disk format — append only, never renumber.
enum class RejectionReason : uint32_t {
  kNonFiniteFeature = 0,        ///< a feature value is NaN or +/-Inf
  kObservedLabelOutOfRange = 1, ///< observed label not in [0,K) and not
                                ///  kMissingLabel
  kTrueLabelOutOfRange = 2,     ///< evaluation label not in [0,K)
};
inline constexpr size_t kNumRejectionReasons = 3;

/// Stable lower-case name ("non_finite_feature", ...) used in stats
/// rendering and the quarantine JSON log.
const char* RejectionReasonName(RejectionReason reason);

/// One quarantined sample: where it came from and why it was refused.
struct QuarantineRecord {
  uint64_t request = 0;   ///< platform request number (0 = Initialize)
  /// Client-set observability id of the request that carried the sample
  /// (0 = unset / not request-scoped). Stamped by DataPlatform, not by
  /// ScreenDataset — screening has no wire context.
  uint64_t request_id = 0;
  uint64_t sample_id = 0; ///< the sample's stable id
  size_t row = 0;         ///< row within the offending request dataset
  RejectionReason reason = RejectionReason::kNonFiniteFeature;
  size_t column = 0;      ///< offending feature column (kNonFiniteFeature)
  double value = 0.0;     ///< offending value (feature or label)
  std::string detail;     ///< human-readable message naming row/column
};

/// Admission-control policy knobs. Deliberately excluded from the snapshot
/// config fingerprint: toggling strictness or capacity must not orphan
/// existing snapshots (`resume --strict_admission` restores old state).
struct AdmissionConfig {
  /// When true, any invalid sample fails the whole request with
  /// InvalidArgument (the pre-admission behavior); nothing is processed
  /// and nothing is quarantined.
  bool strict = false;
  /// Maximum quarantine records retained for inspection. Beyond it the
  /// typed counters keep counting but record details are dropped.
  size_t quarantine_capacity = 1024;
};

/// Capped in-memory log of quarantined samples. `total()` keeps counting
/// past the capacity; only record details are dropped.
class QuarantineLog {
 public:
  explicit QuarantineLog(size_t capacity = 1024) : capacity_(capacity) {}

  void Add(QuarantineRecord record) {
    ++total_;
    if (records_.size() < capacity_) records_.push_back(std::move(record));
  }

  const std::vector<QuarantineRecord>& records() const { return records_; }
  uint64_t total() const { return total_; }
  size_t capacity() const { return capacity_; }
  bool truncated() const { return total_ > records_.size(); }

  void Clear() {
    records_.clear();
    total_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<QuarantineRecord> records_;
  uint64_t total_ = 0;
};

/// Outcome of screening one dataset: which rows may proceed and why the
/// others may not. `admitted` is in ascending row order, so
/// `dataset.Subset(admitted)` preserves the original sample order.
struct AdmissionResult {
  std::vector<size_t> admitted;
  std::vector<QuarantineRecord> rejected;

  bool all_admitted() const { return rejected.empty(); }
};

/// Screens every row of `dataset` against the per-sample admission rules
/// (finite features, labels in [0,K) with kMissingLabel allowed for
/// observed labels). Shape-level problems (column length mismatches,
/// non-positive num_classes, dimension mismatch against the inventory) are
/// request-level errors, not per-sample ones — callers check those before
/// screening. A row with several defects is quarantined once, under the
/// first reason found (features, then observed, then true label).
AdmissionResult ScreenDataset(const Dataset& dataset, uint64_t request);

}  // namespace enld

#endif  // ENLD_ENLD_ADMISSION_H_
