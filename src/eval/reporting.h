#ifndef ENLD_EVAL_REPORTING_H_
#define ENLD_EVAL_REPORTING_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "eval/experiment.h"

namespace enld {

/// Renders method runs as a CSV string with one row per (method, dataset):
/// `method,noise,dataset,precision,recall,f1,process_seconds` plus a
/// `setup` row per method. Used to feed external plotting.
std::string MethodRunsToCsv(const std::vector<MethodRunResult>& runs);

/// Writes MethodRunsToCsv(runs) to a file.
Status WriteMethodRunsCsv(const std::vector<MethodRunResult>& runs,
                          const std::string& path);

/// Renders the per-phase wall-clock breakdown captured by RunDetector as
/// `method,noise,phase,seconds` rows (one per recorded phase, in recording
/// order). Methods without phase instrumentation contribute no rows. Feeds
/// the Fig. 8 before/after timing comparison across ENLD_THREADS settings.
std::string PhaseSecondsToCsv(const std::vector<MethodRunResult>& runs);

/// Writes PhaseSecondsToCsv(runs) to a file.
Status WritePhaseSecondsCsv(const std::vector<MethodRunResult>& runs,
                            const std::string& path);

/// Writes `run.telemetry` — the machine-readable run report with span
/// tree, metrics and quality — to `path` (CSV when the path ends in
/// ".csv", JSON otherwise).
Status WriteRunTelemetry(const MethodRunResult& run, const std::string& path);

/// Three-line human summary of a telemetry report: registry size and span
/// depth, the wall-clock split across top-level spans, and the detector's
/// clean-set trajectory with work counters. Used by examples so the
/// instrumentation is visible without opening the JSON.
std::string TelemetrySummary(const telemetry::RunReport& report);

}  // namespace enld

#endif  // ENLD_EVAL_REPORTING_H_
