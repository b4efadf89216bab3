#include "eval/reporting.h"

#include <cstdio>
#include <sstream>

namespace enld {

std::string MethodRunsToCsv(const std::vector<MethodRunResult>& runs) {
  std::ostringstream out;
  out << "method,noise,dataset,precision,recall,f1,process_seconds\n";
  char buffer[160];
  for (const MethodRunResult& run : runs) {
    std::snprintf(buffer, sizeof(buffer), "%s,%.3f,setup,,,,%.6f\n",
                  run.method.c_str(), run.noise_rate, run.setup_seconds);
    out << buffer;
    for (size_t i = 0; i < run.per_dataset.size(); ++i) {
      const DetectionMetrics& m = run.per_dataset[i];
      const double seconds =
          i < run.process_seconds.size() ? run.process_seconds[i] : 0.0;
      std::snprintf(buffer, sizeof(buffer),
                    "%s,%.3f,%zu,%.6f,%.6f,%.6f,%.6f\n", run.method.c_str(),
                    run.noise_rate, i, m.precision, m.recall, m.f1,
                    seconds);
      out << buffer;
    }
  }
  return out.str();
}

namespace {

Status WriteStringToFile(const std::string& content,
                         const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  if (written != content.size()) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteMethodRunsCsv(const std::vector<MethodRunResult>& runs,
                          const std::string& path) {
  return WriteStringToFile(MethodRunsToCsv(runs), path);
}

std::string PhaseSecondsToCsv(const std::vector<MethodRunResult>& runs) {
  std::ostringstream out;
  out << "method,noise,phase,seconds\n";
  char buffer[192];
  for (const MethodRunResult& run : runs) {
    for (const auto& [phase, seconds] : run.phase_seconds) {
      std::snprintf(buffer, sizeof(buffer), "%s,%.3f,%s,%.6f\n",
                    run.method.c_str(), run.noise_rate, phase.c_str(),
                    seconds);
      out << buffer;
    }
  }
  return out.str();
}

Status WritePhaseSecondsCsv(const std::vector<MethodRunResult>& runs,
                            const std::string& path) {
  return WriteStringToFile(PhaseSecondsToCsv(runs), path);
}

Status WriteRunTelemetry(const MethodRunResult& run,
                         const std::string& path) {
  return telemetry::WriteRunReport(run.telemetry, path);
}

std::string TelemetrySummary(const telemetry::RunReport& report) {
  std::ostringstream out;
  char buffer[256];

  std::snprintf(buffer, sizeof(buffer),
                "telemetry: %zu counters, %zu histograms, %zu series; span "
                "tree depth %zu (dump with --telemetry_out=PATH or "
                "ENLD_TELEMETRY=PATH)\n",
                report.metrics.counters.size(),
                report.metrics.histograms.size(),
                report.metrics.series.size(), report.spans.Depth());
  out << buffer;

  out << "time split:";
  bool first = true;
  for (const telemetry::SpanSnapshot& top : report.spans.children) {
    std::snprintf(buffer, sizeof(buffer), "%s %s %.2fs",
                  first ? "" : " |", top.name.c_str(), top.total_seconds);
    out << buffer;
    first = false;
    // One level of detail under the heaviest phases.
    for (const telemetry::SpanSnapshot& child : top.children) {
      std::snprintf(buffer, sizeof(buffer), " (%s %.2fs)",
                    child.name.c_str(), child.total_seconds);
      out << buffer;
    }
  }
  out << "\n";

  const auto clean = report.metrics.series.find("detect/clean_size");
  out << "detect:";
  if (clean != report.metrics.series.end() && !clean->second.empty()) {
    std::snprintf(buffer, sizeof(buffer),
                  " clean-set %.0f -> %.0f over %zu iteration points;",
                  clean->second.front(), clean->second.back(),
                  clean->second.size());
    out << buffer;
  }
  const auto queries = report.metrics.counters.find("knn/queries");
  const auto steps = report.metrics.counters.find("train/steps");
  std::snprintf(
      buffer, sizeof(buffer), " %llu knn queries, %llu train steps\n",
      static_cast<unsigned long long>(
          queries != report.metrics.counters.end() ? queries->second : 0),
      static_cast<unsigned long long>(
          steps != report.metrics.counters.end() ? steps->second : 0));
  out << buffer;
  return out.str();
}

}  // namespace enld
