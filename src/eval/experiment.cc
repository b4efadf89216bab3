#include "eval/experiment.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"

namespace enld {

double MethodRunResult::average_process_seconds() const {
  if (process_seconds.empty()) return 0.0;
  double total = 0.0;
  for (double s : process_seconds) total += s;
  return total / static_cast<double>(process_seconds.size());
}

MethodRunResult RunDetector(NoisyLabelDetector* detector,
                            const Workload& workload, bool keep_raw) {
  ENLD_CHECK(detector != nullptr);
  MethodRunResult out;
  out.method = detector->name();
  out.method_display = detector->display_name();
  out.noise_rate = workload.config.noise_rate;

  // One telemetry scope per detector run: spans, counters and series
  // accumulated below describe exactly this run, and the capture at the
  // end becomes the machine-readable run report.
  telemetry::ResetTelemetry();
  auto& registry = telemetry::MetricsRegistry::Global();
  {
    // Every run's spans nest under one "detector/<key>" root labeled with
    // the canonical detector key, so a report always carries per-detector
    // span totals — even for detectors whose internals open no spans of
    // their own. Closed before the capture below (Reset/Snapshot must not
    // race an active span).
    telemetry::ScopedSpan run_span("detector/" + out.method);
    Stopwatch setup_timer;
    detector->Setup(workload.inventory);
    out.setup_seconds = setup_timer.ElapsedSeconds();

    telemetry::Series* f1_series = registry.GetSeries("eval/f1");
    telemetry::Series* precision_series =
        registry.GetSeries("eval/precision");
    telemetry::Series* recall_series = registry.GetSeries("eval/recall");
    out.process_seconds.reserve(workload.incremental.size());
    out.per_dataset.reserve(workload.incremental.size());
    for (const Dataset& incremental : workload.incremental) {
      Stopwatch process_timer;
      DetectionResult result = detector->Detect(incremental);
      out.process_seconds.push_back(process_timer.ElapsedSeconds());
      out.per_dataset.push_back(
          EvaluateDetection(incremental, result.noisy_indices));
      const DetectionMetrics& m = out.per_dataset.back();
      f1_series->Append(m.f1);
      precision_series->Append(m.precision);
      recall_series->Append(m.recall);
      if (keep_raw) out.raw_results.push_back(std::move(result));
    }
  }
  out.phase_seconds = telemetry::TraceTree::Global().FlattenByName();

  out.telemetry = telemetry::CaptureRunReport();
  out.telemetry.method = out.method;
  out.telemetry.noise_rate = out.noise_rate;
  const DetectionMetrics avg = out.average();
  out.telemetry.quality["precision_avg"] = avg.precision;
  out.telemetry.quality["recall_avg"] = avg.recall;
  out.telemetry.quality["f1_avg"] = avg.f1;
  out.telemetry.quality["datasets"] =
      static_cast<double>(workload.incremental.size());
  out.telemetry.quality["setup_seconds"] = out.setup_seconds;
  out.telemetry.quality["avg_process_seconds"] =
      out.average_process_seconds();
  return out;
}

}  // namespace enld
