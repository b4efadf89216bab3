// Workload runner of the repository benchmark (see README.md here).
//
// Runs one named workload against the ENLD library's public API and writes
// every raw sample it took — per-request latencies and partitions, set-up
// times, the benchmark's own spans, the program's telemetry report and the
// layer replay — as one JSON document. benchmark/run.py builds this binary,
// turns the samples into metrics and checks the outputs; this file does no
// statistics of its own.
//
//   enld_bench --workload stream-emnist --seed 1 --seconds 20 --trace 0
//              --threads 4 --work_dir DIR --out raw.json

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry/report.h"
#include "data/dataset.h"
#include "data/noise.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "enld/admission.h"
#include "enld/pipeline.h"
#include "enld/platform.h"
#include "eval/paper_setup.h"
#include "knn/class_index.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "rpc/client.h"
#include "rpc/message.h"
#include "rpc/server.h"
#include "store/json.h"

#ifndef ENLD_BENCH_BUILD_FLAGS
#define ENLD_BENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace enld;
using Clock = std::chrono::steady_clock;

constexpr double kNoiseRate = 0.2;
/// Requests a single-caller stream serves at least, whatever --seconds
/// says: the p90 rule needs ten samples above the percentile.
constexpr size_t kMinStreamRequests = 100;
/// Requests the traced phase replays (a prefix of the timed stream).
constexpr size_t kTracedRequests = 20;
/// Untimed requests served by the warm-up platform before any timing.
constexpr size_t kWarmupRequests = 2;
/// stream-emnist update policy: a model update every 5th request (20% of
/// requests, well clear of the 10% above the p90).
constexpr size_t kEmnistUpdateEvery = 5;
constexpr size_t kEmnistMinUpdateSamples = 200;
/// serve-cifar100 load: an open loop at a fixed light rate (under half the
/// closed-loop capacity on 4 quiet cores, so a busy host does not saturate
/// it) for --seconds, but at least kMinStreamRequests requests; then a
/// closed loop for a fixed time. Both use this many connections.
constexpr double kServeRateQps = 3.0;
constexpr size_t kServeConnections = 4;
constexpr double kServeCapacitySeconds = 6.0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- JSON out

using store::JsonValue;

JsonValue Num(double v) { return JsonValue::Number(v); }
JsonValue Str(const std::string& v) { return JsonValue::String(v); }

template <typename T>
JsonValue Nums(const std::vector<T>& values) {
  JsonValue out = JsonValue::Array();
  for (const T& v : values) {
    out.items().push_back(JsonValue::Number(static_cast<double>(v)));
  }
  return out;
}

/// An object with `fields`, in order.
JsonValue Object(
    std::initializer_list<std::pair<const char*, JsonValue>> fields) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : fields) out.Set(key, value);
  return out;
}

// ------------------------------------------------------------------ inputs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 0;
  std::string work_dir;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--threads") {
      args->threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->out.empty() && args->seconds > 0.0 && args->threads > 0;
}

/// The inventory plus the cycled request stream of one workload.
struct Stream {
  Dataset inventory;
  std::vector<Dataset> requests;
};

/// The paper's workload for `task` (data/workload.h). The data lake is the
/// task's own: class geometry, inventory, its label noise and the drift of
/// arriving data come from the paper profile, so every seed serves the
/// same general model. `seed` draws what arrives: the incremental pool, its
/// label noise and its carving into requests. The pool is carved into the
/// paper's stream shape `draws` times, so the cycled stream holds many
/// distinct request sizes instead of one short, seed-specific list.
Stream MakeStream(PaperDataset task, uint64_t seed, size_t draws) {
  const WorkloadConfig config = PaperWorkloadConfig(task, kNoiseRate);
  Rng geometry_rng(config.profile.seed);
  const ClassGeometry geometry =
      MakeClassGeometry(config.profile, geometry_rng);
  Rng lake_rng(config.seed);
  Rng rng(config.seed * 1000003ull + seed);

  const size_t per_class = config.profile.samples_per_class;
  const size_t inventory_per_class = static_cast<size_t>(std::lround(
      config.inventory_fraction * static_cast<double>(per_class)));
  const TransitionMatrix transition = TransitionMatrix::PairAsymmetric(
      config.profile.num_classes, config.noise_rate);
  Stream stream;
  stream.inventory = SampleFromGeometry(geometry, inventory_per_class,
                                        config.profile.sample_stddev,
                                        lake_rng);
  ApplyLabelNoise(&stream.inventory, transition, lake_rng);
  const ClassGeometry drifted = ShiftGeometry(
      geometry, config.profile.incremental_domain_shift, lake_rng);

  Dataset pool = SampleFromGeometry(drifted, per_class - inventory_per_class,
                                    config.profile.sample_stddev, rng,
                                    stream.inventory.size());
  ApplyLabelNoise(&pool, transition, rng);
  for (size_t d = 0; d < draws; ++d) {
    for (Dataset& request : BuildIncrementalDatasets(pool, config.stream,
                                                     rng)) {
      stream.requests.push_back(std::move(request));
    }
  }
  return stream;
}

// ------------------------------------------------------------ span record

/// The benchmark's own spans around its calls into the library: name,
/// start and end (seconds since the recorder was made), the span that
/// caused it and the request it belongs to. Kept in memory; written out
/// with the result.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Returns the new span's id (0 when recording is off).
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({spans_.size() + 1, parent, request, name,
                      SecondsBetween(origin_, start),
                      SecondsBetween(origin_, end)});
    return spans_.size();
  }

  JsonValue ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonValue out = JsonValue::Array();
    for (const Span& s : spans_) {
      out.items().push_back(Object({{"id", Num(s.id)},
                                    {"parent", Num(s.parent)},
                                    {"request", Num(s.request)},
                                    {"name", Str(s.name)},
                                    {"start", Num(s.start)},
                                    {"end", Num(s.end)}}));
    }
    return out;
  }

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    std::string name;
    double start;
    double end;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- requests

/// One request as the caller saw it.
struct RequestSample {
  std::string part;          ///< "stream", "open" or "closed"
  uint64_t id = 0;           ///< request id, as on the benchmark's spans
  size_t stream_index = 0;   ///< which Stream::requests entry was sent
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;   ///< from the call (or the scheduled send)
  double late_ms = 0.0;      ///< open loop: actual send - scheduled send
  double done_s = 0.0;       ///< completion, seconds since phase start
  bool update = false;       ///< the request carried a model update
  double queue_s = 0.0;      ///< pipeline queue wait, when reported
  double process_s = 0.0;    ///< DataPlatform::Process time, when reported
  std::vector<size_t> noisy;
  std::vector<size_t> clean;
};

JsonValue RequestJson(const RequestSample& r) {
  return Object({{"part", Str(r.part)},
                 {"id", Num(r.id)},
                 {"index", Num(r.stream_index)},
                 {"ok", JsonValue::Bool(r.ok)},
                 {"error", Str(r.error)},
                 {"latency_ms", Num(r.latency_ms)},
                 {"late_ms", Num(r.late_ms)},
                 {"done_s", Num(r.done_s)},
                 {"update", JsonValue::Bool(r.update)},
                 {"queue_s", Num(r.queue_s)},
                 {"process_s", Num(r.process_s)},
                 {"noisy", Nums(r.noisy)},
                 {"clean", Nums(r.clean)}});
}

template <typename Index>
void CopyPartition(const std::vector<Index>& noisy,
                   const std::vector<Index>& clean, RequestSample* sample) {
  sample->noisy.assign(noisy.begin(), noisy.end());
  sample->clean.assign(clean.begin(), clean.end());
}

/// Snapshot writes issued through the pipeline hook, with their timings.
struct SnapshotLog {
  std::mutex mu;
  size_t captures = 0;
  size_t writes = 0;
  size_t failures = 0;
  std::vector<double> capture_ms;
  std::vector<double> write_ms;
};

/// Wraps platform.BeginSnapshot(dir) so every capture and every deferred
/// write is timed, counted and (when tracing) recorded as a span.
std::function<StatusOr<std::function<Status()>>()> SnapshotHook(
    DataPlatform* platform, const std::string& dir, SnapshotLog* log,
    SpanRecorder* spans) {
  return [platform, dir, log, spans]() -> StatusOr<std::function<Status()>> {
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::function<Status()>> deferred = platform->BeginSnapshot(dir);
    const Clock::time_point t1 = Clock::now();
    spans->Record("store.snapshot_capture", 0, 0, t0, t1);
    {
      std::lock_guard<std::mutex> lock(log->mu);
      ++log->captures;
      log->capture_ms.push_back(SecondsBetween(t0, t1) * 1e3);
      if (!deferred.ok()) ++log->failures;
    }
    if (!deferred.ok()) return deferred.status();
    auto write = std::make_shared<std::function<Status()>>(
        std::move(deferred).value());
    return std::function<Status()>([write, log, spans]() {
      const Clock::time_point w0 = Clock::now();
      const Status status = (*write)();
      const Clock::time_point w1 = Clock::now();
      spans->Record("store.snapshot_write", 0, 0, w0, w1);
      std::lock_guard<std::mutex> lock(log->mu);
      ++log->writes;
      log->write_ms.push_back(SecondsBetween(w0, w1) * 1e3);
      if (!status.ok()) ++log->failures;
      return status;
    });
  };
}

/// Everything one phase of a workload produced.
struct PhaseResult {
  std::vector<RequestSample> requests;
  double wall_s = 0.0;          ///< closed-loop stream wall time
  double open_wall_s = 0.0;     ///< serve-cifar100 open loop
  size_t snapshot_captures = 0;
  size_t snapshot_writes = 0;
  size_t snapshot_failures = 0;
  std::vector<double> snapshot_capture_ms;
  std::vector<double> snapshot_write_ms;
  JsonValue setup_telemetry;    ///< traced phase: RunReport of the set-up
  JsonValue telemetry;          ///< traced phase: RunReport of the stream
  JsonValue spans;              ///< traced phase: benchmark spans
  JsonValue stats;              ///< platform stats after the phase

  void TakeSnapshotLog(SnapshotLog& log) {
    std::lock_guard<std::mutex> lock(log.mu);
    snapshot_captures = log.captures;
    snapshot_writes = log.writes;
    snapshot_failures = log.failures;
    snapshot_capture_ms = log.capture_ms;
    snapshot_write_ms = log.write_ms;
  }

  JsonValue ToJson() const {
    JsonValue reqs = JsonValue::Array();
    for (const RequestSample& r : requests) {
      reqs.items().push_back(RequestJson(r));
    }
    return Object({{"requests", reqs},
                   {"wall_s", Num(wall_s)},
                   {"open_wall_s", Num(open_wall_s)},
                   {"snapshot_captures", Num(snapshot_captures)},
                   {"snapshot_writes", Num(snapshot_writes)},
                   {"snapshot_failures", Num(snapshot_failures)},
                   {"snapshot_capture_ms", Nums(snapshot_capture_ms)},
                   {"snapshot_write_ms", Nums(snapshot_write_ms)},
                   {"setup_telemetry", setup_telemetry},
                   {"telemetry", telemetry},
                   {"spans", spans},
                   {"stats", stats}});
  }
};

JsonValue StatsJson(const PlatformStats& s) {
  return Object({{"requests", Num(s.requests)},
                 {"model_updates", Num(s.model_updates)},
                 {"update_retries", Num(s.update_retries)}});
}

/// Closed-loop stream through an in-process RequestPipeline, one caller.
/// Serves `count` requests when given, else until `seconds` have passed
/// and at least kMinStreamRequests were served.
PhaseResult RunPipelineStream(DataPlatform* platform, const Stream& stream,
                              const std::string& store_dir, double seconds,
                              size_t count, SpanRecorder* spans) {
  SnapshotLog log;
  PipelineConfig config;
  config.snapshot_capture = SnapshotHook(platform, store_dir, &log, spans);
  PhaseResult out;
  const Clock::time_point start = Clock::now();
  {
    RequestPipeline pipeline(platform, config);
    uint64_t updates_before = platform->stats().model_updates;
    for (size_t i = 0;; ++i) {
      if (count > 0 ? i >= count
                    : i >= kMinStreamRequests &&
                          SecondsBetween(start, Clock::now()) >= seconds) {
        break;
      }
      RequestSample sample;
      sample.part = "stream";
      sample.id = i + 1;
      sample.stream_index = i % stream.requests.size();
      const Clock::time_point t0 = Clock::now();
      PipelineResponse response =
          pipeline.Submit(stream.requests[sample.stream_index]).get();
      const Clock::time_point t1 = Clock::now();
      spans->Record("bench.request", 0, i + 1, t0, t1);
      sample.latency_ms = SecondsBetween(t0, t1) * 1e3;
      sample.done_s = SecondsBetween(start, t1);
      sample.queue_s = response.queue_seconds;
      sample.process_s = response.process_seconds;
      sample.update = response.stats_after.model_updates > updates_before;
      updates_before = response.stats_after.model_updates;
      sample.ok = response.result.ok();
      if (sample.ok) {
        CopyPartition(response.result->noisy_indices,
                      response.result->clean_indices, &sample);
      } else {
        sample.error = response.result.status().ToString();
      }
      out.requests.push_back(std::move(sample));
    }
    const Status drained = pipeline.Shutdown();
    if (!drained.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   drained.ToString().c_str());
    }
  }
  out.wall_s = SecondsBetween(start, Clock::now());
  out.TakeSnapshotLog(log);
  out.stats = StatsJson(platform->stats());
  return out;
}

/// Closed-loop stream of direct DataPlatform::Process calls, one caller.
PhaseResult RunDirectStream(DataPlatform* platform, const Stream& stream,
                            double seconds, size_t count,
                            SpanRecorder* spans) {
  PhaseResult out;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : i >= kMinStreamRequests &&
                        SecondsBetween(start, Clock::now()) >= seconds) {
      break;
    }
    RequestSample sample;
    sample.part = "stream";
    sample.id = i + 1;
    sample.stream_index = i % stream.requests.size();
    const uint64_t updates_before = platform->stats().model_updates;
    const Clock::time_point t0 = Clock::now();
    StatusOr<DetectionResult> result =
        platform->Process(stream.requests[sample.stream_index]);
    const Clock::time_point t1 = Clock::now();
    const uint64_t request_span =
        spans->Record("bench.request", 0, i + 1, t0, t1);
    spans->Record("enld.process", request_span, i + 1, t0, t1);
    sample.latency_ms = SecondsBetween(t0, t1) * 1e3;
    sample.process_s = SecondsBetween(t0, t1);
    sample.done_s = SecondsBetween(start, t1);
    sample.update = platform->stats().model_updates > updates_before;
    sample.ok = result.ok();
    if (sample.ok) {
      CopyPartition(result->noisy_indices, result->clean_indices, &sample);
    } else {
      sample.error = result.status().ToString();
    }
    out.requests.push_back(std::move(sample));
  }
  out.wall_s = SecondsBetween(start, Clock::now());
  out.stats = StatsJson(platform->stats());
  return out;
}

RequestSample WireDetect(rpc::RpcClient* client, const Stream& stream,
                         size_t slot, uint64_t request_id,
                         Clock::time_point scheduled,
                         Clock::time_point phase_start,
                         SpanRecorder* spans) {
  RequestSample sample;
  sample.id = request_id;
  sample.stream_index = slot % stream.requests.size();
  const Clock::time_point sent = Clock::now();
  StatusOr<rpc::WireDetectResponse> response =
      client->Detect(stream.requests[sample.stream_index], -1.0, request_id);
  const Clock::time_point done = Clock::now();
  const uint64_t request_span =
      spans->Record("bench.request", 0, request_id, scheduled, done);
  spans->Record("rpc.client_detect", request_span, request_id, sent, done);
  sample.latency_ms = SecondsBetween(scheduled, done) * 1e3;
  sample.late_ms = SecondsBetween(scheduled, sent) * 1e3;
  sample.done_s = SecondsBetween(phase_start, done);
  if (!response.ok()) {
    sample.error = response.status().ToString();
  } else if (!response->service_status.ok()) {
    sample.error = response->service_status.ToString();
  } else if (response->request_id != request_id) {
    sample.error = "response carries another request id";
  } else {
    sample.ok = true;
    sample.queue_s = response->queue_seconds;
    sample.process_s = response->process_seconds;
    CopyPartition(response->noisy_indices, response->clean_indices, &sample);
  }
  return sample;
}

/// `connections` clients send the next slot as soon as both the slot's
/// scheduled time has come and their previous request returned. With
/// `gap_s` > 0 this is an open loop (slot i is due at start + i * gap);
/// with 0 every slot is due at once, i.e. back-to-back closed loops, ended
/// by `stop_after_s` (or by `slots`).
std::vector<RequestSample> RunWireLoad(int port, const Stream& stream,
                                       size_t connections, size_t slots,
                                       double gap_s, double stop_after_s,
                                       uint64_t first_request_id,
                                       const std::string& part,
                                       Clock::time_point start,
                                       SpanRecorder* spans) {
  std::vector<std::vector<RequestSample>> per_worker(connections);
  std::atomic<size_t> next_slot{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      rpc::ClientConfig config;
      config.port = port;
      rpc::RpcClient client(config);
      const Status connected = client.Connect();
      (void)connected;  // A failed connect surfaces as a failed Detect.
      while (true) {
        const size_t slot = next_slot.fetch_add(1);
        if (slot >= slots) break;
        Clock::time_point scheduled = start;
        if (gap_s > 0.0) {
          scheduled += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(gap_s * static_cast<double>(slot)));
          std::this_thread::sleep_until(scheduled);
        } else {
          scheduled = Clock::now();
          if (stop_after_s > 0.0 &&
              SecondsBetween(start, scheduled) >= stop_after_s) {
            break;
          }
        }
        RequestSample sample =
            WireDetect(&client, stream, first_request_id + slot,
                       first_request_id + slot, scheduled, start, spans);
        sample.part = part;
        per_worker[w].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<RequestSample> out;
  for (auto& samples : per_worker) {
    for (RequestSample& s : samples) out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const RequestSample& a, const RequestSample& b) {
              return a.done_s < b.done_s;
            });
  return out;
}

// ------------------------------------------------------------ layer replay

/// Per-call seconds of `fn`, `samples` times, each the mean over `inner`
/// back-to-back calls.
std::vector<double> TimeCalls(size_t samples, size_t inner,
                              const std::function<void()>& fn) {
  std::vector<double> out;
  fn();  // Warm caches and scratch buffers.
  for (size_t s = 0; s < samples; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < inner; ++i) fn();
    out.push_back(SecondsBetween(t0, Clock::now()) /
                  static_cast<double>(inner));
  }
  return out;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform() - 0.5);
  }
  return m;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Calls each layer's public functions with the shapes and inputs a real
/// request of this workload uses: the request of median size from the
/// stream, its I' (candidate rows whose label the request carries), the
/// served model's weights and the traced phase's median training-set size.
JsonValue LayerReplay(DataPlatform* platform, const Stream& stream,
                      double train_set_rows, uint64_t seed) {
  MlpModel* served = platform->framework().general_model();
  const std::vector<size_t> dims = served->layer_dims();
  Rng init_rng(seed);
  MlpModel model(dims, init_rng);
  model.SetWeights(served->GetWeights());

  std::vector<size_t> order(stream.requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return stream.requests[a].size() < stream.requests[b].size();
  });
  const Dataset& request = stream.requests[order[order.size() / 2]];

  const Dataset& candidate = platform->framework().candidate_set();
  std::vector<bool> in_request(static_cast<size_t>(candidate.num_classes),
                               false);
  for (int label : request.ObservedLabelSet()) in_request[label] = true;
  std::vector<size_t> iprime_rows;
  for (size_t i = 0; i < candidate.size(); ++i) {
    const int y = candidate.observed_labels[i];
    if (y != kMissingLabel && in_request[y]) iprime_rows.push_back(i);
  }
  const Dataset iprime = candidate.Subset(iprime_rows);

  // GEMM at the MLP shapes: batch 64 through every layer, and the forward
  // chain at the I' row count.
  Rng rng(seed + 1);
  const size_t batch = 64;
  const size_t layers = dims.size() - 1;
  std::vector<Matrix> x_b, w, g_b, x_v;
  for (size_t l = 0; l < layers; ++l) {
    x_b.push_back(RandomMatrix(batch, dims[l], rng));
    w.push_back(RandomMatrix(dims[l], dims[l + 1], rng));
    g_b.push_back(RandomMatrix(batch, dims[l + 1], rng));
    x_v.push_back(RandomMatrix(iprime.size(), dims[l], rng));
  }
  Matrix out;
  const std::vector<double> gemm_fwd = TimeCalls(15, 40, [&] {
    for (size_t l = 0; l < layers; ++l) MatMul(x_b[l], w[l], &out);
  });
  const std::vector<double> gemm_wgrad = TimeCalls(15, 40, [&] {
    for (size_t l = 0; l < layers; ++l) MatMulAt(x_b[l], g_b[l], &out);
  });
  const std::vector<double> gemm_igrad = TimeCalls(15, 40, [&] {
    for (size_t l = 0; l < layers; ++l) MatMulBt(g_b[l], w[l], &out);
  });
  const std::vector<double> gemm_view = TimeCalls(9, 2, [&] {
    for (size_t l = 0; l < layers; ++l) MatMul(x_v[l], w[l], &out);
  });

  // nn: one fine-tune step configuration over a request-sized train set.
  const size_t train_rows = std::min(
      candidate.size(),
      std::max<size_t>(batch, static_cast<size_t>(train_set_rows)));
  std::vector<size_t> train_positions(train_rows);
  for (size_t i = 0; i < train_rows; ++i) train_positions[i] = i;
  const Dataset train = candidate.Subset(train_positions);
  TrainConfig step = platform->config().enld.finetune;
  step.epochs = 1;
  step.select_best_on_validation = false;
  const size_t steps_per_call = (train_rows + step.batch_size - 1) /
                                step.batch_size;
  const std::vector<double> train_call = TimeCalls(7, 1, [&] {
    TrainModel(&model, train, nullptr, step);
  });
  const std::vector<double> predict = TimeCalls(9, 3, [&] {
    model.Predict(request.features);
  });
  Matrix logits, features;
  const std::vector<double> view = TimeCalls(9, 2, [&] {
    model.Forward(iprime.features, &logits, &features);
  });

  // knn: the per-class index over I' features, queried with D's features.
  const std::vector<int> predicted = model.Predict(iprime.features);
  std::vector<size_t> agree_rows;
  for (size_t i = 0; i < iprime.size(); ++i) {
    if (predicted[i] == iprime.observed_labels[i]) agree_rows.push_back(i);
  }
  const Matrix iprime_features = model.Features(iprime.features);
  const Matrix request_features = model.Features(request.features);
  const std::vector<double> knn_build = TimeCalls(9, 3, [&] {
    ClassKnnIndex index(iprime_features, iprime.observed_labels, agree_rows,
                        iprime.num_classes);
  });
  const ClassKnnIndex index(iprime_features, iprime.observed_labels,
                            agree_rows, iprime.num_classes);
  std::vector<size_t> query_rows(request.size());
  for (size_t i = 0; i < query_rows.size(); ++i) query_rows[i] = i;
  const std::vector<double> knn_query = TimeCalls(9, 3, [&] {
    index.NearestBatch(request.observed_labels, request_features, query_rows,
                       platform->config().enld.contrastive_k);
  });

  // enld admission and the rpc request codec.
  const std::vector<double> admission = TimeCalls(9, 20, [&] {
    ScreenDataset(request, 1);
  });
  const std::string payload = rpc::EncodeDetectRequest(request);
  const std::vector<double> encode = TimeCalls(9, 20, [&] {
    rpc::EncodeDetectRequest(request);
  });
  bool decoded_ok = true;
  const std::vector<double> decode = TimeCalls(9, 20, [&] {
    decoded_ok = decoded_ok && rpc::DecodeDetectRequest(payload).ok();
  });

  return Object({{"dims", Nums(dims)},
                 {"batch", Num(batch)},
                 {"view_rows", Num(iprime.size())},
                 {"request_rows", Num(request.size())},
                 {"train_rows", Num(train_rows)},
                 {"steps_per_train_call", Num(steps_per_call)},
                 {"knn_queries_per_call", Num(query_rows.size())},
                 {"payload_bytes", Num(payload.size())},
                 {"decode_ok", JsonValue::Bool(decoded_ok)},
                 {"gemm_fwd_b64_s", Nums(gemm_fwd)},
                 {"gemm_wgrad_b64_s", Nums(gemm_wgrad)},
                 {"gemm_igrad_b64_s", Nums(gemm_igrad)},
                 {"gemm_fwd_view_s", Nums(gemm_view)},
                 {"train_call_s", Nums(train_call)},
                 {"predict_s", Nums(predict)},
                 {"view_s", Nums(view)},
                 {"knn_build_s", Nums(knn_build)},
                 {"knn_query_s", Nums(knn_query)},
                 {"admission_s", Nums(admission)},
                 {"encode_s", Nums(encode)},
                 {"decode_s", Nums(decode)}});
}

double TrainSetRowsMedian() {
  const telemetry::MetricsSnapshot metrics =
      telemetry::MetricsRegistry::Global().Snapshot();
  auto it = metrics.series.find("detect/train_set_size");
  return it == metrics.series.end() ? 0.0 : Median(it->second);
}

/// The program's span tree and counters since the last reset.
JsonValue CaptureTelemetry() {
  StatusOr<JsonValue> report = JsonValue::Parse(
      telemetry::RunReportToJson(telemetry::CaptureRunReport()));
  if (!report.ok()) {
    std::fprintf(stderr, "unreadable telemetry report: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report).value();
}

// --------------------------------------------------------------- workloads

struct WorkloadResult {
  std::vector<double> setup_s;
  PhaseResult timed;
  PhaseResult traced;
  JsonValue replay;
  double peak_rss_mb = 0.0;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::unique_ptr<DataPlatform> FreshPlatform(const DataPlatformConfig& config,
                                            const Stream& stream) {
  auto platform = std::make_unique<DataPlatform>(config);
  const Status init = platform->Initialize(stream.inventory);
  if (!init.ok()) {
    std::fprintf(stderr, "Initialize failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  return platform;
}

/// `timed` fresh platforms are set up after one untimed warm-up set-up,
/// which also serves kWarmupRequests requests. Returns the last platform;
/// set-up seconds go to `setup_s`.
std::unique_ptr<DataPlatform> InitializePlatforms(
    const DataPlatformConfig& config, const Stream& stream, size_t timed,
    std::vector<double>* setup_s) {
  std::unique_ptr<DataPlatform> platform;
  for (size_t i = 0; i <= timed; ++i) {
    platform.reset();
    const Clock::time_point t0 = Clock::now();
    platform = FreshPlatform(config, stream);
    const double seconds = SecondsBetween(t0, Clock::now());
    if (i == 0) {
      for (size_t r = 0; r < kWarmupRequests; ++r) {
        (void)platform->Process(stream.requests[r]);
      }
    } else {
      setup_s->push_back(seconds);
    }
  }
  return platform;
}

std::unique_ptr<DataPlatform> RestorePlatform(const DataPlatformConfig& config,
                                              const std::string& dir,
                                              double* seconds) {
  auto platform = std::make_unique<DataPlatform>(config);
  const Clock::time_point t0 = Clock::now();
  const Status restored = platform->RestoreFromSnapshot(dir);
  *seconds = SecondsBetween(t0, Clock::now());
  if (!restored.ok()) {
    std::fprintf(stderr, "RestoreFromSnapshot failed: %s\n",
                 restored.ToString().c_str());
    std::exit(1);
  }
  return platform;
}

/// Sets up the traced phase's platform with `setup`, keeping the program's
/// telemetry of the set-up apart from that of the requests that follow.
std::unique_ptr<DataPlatform> TracedSetup(
    const std::function<std::unique_ptr<DataPlatform>()>& setup,
    JsonValue* setup_telemetry) {
  telemetry::ResetTelemetry();
  std::unique_ptr<DataPlatform> platform = setup();
  *setup_telemetry = CaptureTelemetry();
  telemetry::ResetTelemetry();
  return platform;
}

WorkloadResult RunStreamEmnist(const Args& args, const Stream& stream) {
  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kEmnist);
  config.update_every = kEmnistUpdateEvery;
  config.min_update_samples = kEmnistMinUpdateSamples;
  config.snapshot_keep_last = 2;

  WorkloadResult result;
  SpanRecorder off(false);
  std::unique_ptr<DataPlatform> platform =
      InitializePlatforms(config, stream, 3, &result.setup_s);
  result.timed = RunPipelineStream(platform.get(), stream,
                                   args.work_dir + "/store-timed",
                                   args.seconds, 0, &off);
  result.peak_rss_mb = PeakRssMb();
  platform.reset();
  if (!args.trace) return result;

  // Traced phase: the same requests from the same fresh state, so every
  // partition must match the timed phase's.
  SpanRecorder spans(true);
  JsonValue setup_telemetry;
  std::unique_ptr<DataPlatform> traced = TracedSetup(
      [&] { return FreshPlatform(config, stream); }, &setup_telemetry);
  result.traced = RunPipelineStream(
      traced.get(), stream, args.work_dir + "/store-traced", 0.0,
      std::min(kTracedRequests, result.timed.requests.size()), &spans);
  result.traced.setup_telemetry = std::move(setup_telemetry);
  result.traced.telemetry = CaptureTelemetry();
  result.traced.spans = spans.ToJson();
  result.replay = LayerReplay(traced.get(), stream, TrainSetRowsMedian(),
                              args.seed);
  return result;
}

WorkloadResult RunServeCifar100(const Args& args, const Stream& stream) {
  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kCifar100);

  WorkloadResult result;
  SpanRecorder off(false);
  std::unique_ptr<DataPlatform> platform =
      InitializePlatforms(config, stream, 3, &result.setup_s);
  {
    rpc::RpcServer server(platform.get(), rpc::ServerConfig());
    if (!server.Start().ok()) {
      std::fprintf(stderr, "server failed to start\n");
      std::exit(1);
    }
    // Open loop at a fixed light rate, timed from each scheduled send.
    const size_t open_requests = std::max<size_t>(
        kMinStreamRequests, std::llround(kServeRateQps * args.seconds));
    const Clock::time_point open_start =
        Clock::now() + std::chrono::milliseconds(20);
    result.timed.requests =
        RunWireLoad(server.port(), stream, kServeConnections, open_requests,
                    1.0 / kServeRateQps, 0.0, 1, "open", open_start, &off);
    result.timed.open_wall_s =
        result.timed.requests.empty()
            ? 0.0
            : result.timed.requests.back().done_s;
    // Closed loop: every connection sends back-to-back.
    const Clock::time_point closed_start = Clock::now();
    std::vector<RequestSample> closed = RunWireLoad(
        server.port(), stream, kServeConnections, SIZE_MAX / 2, 0.0,
        kServeCapacitySeconds, 1 + open_requests, "closed", closed_start,
        &off);
    result.timed.wall_s = SecondsBetween(closed_start, Clock::now());
    for (RequestSample& s : closed) {
      result.timed.requests.push_back(std::move(s));
    }
    (void)server.Shutdown();
  }
  result.timed.stats = StatsJson(platform->stats());
  result.peak_rss_mb = PeakRssMb();
  platform.reset();
  if (!args.trace) return result;

  SpanRecorder spans(true);
  std::unique_ptr<DataPlatform> traced = TracedSetup(
      [&] { return FreshPlatform(config, stream); },
      &result.traced.setup_telemetry);
  {
    rpc::RpcServer server(traced.get(), rpc::ServerConfig());
    if (!server.Start().ok()) {
      std::fprintf(stderr, "server failed to start\n");
      std::exit(1);
    }
    const Clock::time_point start = Clock::now();
    result.traced.requests =
        RunWireLoad(server.port(), stream, kServeConnections,
                    kTracedRequests, 0.0, 0.0, 1, "closed", start, &spans);
    result.traced.wall_s = SecondsBetween(start, Clock::now());
    (void)server.Shutdown();
  }
  result.traced.stats = StatsJson(traced->stats());
  result.traced.telemetry = CaptureTelemetry();
  result.traced.spans = spans.ToJson();
  result.replay = LayerReplay(traced.get(), stream, TrainSetRowsMedian(),
                              args.seed);
  return result;
}

WorkloadResult RunRestartTiny(const Args& args, const Stream& stream) {
  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kTinyImagenet);
  const std::string store = args.work_dir + "/snapshot";

  // Untimed preparation: set up, serve the warm-up requests, snapshot.
  {
    std::unique_ptr<DataPlatform> prepared = FreshPlatform(config, stream);
    for (size_t r = 0; r < kWarmupRequests; ++r) {
      (void)prepared->Process(stream.requests[r]);
    }
    const Status saved = prepared->SaveSnapshot(store);
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveSnapshot failed: %s\n",
                   saved.ToString().c_str());
      std::exit(1);
    }
  }

  WorkloadResult result;
  SpanRecorder off(false);
  std::unique_ptr<DataPlatform> platform;
  for (size_t i = 0; i <= 9; ++i) {
    double seconds = 0.0;
    platform = RestorePlatform(config, store, &seconds);
    if (i > 0) result.setup_s.push_back(seconds);
  }
  result.timed = RunDirectStream(platform.get(), stream, args.seconds, 0,
                                 &off);
  result.peak_rss_mb = PeakRssMb();
  platform.reset();
  if (!args.trace) return result;

  SpanRecorder spans(true);
  JsonValue setup_telemetry;
  std::unique_ptr<DataPlatform> traced = TracedSetup(
      [&] {
        double seconds = 0.0;
        return RestorePlatform(config, store, &seconds);
      },
      &setup_telemetry);
  result.traced = RunDirectStream(
      traced.get(), stream, 0.0,
      std::min(kTracedRequests, result.timed.requests.size()), &spans);
  result.traced.setup_telemetry = std::move(setup_telemetry);
  result.traced.telemetry = CaptureTelemetry();
  result.traced.spans = spans.ToJson();
  result.replay = LayerReplay(traced.get(), stream, TrainSetRowsMedian(),
                              args.seed);
  return result;
}

JsonValue StreamJson(const Stream& stream) {
  JsonValue sizes = JsonValue::Array();
  JsonValue truth = JsonValue::Array();
  for (const Dataset& d : stream.requests) {
    sizes.items().push_back(Num(d.size()));
    truth.items().push_back(Nums(d.GroundTruthNoisyIndices()));
  }
  return Object({{"sizes", sizes}, {"truth_noisy", truth}});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: enld_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --threads T --work_dir DIR --out FILE\n");
    return 2;
  }
  SetParallelThreads(args.threads);

  PaperDataset task;
  size_t draws = 0;
  WorkloadResult (*run)(const Args&, const Stream&) = nullptr;
  if (args.workload == "stream-emnist") {
    task = PaperDataset::kEmnist;
    draws = 10;
    run = RunStreamEmnist;
  } else if (args.workload == "serve-cifar100") {
    task = PaperDataset::kCifar100;
    draws = 10;
    run = RunServeCifar100;
  } else if (args.workload == "restart-tiny") {
    task = PaperDataset::kTinyImagenet;
    draws = 5;
    run = RunRestartTiny;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const Stream stream = MakeStream(task, args.seed, draws);
  const WorkloadResult result = run(args, stream);

  const JsonValue doc = Object(
      {{"workload", Str(args.workload)},
       {"seed", Num(args.seed)},
       {"threads", Num(ParallelThreadCount())},
       {"build_flags", Str(ENLD_BENCH_BUILD_FLAGS)},
       {"stream", StreamJson(stream)},
       {"setup_s", Nums(result.setup_s)},
       {"peak_rss_mb", Num(result.peak_rss_mb)},
       {"timed", result.timed.ToJson()},
       {"traced", args.trace ? result.traced.ToJson() : JsonValue()},
       {"replay", result.replay}});
  std::ofstream out(args.out);
  out << doc.ToString();
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
