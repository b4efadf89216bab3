"""Statistics, output checks and metric definitions of the repository benchmark.

enld_bench (the C++ workload runner) writes raw samples only; everything
here turns them into the metrics listed in BENCHMARK.json. The helpers are
kept free of I/O so tests/test_benchlib.py can pin them.
"""

import hashlib
import math
import statistics

# Samples a tail percentile must leave strictly above it.
MIN_SAMPLES_ABOVE = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be reported."""


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it. A failed request is passed in as math.inf, so it
    counts as a miss of every latency limit instead of being dropped."""
    if not values:
        raise InsufficientSamples("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(values, q, min_above=MIN_SAMPLES_ABOVE):
    """percentile(values, q), refused unless at least `min_above` samples lie
    strictly above it. Returns (value, samples, samples_above)."""
    value = percentile(values, q)
    above = sum(1 for v in values if v > value)
    if above < min_above:
        raise InsufficientSamples(
            "p%g of %d samples leaves %d above it; %d needed"
            % (q * 100, len(values), above, min_above))
    return value, len(values), above


def median(values):
    return statistics.median(values) if values else 0.0


class Ratio:
    """A ratio that keeps its base, so a reader can tell 0/0 from 0/1000."""

    def __init__(self, part, base):
        self.part = part
        self.base = base

    @property
    def value(self):
        return self.part / self.base if self.base else 0.0

    def __str__(self):
        return "%.4f (%g of %g)" % (self.value, self.part, self.base)


def request_digest(index, noisy, clean):
    """Digest of one request's clean/noisy partition."""
    text = "%d|%s|%s" % (index, ",".join(map(str, sorted(noisy))),
                         ",".join(map(str, sorted(clean))))
    return hashlib.sha256(text.encode()).hexdigest()


def stream_digest(requests):
    """Digest over every request's partition, in stream order."""
    h = hashlib.sha256()
    for r in requests:
        h.update(request_digest(r["index"], r["noisy"], r["clean"]).encode())
    return h.hexdigest()


def detection_f1(detected, truth):
    """F1 of a detected noisy set against the generator's ground truth, with
    the library's convention that two empty sets score 1."""
    detected, truth = set(detected), set(truth)
    if not detected and not truth:
        return 1.0
    hits = len(detected & truth)
    if hits == 0:
        return 0.0
    precision = hits / len(detected)
    recall = hits / len(truth)
    return 2 * precision * recall / (precision + recall)


def tree_self_times(node):
    """Self seconds per span name over an aggregated span tree (the
    program's RunReport "spans"): a node's total minus its children's
    totals, summed over every node of that name."""
    self_s = {}

    def walk(n):
        children = n.get("children", [])
        own = n.get("total_seconds", 0.0) - sum(
            c.get("total_seconds", 0.0) for c in children)
        self_s[n["name"]] = self_s.get(n["name"], 0.0) + max(own, 0.0)
        for c in children:
            walk(c)

    walk(node)
    return self_s


def tree_totals(node, name):
    """(total seconds, entry count) over every node called `name`."""
    total, count = 0.0, 0
    stack = [node]
    while stack:
        n = stack.pop()
        if n["name"] == name:
            total += n.get("total_seconds", 0.0)
            count += n.get("count", 0)
        stack.extend(n.get("children", []))
    return total, count


def check_partition(request, rows):
    """Problems with one OK request's partition of a `rows`-row dataset."""
    noisy, clean = request["noisy"], request["clean"]
    problems = []
    if set(noisy) & set(clean):
        problems.append("a row is both clean and noisy")
    if len(set(noisy)) != len(noisy) or len(set(clean)) != len(clean):
        problems.append("a row is listed twice")
    if set(noisy) | set(clean) != set(range(rows)):
        problems.append("the partition does not cover the request's rows")
    return problems


def check_run(raw):
    """Output check of one run. Returns (attempted, failures) where failures
    lists one line per failed operation: a request that is not OK or whose
    partition is malformed, a failed snapshot write, or a traced request
    whose partition differs from the timed run's same request."""
    sizes = raw["stream"]["sizes"]
    attempted, failures = 0, []
    phases = [("timed", raw["timed"])]
    if raw.get("traced"):
        phases.append(("traced", raw["traced"]))
    for phase_name, phase in phases:
        for n, r in enumerate(phase["requests"]):
            attempted += 1
            if not r["ok"]:
                failures.append("%s request %d: %s" % (phase_name, n + 1,
                                                       r["error"] or "failed"))
                continue
            for p in check_partition(r, sizes[r["index"]]):
                failures.append("%s request %d: %s" % (phase_name, n + 1, p))
        attempted += phase["snapshot_captures"]
        for k in range(phase["snapshot_failures"]):
            failures.append("%s snapshot write failed (%d)" % (phase_name,
                                                               k + 1))
    for n in digest_mismatches(raw):
        failures.append("traced request %d: partition differs from the "
                        "timed run" % (n + 1))
    if raw.get("replay") and not raw["replay"]["decode_ok"]:
        failures.append("replay: a request payload failed to decode")
    return attempted, failures


def single_caller(raw):
    return raw["workload"] in ("stream-emnist", "restart-tiny")


def digest_mismatches(raw):
    """Positions where the traced phase's partition differs from the timed
    phase's. Only single-caller workloads have a fixed order to compare."""
    traced = raw.get("traced")
    if not traced or not single_caller(raw):
        return []
    timed = raw["timed"]["requests"]
    out = []
    for n, r in enumerate(traced["requests"]):
        t = timed[n]
        if request_digest(t["index"], t["noisy"], t["clean"]) != \
                request_digest(r["index"], r["noisy"], r["clean"]):
            out.append(n)
    return out


# ------------------------------------------------------------- end to end

def latencies(requests):
    """Per-request latency in ms, a failed request as math.inf."""
    return [r["latency_ms"] if r["ok"] else math.inf for r in requests]


def latency_requests(raw):
    """The requests the latency percentiles are taken over: the open loop on
    serve-cifar100, the single caller's stream elsewhere."""
    part = "open" if raw["workload"] == "serve-cifar100" else "stream"
    return [r for r in raw["timed"]["requests"] if r["part"] == part]


def rate_requests(raw):
    """The closed-loop requests datasets_per_s counts: the 4 back-to-back
    connections on serve-cifar100, the single caller elsewhere."""
    part = "closed" if raw["workload"] == "serve-cifar100" else "stream"
    return [r for r in raw["timed"]["requests"] if r["part"] == part]


def mean_f1(raw, requests):
    truth = raw["stream"]["truth_noisy"]
    scores = [detection_f1(r["noisy"], truth[r["index"]])
              for r in requests if r["ok"]]
    return statistics.fmean(scores) if scores else 0.0


def end_to_end(raw):
    """The end-to-end metrics: name -> (value, unit, samples)."""
    timed = raw["timed"]
    lat_reqs = latency_requests(raw)
    lat = latencies(lat_reqs)
    p90, n90, _ = tail_percentile(lat, 0.9)
    completed = sum(1 for r in rate_requests(raw) if r["ok"])
    return {
        "setup_s": (median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "request_p50_ms": (percentile(lat, 0.5), "ms", len(lat)),
        "request_p90_ms": (p90, "ms", n90),
        "datasets_per_s": (completed / timed["wall_s"], "1/s", completed),
        "detect_f1": (mean_f1(raw, timed["requests"]), "ratio",
                      sum(1 for r in timed["requests"] if r["ok"])),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB", 1),
    }


def extra_end_to_end(raw, attempted, failed):
    """End-to-end figures printed beside the metrics: those not defined on
    every workload (or zero on a healthy run), with their bases."""
    timed = raw["timed"]
    out = {"failed_ratio": (str(Ratio(failed, attempted)), "", attempted)}
    if raw["workload"] == "stream-emnist":
        updates = [r["latency_ms"] for r in timed["requests"]
                   if r["ok"] and r["update"]]
        out["update_request_ms"] = (median(updates), "ms", len(updates))
    if raw["workload"] == "serve-cifar100":
        done = sum(1 for r in rate_requests(raw) if r["ok"])
        out["serve_capacity_qps"] = (done / timed["wall_s"], "1/s", done)
        opened = latency_requests(raw)
        late = [r["late_ms"] for r in opened]
        out["loadgen.late_ms_p90"] = (percentile(late, 0.9), "ms", len(late))
        out["open_loop_achieved_qps"] = (
            sum(1 for r in opened if r["ok"]) / timed["open_wall_s"], "1/s",
            len(opened))
    if single_caller(raw):
        out["partition_digest"] = (stream_digest(timed["requests"])[:16], "",
                                   len(timed["requests"]))
    return out


# -------------------------------------------------------------- per layer

def _gemm_shapes(replay):
    dims = [int(d) for d in replay["dims"]]
    return list(zip(dims[:-1], dims[1:]))


def _gflops(flops, seconds):
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def per_layer(raw):
    """The per-layer metrics of a traced run: name -> (value, unit, base),
    where base names what a ratio or per-request figure was divided by.
    Metrics of a layer this workload does not reach read 0."""
    timed, traced, replay = raw["timed"], raw["traced"], raw["replay"]
    report, setup_report = traced["telemetry"], traced["setup_telemetry"]
    counters = report["metrics"]["counters"]
    reqs = traced["requests"]
    n = len(reqs)
    spans = report["spans"]
    workload = raw["workload"]
    out = {}

    def put(name, value, unit, base=""):
        out[name] = (float(value), unit, base)

    def per_request(counter):
        return counters.get(counter, 0) / n if n else 0.0

    # common: GEMM at the MLP shapes, counts from shapes x calls, the pool.
    shapes = _gemm_shapes(replay)
    batch = replay["batch"]
    rows = replay["view_rows"]
    flops_b = sum(2 * batch * i * o for i, o in shapes)
    put("common.gemm_fwd_b64_gflops",
        _gflops(flops_b, median(replay["gemm_fwd_b64_s"])), "GFLOP/s")
    put("common.gemm_wgrad_b64_gflops",
        _gflops(flops_b, median(replay["gemm_wgrad_b64_s"])), "GFLOP/s")
    put("common.gemm_igrad_b64_gflops",
        _gflops(flops_b, median(replay["gemm_igrad_b64_s"])), "GFLOP/s")
    put("common.gemm_fwd_view_gflops",
        _gflops(sum(2 * rows * i * o for i, o in shapes),
                median(replay["gemm_fwd_view_s"])), "GFLOP/s",
        "%d rows" % rows)
    row_flops = sum(2 * i * o for i, o in shapes)
    train_samples = counters.get("train/samples", 0)
    steps = counters.get("train/steps", 0)
    votes = counters.get("detect/votes_cast", 0)
    _, predict_calls = tree_totals(spans, "detect/voting")
    weights = sum(i * o for i, o in shapes)
    # Training: forward, weight gradient and input gradient per sample;
    # voting: one forward per voted row. Bytes: every operand and result
    # of each call, weights once per call.
    flops = 3 * row_flops * train_samples + row_flops * votes
    act = sum(i + o for i, o in shapes)
    bytes_moved = 4 * (3 * (batch * act + weights) * steps
                       + votes * act + weights * predict_calls)
    put("common.gemm_flops_per_request", flops / n if n else 0, "count",
        "%d requests" % n)
    put("common.gemm_bytes_per_request", bytes_moved / n if n else 0,
        "bytes", "%d requests" % n)
    put("common.pool_queue_wait_ms", per_request("pool/queue_wait_us") / 1e3,
        "ms", "per request")
    put("common.pool_busy_ms", per_request("pool/execute_us") / 1e3, "ms",
        "per request")
    put("common.pool_tasks_per_request", per_request("pool/tasks"), "count",
        "per request")

    # nn: replayed calls plus the program's training spans and counters.
    put("nn.train_step_us", median(replay["train_call_s"]) * 1e6
        / replay["steps_per_train_call"], "us",
        "%d-row train set" % replay["train_rows"])
    put("nn.train_steps_per_request", per_request("train/steps"), "count",
        "per request")
    train_s, _ = tree_totals(spans, "train")
    put("nn.train_ms_per_request", train_s * 1e3 / n if n else 0, "ms",
        "per request")
    put("nn.predict_ms", median(replay["predict_s"]) * 1e3, "ms",
        "%d rows" % replay["request_rows"])
    put("nn.view_ms", median(replay["view_s"]) * 1e3, "ms", "%d rows" % rows)
    setup_train, _ = tree_totals(setup_report["spans"], "setup/general_model")
    put("nn.setup_train_s", setup_train, "s")
    update_s, update_n = tree_totals(spans, "update")
    put("nn.update_train_s", update_s / update_n if update_n else 0, "s",
        "%d updates" % update_n)

    # knn
    put("knn.index_build_us", median(replay["knn_build_s"]) * 1e6, "us")
    put("knn.query_us", median(replay["knn_query_s"]) * 1e6
        / replay["knn_queries_per_call"], "us", "per query")
    put("knn.trees_built_per_request", per_request("knn/trees_built"),
        "count", "per request")
    put("knn.queries_per_request", per_request("knn/queries"), "count",
        "per request")

    # enld
    put("enld.process_ms", median([r["process_s"] for r in reqs if r["ok"]])
        * 1e3, "ms")
    self_s = tree_self_times(spans)
    for phase in ("finetune", "voting", "inference", "warmup", "sampling"):
        put("enld.%s_self_ms" % phase,
            self_s.get("detect/" + phase, 0.0) * 1e3 / n if n else 0, "ms",
            "per request")
    put("enld.admission_us", median(replay["admission_s"]) * 1e6, "us")
    view = Ratio(counters.get("cache/view_hits", 0),
                 counters.get("cache/view_hits", 0)
                 + counters.get("cache/view_misses", 0))
    index = Ratio(counters.get("cache/index_hits", 0),
                  counters.get("cache/index_hits", 0)
                  + counters.get("cache/index_misses", 0))
    put("enld.cache_view_hit_ratio", view.value, "ratio", str(view))
    put("enld.cache_index_hit_ratio", index.value, "ratio", str(index))
    pipelined = workload != "restart-tiny"
    put("enld.pipeline_queue_wait_ms",
        median([r["queue_s"] for r in reqs if r["ok"]]) * 1e3
        if pipelined else 0, "ms")
    put("enld.pipeline_batches", counters.get("pipeline/batches", 0), "count")
    stats = timed["stats"]
    put("enld.updates_per_run", stats["model_updates"], "count",
        "%d requests" % stats["requests"])
    deferral = Ratio(stats["update_retries"],
                     stats["update_retries"] + stats["model_updates"])
    put("enld.update_deferral_ratio", deferral.value, "ratio", str(deferral))
    fallback = Ratio(counters.get("detect/sampling_fallbacks", 0),
                     counters.get("detect/resample_rounds", 0))
    put("enld.sampling_fallback_ratio", fallback.value, "ratio",
        str(fallback))
    updates = [r["latency_ms"] for r in timed["requests"]
               if r["ok"] and r["update"]]
    put("enld.update_request_ms", median(updates), "ms",
        "%d requests" % len(updates))

    # store
    put("store.snapshot_capture_ms", median(traced["snapshot_capture_ms"]),
        "ms", "%d captures" % len(traced["snapshot_capture_ms"]))
    put("store.snapshot_write_ms", median(traced["snapshot_write_ms"]), "ms",
        "%d writes" % len(traced["snapshot_write_ms"]))
    writes = traced["snapshot_writes"]
    put("store.snapshot_bytes",
        counters.get("store/bytes_written", 0) / writes if writes else 0,
        "bytes", "per write")
    put("store.write_failures",
        timed["snapshot_failures"] + traced["snapshot_failures"], "count")
    put("store.restore_ms",
        median(raw["setup_s"]) * 1e3 if workload == "restart-tiny" else 0,
        "ms")

    # rpc
    wire = workload == "serve-cifar100"
    client_ms = {s["request"]: (s["end"] - s["start"]) * 1e3
                 for s in traced["spans"] if s["name"] == "rpc.client_detect"}
    overhead = [client_ms[r["id"]] - (r["queue_s"] + r["process_s"]) * 1e3
                for r in reqs if r["ok"] and r["id"] in client_ms]
    put("rpc.client_detect_ms", median(list(client_ms.values())), "ms",
        "%d calls" % len(client_ms))
    put("rpc.overhead_ms", median(overhead), "ms",
        "client wall - queue - process")
    put("rpc.bytes_per_request",
        (counters.get("rpc/bytes_read", 0)
         + counters.get("rpc/bytes_written", 0)) / n if wire and n else 0,
        "bytes", "read + written")
    put("rpc.encode_us", median(replay["encode_s"]) * 1e6, "us",
        "%d-byte payload" % replay["payload_bytes"])
    put("rpc.decode_us", median(replay["decode_s"]) * 1e6, "us")
    put("rpc.wire_errors", counters.get("rpc/wire_errors", 0), "count")
    put("rpc.client_retries", counters.get("retry/backoffs", 0), "count")

    # validity of the run itself
    late = [r["late_ms"] for r in timed["requests"] if r["part"] == "open"]
    put("loadgen.late_ms_p90", percentile(late, 0.9) if late else 0, "ms",
        "%d sends" % len(late))
    put("trace.overhead_ratio", overhead_ratio(raw), "ratio",
        "traced / untraced completions per second")
    return out


def overhead_ratio(raw):
    """Traced completions per second over untraced ones, on the same
    requests: the traced phase replays a prefix of the timed stream (or, on
    serve-cifar100, runs the same 4-connection closed loop)."""
    traced = raw["traced"]
    traced_rate = len(traced["requests"]) / traced["wall_s"]
    if raw["workload"] == "serve-cifar100":
        closed = rate_requests(raw)
        untraced_rate = len(closed) / raw["timed"]["wall_s"]
    else:
        prefix = raw["timed"]["requests"][:len(traced["requests"])]
        untraced_rate = len(prefix) / prefix[-1]["done_s"]
    return traced_rate / untraced_rate if untraced_rate else 0.0
