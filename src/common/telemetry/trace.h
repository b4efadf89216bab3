#ifndef ENLD_COMMON_TELEMETRY_TRACE_H_
#define ENLD_COMMON_TELEMETRY_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace enld {
namespace telemetry {

/// Hierarchical trace spans: `ENLD_TRACE_SPAN("detect/iteration")` opens a
/// span nested under the innermost span active on the current thread and
/// accumulates (entry count, total wall-clock seconds, named stats) into a
/// process-wide aggregated tree. Repeated entries of the same name under
/// the same parent merge into one node, so a loop that opens
/// "detect/iteration" t times yields one node with count == t.
///
/// Spans are coarse by design — one per pipeline phase, iteration or
/// training call, never per element — so enter/exit takes a global mutex
/// without measurable contention. Spans opened on a thread with no active
/// span (e.g. a pool worker) attach to the root. Code running inside
/// ParallelFor bodies should record into MetricsRegistry counters instead.
///
/// TraceTree::Reset() must not race active spans; the experiment runner
/// resets between detector runs, when no instrumented code is on the stack.

/// Value-type copy of one aggregated span node.
struct SpanSnapshot {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;   // Includes time spent in children.
  std::map<std::string, double> stats;  // Per-span counters.
  std::vector<SpanSnapshot> children;   // First-entry order.

  /// Child with `name`, or nullptr. Convenience for benches/tests.
  const SpanSnapshot* Child(const std::string& child_name) const;
  /// Maximum depth below this node (0 for a leaf).
  size_t Depth() const;
};

class TraceTree {
 public:
  struct Node;  // Implementation detail, public for internal helpers.

  static TraceTree& Global();

  /// Copies the aggregated tree; the root is a synthetic node named "run"
  /// with zero time whose children are the top-level spans.
  SpanSnapshot Snapshot() const;

  /// Drops every node. Must not be called while spans are active.
  void Reset();

  /// Pre-order walk summing total_seconds by span *name* (not path), in
  /// first-seen order: a span named "detect/sampling" contributes the same
  /// key whether it sits under "detect" or under "detect/iteration".
  std::vector<std::pair<std::string, double>> FlattenByName() const;

 private:
  friend class ScopedSpan;
  friend void CurrentSpanStat(const std::string& stat, double delta);
  TraceTree();

  mutable std::mutex mu_;
  std::unique_ptr<Node> root_;
};

/// RAII span handle; use via ENLD_TRACE_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Adds `delta` to this span's named stat (e.g. items processed).
  void AddStat(const std::string& stat, double delta);

 private:
  void* node_;       // TraceTree::Node*
  void* previous_;   // The span this one suspended on this thread.
  Stopwatch watch_;
};

/// Adds to the innermost active span of the calling thread; drops the stat
/// when no span is active (e.g. un-instrumented call paths in tests).
void CurrentSpanStat(const std::string& stat, double delta);

}  // namespace telemetry
}  // namespace enld

#define ENLD_TELEMETRY_CONCAT_INNER(a, b) a##b
#define ENLD_TELEMETRY_CONCAT(a, b) ENLD_TELEMETRY_CONCAT_INNER(a, b)

/// Opens a span for the rest of the enclosing scope.
#define ENLD_TRACE_SPAN(name)                                       \
  ::enld::telemetry::ScopedSpan ENLD_TELEMETRY_CONCAT(enld_span_,   \
                                                      __LINE__)(name)

#endif  // ENLD_COMMON_TELEMETRY_TRACE_H_
