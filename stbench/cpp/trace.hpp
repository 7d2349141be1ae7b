#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run.
///
/// Spans are recorded only by the benchmark's own code, around its calls
/// into each layer's public functions. Each span has a name, start, end,
/// the span that caused it (its parent) and the unit of work it belongs to
/// (an interval, a session or an adaptation point). Spans stay in memory
/// and are written out as JSON lines when the run ends.
///
/// Two kinds of span are not wall-clock sub-intervals of their parent:
///  * shadow spans re-run a layer's public function on the same state
///    right after the real call (the layer runs inside a call the
///    benchmark cannot split, such as CoupledSimulation::advance);
///  * metric spans carry a duration the program measured itself (the
///    pipeline's stage.* timers).
/// Both are flagged in the output. A span's self time is its duration
/// minus its children's, so the self times of one unit's tree always sum
/// to the unit's root duration; a parent's self time is the residual its
/// children do not explain.

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "perfmodel/exec_model.hpp"
#include "redist/redistributor.hpp"

namespace stbench {

class Tracer {
 public:
  enum class Kind : std::uint8_t { kWall = 0, kShadow = 1, kMetric = 2 };

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< Index of the causing span, -1 for a unit root.
    std::int64_t unit = -1;
    Kind kind = Kind::kWall;
  };

  /// Per-name aggregate over all recorded spans.
  struct Layer {
    double self_s = 0.0;
    double total_s = 0.0;
    std::int64_t spans = 0;
  };

  /// Open a span starting now; returns its index (a parent handle).
  int begin(std::string_view name, int parent, std::int64_t unit);
  /// Close a span opened with begin().
  void end(int index);
  /// Record a finished span; returns its index (a parent handle).
  int add(std::string_view name, Clock::time_point start,
          Clock::time_point end, int parent, std::int64_t unit,
          Kind kind = Kind::kWall);
  /// Record a span of \p seconds starting at \p start (metric/shadow
  /// spans whose duration was measured elsewhere).
  int add_duration(std::string_view name, Clock::time_point start,
                   double seconds, int parent, std::int64_t unit,
                   Kind kind);

  /// Self and inclusive time per span name.
  [[nodiscard]] std::map<std::string, Layer> layers() const;

  /// One JSON object per line: name, start/end ns, parent, unit, kind.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One row of a per-layer table: a span name and how it is reported.
struct LayerRow {
  std::string span;    ///< Span name in the tracer.
  std::string metric;  ///< Per-layer metric name ("" = table only).
  bool inclusive = false;  ///< Report total instead of self time.
};

/// Build the per-layer report of one traced run: per row, self (or
/// inclusive) milliseconds per unit, share of the units' total wall time
/// and spans per unit; then the root residual. The shares of the self-time
/// rows plus the residual account for the total. Rows with a metric name
/// are copied into \p result.layers; lines go to \p result.notes.
/// \p units overrides the unit count when a root span covers several
/// units (0 = one unit per root span).
void report_layers(const Tracer& tracer, const std::string& root_span,
                   const std::vector<LayerRow>& rows, RunResult& result,
                   double units = 0.0);

/// Redistribution counter deltas per unit, and the two pricing-path cache
/// hit ratios with their bases (lookups per unit). \p exec0 / \p exec1 may
/// be null when the workload's execution model is out of reach (it then
/// reports 0 lookups).
void report_pricing_layers(const stormtrack::RedistCounters& before,
                           const stormtrack::RedistCounters& after,
                           const stormtrack::ExecModelCacheStats* exec0,
                           const stormtrack::ExecModelCacheStats* exec1,
                           double units, RunResult& result);

/// Tracing overhead: throughput of the untraced half against the traced
/// half of a traced run (trace.overhead_pct, plus a note).
void report_overhead(const Window& plain, const Window& traced,
                     RunResult& result);

}  // namespace stbench
