#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <set>

namespace stbench {

int Tracer::begin(std::string_view name, int parent, std::int64_t unit) {
  const std::int64_t now = to_ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(name), now, now, parent, unit});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  const std::int64_t now = to_ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

int Tracer::add(std::string_view name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t unit,
                Kind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{std::string(name), to_ns(start), to_ns(end), parent, unit, kind});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::add_duration(std::string_view name, Clock::time_point start,
                         double seconds, int parent, std::int64_t unit,
                         Kind kind) {
  const std::int64_t begin = to_ns(start);
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{std::string(name), begin, begin + length, parent, unit, kind});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    Layer& layer = out[spans_[i].name];
    layer.total_s += dur;
    layer.self_s += dur - child_s[i];
    ++layer.spans;
  }
  return out;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  static const char* const kKinds[] = {"wall", "shadow", "metric"};
  const std::lock_guard<std::mutex> lock(mutex_);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit
        << ",\"kind\":\"" << kKinds[static_cast<int>(s.kind)] << "\"}\n";
  }
}

void report_layers(const Tracer& tracer, const std::string& root_span,
                   const std::vector<LayerRow>& rows, RunResult& result,
                   double units) {
  const std::map<std::string, Tracer::Layer> layers = tracer.layers();
  const auto root_it = layers.find(root_span);
  const Tracer::Layer root =
      root_it == layers.end() ? Tracer::Layer{} : root_it->second;
  if (units <= 0) units = static_cast<double>(root.spans);
  const double total_s = root.total_s;
  const auto per_unit_ms = [&](double s) {
    return units > 0 ? s * 1000.0 / units : 0.0;
  };
  const auto share_pct = [&](double s) {
    return total_s > 0 ? 100.0 * s / total_s : 0.0;
  };
  const auto line = [](const char* fmt, auto... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return std::string(buf);
  };

  result.notes.push_back(line(
      "per-layer (traced): %lld %s units, %.3f ms wall per unit",
      static_cast<long long>(units), result.unit_name.c_str(),
      per_unit_ms(total_s)));
  result.notes.push_back(line("  %-34s %12s %8s %10s", "layer (span)",
                              "ms/unit", "share", "count/unit"));
  std::set<std::string> listed{root_span};
  double self_sum = 0.0;
  for (const LayerRow& row : rows) {
    listed.insert(row.span);
    const auto it = layers.find(row.span);
    const Tracer::Layer layer =
        it == layers.end() ? Tracer::Layer{} : it->second;
    const double s = row.inclusive ? layer.total_s : layer.self_s;
    if (!row.inclusive) self_sum += layer.self_s;
    result.notes.push_back(line(
        "  %-34s %12.4f %7.2f%% %10.3f%s", row.span.c_str(), per_unit_ms(s),
        share_pct(s), units > 0 ? static_cast<double>(layer.spans) / units
                                : 0.0,
        row.inclusive ? "  (inclusive)" : ""));
    if (!row.metric.empty())
      result.layers[row.metric] = Metric{per_unit_ms(s), "ms"};
  }
  // Spans no row names still belong to some unit's tree; show them so the
  // shares always add up.
  for (const auto& [name, layer] : layers) {
    if (listed.count(name) != 0) continue;
    self_sum += layer.self_s;
    result.notes.push_back(line("  %-34s %12.4f %7.2f%% %10.3f  (other)",
                                name.c_str(), per_unit_ms(layer.self_s),
                                share_pct(layer.self_s),
                                units > 0 ? static_cast<double>(layer.spans) /
                                                units
                                          : 0.0));
  }
  self_sum += root.self_s;
  result.notes.push_back(line("  %-34s %12.4f %7.2f%%", "residual (unit self)",
                              per_unit_ms(root.self_s),
                              share_pct(root.self_s)));
  result.notes.push_back(line(
      "  accounted: self shares + residual = %.2f%% of unit wall time",
      share_pct(self_sum)));
  result.layers["trace.residual_ms"] = Metric{per_unit_ms(root.self_s), "ms"};
  result.layers["trace.unit_ms"] = Metric{per_unit_ms(total_s), "ms"};
}

void report_pricing_layers(const stormtrack::RedistCounters& before,
                           const stormtrack::RedistCounters& after,
                           const stormtrack::ExecModelCacheStats* exec0,
                           const stormtrack::ExecModelCacheStats* exec1,
                           double units, RunResult& result) {
  const auto per_unit = [&](std::int64_t delta) {
    return units > 0 ? static_cast<double>(delta) / units : 0.0;
  };
  const auto ratio = [](std::int64_t hits, std::int64_t lookups) {
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  };
  auto& L = result.layers;
  const auto count = [&](const char* name, std::int64_t delta) {
    L[name] = {per_unit(delta), "count"};
  };
  count("redist.cost_queries", after.cost_queries - before.cost_queries);
  count("redist.plans_built", after.plans_built - before.plans_built);
  count("redist.messages_materialized",
        after.messages_materialized - before.messages_materialized);
  count("redist.intersection_probes",
        after.intersection_probes - before.intersection_probes);
  count("redist.moved_blocks_enumerated",
        after.moved_blocks_enumerated - before.moved_blocks_enumerated);
  const std::int64_t pricing_hits =
      after.cost_cache_hits - before.cost_cache_hits;
  const std::int64_t pricing_lookups =
      pricing_hits + after.cost_cache_misses - before.cost_cache_misses;
  L["redist.pricing_cache_hit_ratio"] = {ratio(pricing_hits, pricing_lookups),
                                         "ratio"};
  count("redist.pricing_cache_lookups", pricing_lookups);
  std::int64_t exec_hits = 0;
  std::int64_t exec_lookups = 0;
  if (exec0 != nullptr && exec1 != nullptr) {
    exec_hits = exec1->hits() - exec0->hits();
    exec_lookups = exec1->lookups - exec0->lookups;
  }
  L["perfmodel.exec_cache_hit_ratio"] = {ratio(exec_hits, exec_lookups),
                                         "ratio"};
  count("perfmodel.exec_cache_lookups", exec_lookups);
}

void report_overhead(const Window& plain, const Window& traced,
                     RunResult& result) {
  const double a = plain.rate();
  const double b = traced.rate();
  result.layers["trace.overhead_pct"] = {a > 0 ? 100.0 * (a - b) / a : 0.0,
                                         "%"};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing: untraced %.4g %ss/s, traced %.4g %ss/s", a,
                result.unit_name.c_str(), b, result.unit_name.c_str());
  result.notes.push_back(buf);
}

}  // namespace stbench
