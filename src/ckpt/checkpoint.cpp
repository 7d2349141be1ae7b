#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/binary_io.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/crc32.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "fault/snapshot.hpp"
#include "util/fnv.hpp"

namespace stormtrack {

namespace ckptio {

// ---------------------------------------------------------------- encoders
//
// One put_/get_ pair per struct, composed bottom-up. Every get_ validates
// through the target type's own checked constructors (Allocation,
// AllocTree::from_raw, ...), so a checkpoint that passes the CRC but
// carries inconsistent state is still rejected with a field-level error.
// The pairs declared in codec.hpp are shared with the sweep journal; the
// rest are internal to the checkpoint format.

void put_rect(BinaryWriter& w, const Rect& r) {
  w.put_i32(r.x);
  w.put_i32(r.y);
  w.put_i32(r.w);
  w.put_i32(r.h);
}

Rect get_rect(BinaryReader& r, const char* what) {
  Rect out;
  out.x = r.get_i32(what);
  out.y = r.get_i32(what);
  out.w = r.get_i32(what);
  out.h = r.get_i32(what);
  return out;
}

void put_nest_spec(BinaryWriter& w, const NestSpec& spec) {
  w.put_i32(spec.id);
  put_rect(w, spec.region);
  w.put_i32(spec.shape.nx);
  w.put_i32(spec.shape.ny);
}

NestSpec get_nest_spec(BinaryReader& r) {
  NestSpec spec;
  spec.id = r.get_i32("nest id");
  spec.region = get_rect(r, "nest region");
  spec.shape.nx = r.get_i32("nest shape nx");
  spec.shape.ny = r.get_i32("nest shape ny");
  return spec;
}

void put_allocation(BinaryWriter& w, const Allocation& alloc) {
  w.put_i32(alloc.grid_px());
  w.put_i32(alloc.grid_py());
  w.put_count(alloc.rects().size());
  for (const auto& [nest, rect] : alloc.rects()) {
    w.put_i32(nest);
    put_rect(w, rect);
  }
}

Allocation get_allocation(BinaryReader& r) {
  const int grid_px = r.get_i32("allocation grid_px");
  const int grid_py = r.get_i32("allocation grid_py");
  const std::size_t n = r.get_count("allocation rectangles");
  std::map<NestId, Rect> rects;
  for (std::size_t i = 0; i < n; ++i) {
    const int nest = r.get_i32("allocation nest id");
    const Rect rect = get_rect(r, "allocation rect");
    ST_CHECK_MSG(rects.emplace(nest, rect).second,
                 "checkpoint allocation repeats nest id " << nest);
  }
  if (grid_px == 0 && grid_py == 0 && rects.empty()) return Allocation{};
  return Allocation(grid_px, grid_py, std::move(rects));
}

void put_tree(BinaryWriter& w, const AllocTree& tree) {
  const std::vector<AllocTree::Node>& nodes = tree.raw_nodes();
  w.put_count(nodes.size());
  for (const AllocTree::Node& n : nodes) {
    w.put_f64(n.weight);
    w.put_i32(n.parent);
    w.put_i32(n.left);
    w.put_i32(n.right);
    w.put_i32(n.nest);
    w.put_bool(n.free_slot);
    w.put_bool(n.alive);
  }
  w.put_i32(tree.root());
}

AllocTree get_tree(BinaryReader& r) {
  const std::size_t n = r.get_count("tree nodes");
  std::vector<AllocTree::Node> nodes(n);
  for (AllocTree::Node& node : nodes) {
    node.weight = r.get_f64("tree node weight");
    node.parent = r.get_i32("tree node parent");
    node.left = r.get_i32("tree node left");
    node.right = r.get_i32("tree node right");
    node.nest = r.get_i32("tree node nest");
    node.free_slot = r.get_bool("tree node free_slot");
    node.alive = r.get_bool("tree node alive");
  }
  const int root = r.get_i32("tree root");
  return AllocTree::from_raw(std::move(nodes), root);
}

void put_metrics(BinaryWriter& w, const MetricsRegistry& metrics) {
  w.put_count(metrics.entries().size());
  for (const auto& [name, entry] : metrics.entries()) {
    w.put_string(name);
    w.put_f64(entry.seconds);
    w.put_i64(entry.count);
  }
}

MetricsRegistry get_metrics(BinaryReader& r) {
  MetricsRegistry metrics;
  const std::size_t n = r.get_count("metrics entries");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = r.get_string("metric name");
    MetricsRegistry::Entry entry;
    entry.seconds = r.get_f64("metric seconds");
    entry.count = r.get_i64("metric count");
    metrics.add_entry(name, entry);
  }
  return metrics;
}

void put_injector_stats(BinaryWriter& w, const FaultInjectorStats& s) {
  w.put_i64(s.split_read_faults);
  w.put_i64(s.payload_drops);
  w.put_i64(s.payload_corruptions);
  w.put_i64(s.task_faults);
}

FaultInjectorStats get_injector_stats(BinaryReader& r) {
  FaultInjectorStats s;
  s.split_read_faults = r.get_i64("stats split_read_faults");
  s.payload_drops = r.get_i64("stats payload_drops");
  s.payload_corruptions = r.get_i64("stats payload_corruptions");
  s.task_faults = r.get_i64("stats task_faults");
  return s;
}

void put_candidate_metrics(BinaryWriter& w, const CandidateMetrics& m) {
  w.put_f64(m.predicted_redist);
  w.put_f64(m.predicted_exec);
  w.put_f64(m.actual_redist);
  w.put_f64(m.actual_exec);
}

CandidateMetrics get_candidate_metrics(BinaryReader& r) {
  CandidateMetrics m;
  m.predicted_redist = r.get_f64("candidate predicted_redist");
  m.predicted_exec = r.get_f64("candidate predicted_exec");
  m.actual_redist = r.get_f64("candidate actual_redist");
  m.actual_exec = r.get_f64("candidate actual_exec");
  return m;
}

void put_traffic(BinaryWriter& w, const TrafficReport& t) {
  w.put_f64(t.modeled_time);
  w.put_i64(t.total_bytes);
  w.put_i64(t.hop_bytes);
  w.put_i64(t.local_bytes);
  w.put_i64(t.num_messages);
  w.put_i32(t.max_hops);
}

TrafficReport get_traffic(BinaryReader& r) {
  TrafficReport t;
  t.modeled_time = r.get_f64("traffic modeled_time");
  t.total_bytes = r.get_i64("traffic total_bytes");
  t.hop_bytes = r.get_i64("traffic hop_bytes");
  t.local_bytes = r.get_i64("traffic local_bytes");
  t.num_messages = r.get_i64("traffic num_messages");
  t.max_hops = r.get_i32("traffic max_hops");
  return t;
}

void put_outcome(BinaryWriter& w, const StepOutcome& o) {
  w.put_string(o.chosen);
  put_candidate_metrics(w, o.scratch);
  put_candidate_metrics(w, o.diffusion);
  put_candidate_metrics(w, o.committed);
  put_traffic(w, o.traffic);
  w.put_f64(o.overlap_fraction);
  w.put_i32(o.num_deleted);
  w.put_i32(o.num_retained);
  w.put_i32(o.num_inserted);
  put_allocation(w, o.allocation);
  w.put_bool(o.degraded);
  w.put_string(o.degradation);
  w.put_i32(o.ranks_lost);
}

StepOutcome get_outcome(BinaryReader& r) {
  StepOutcome o;
  o.chosen = r.get_string("outcome chosen");
  o.scratch = get_candidate_metrics(r);
  o.diffusion = get_candidate_metrics(r);
  o.committed = get_candidate_metrics(r);
  o.traffic = get_traffic(r);
  o.overlap_fraction = r.get_f64("outcome overlap_fraction");
  o.num_deleted = r.get_i32("outcome num_deleted");
  o.num_retained = r.get_i32("outcome num_retained");
  o.num_inserted = r.get_i32("outcome num_inserted");
  o.allocation = get_allocation(r);
  o.degraded = r.get_bool("outcome degraded");
  o.degradation = r.get_string("outcome degradation");
  o.ranks_lost = r.get_i32("outcome ranks_lost");
  return o;
}

void put_pipeline_state(BinaryWriter& w,
                        const AdaptationPipeline::PipelineState& s) {
  put_tree(w, s.tree);
  put_allocation(w, s.allocation);
  w.put_count(s.current.size());
  for (const NestSpec& spec : s.current) put_nest_spec(w, spec);
  w.put_i32(s.point_index);
  w.put_i32(s.view_px);
  w.put_i32(s.view_py);
  put_injector_stats(w, s.seen_faults);
  put_metrics(w, s.metrics);
  w.put_string(s.strategy_state);
  w.put_i32(s.resize_events_applied);  // format v2
}

AdaptationPipeline::PipelineState get_pipeline_state(BinaryReader& r) {
  AdaptationPipeline::PipelineState s;
  s.tree = get_tree(r);
  s.allocation = get_allocation(r);
  const std::size_t n = r.get_count("pipeline nests");
  s.current.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.current.push_back(get_nest_spec(r));
  s.point_index = r.get_i32("pipeline point_index");
  s.view_px = r.get_i32("pipeline view_px");
  s.view_py = r.get_i32("pipeline view_py");
  s.seen_faults = get_injector_stats(r);
  s.metrics = get_metrics(r);
  s.strategy_state = r.get_string("pipeline strategy_state");
  s.resize_events_applied = r.get_i32("pipeline resize_events_applied");
  return s;
}

void put_rng(BinaryWriter& w, const Xoshiro256::State& s) {
  for (const std::uint64_t word : s.s) w.put_u64(word);
  w.put_f64(s.spare);
  w.put_bool(s.have_spare);
}

Xoshiro256::State get_rng(BinaryReader& r) {
  Xoshiro256::State s;
  for (std::uint64_t& word : s.s) word = r.get_u64("rng word");
  s.spare = r.get_f64("rng gaussian spare");
  s.have_spare = r.get_bool("rng have_spare");
  return s;
}

void put_weather(BinaryWriter& w, const WeatherModel::State& s) {
  w.put_i32(s.step);
  put_rng(w, s.rng);
  w.put_count(s.systems.size());
  for (const CloudSystem& c : s.systems) {
    w.put_f64(c.cx);
    w.put_f64(c.cy);
    w.put_f64(c.sigma_x);
    w.put_f64(c.sigma_y);
    w.put_f64(c.intensity);
    w.put_f64(c.vx);
    w.put_f64(c.vy);
    w.put_f64(c.growth);
    w.put_i32(c.age);
    w.put_i32(c.lifetime);
  }
}

WeatherModel::State get_weather(BinaryReader& r) {
  WeatherModel::State s;
  s.step = r.get_i32("weather step");
  s.rng = get_rng(r);
  const std::size_t n = r.get_count("cloud systems");
  s.systems.resize(n);
  for (CloudSystem& c : s.systems) {
    c.cx = r.get_f64("cloud cx");
    c.cy = r.get_f64("cloud cy");
    c.sigma_x = r.get_f64("cloud sigma_x");
    c.sigma_y = r.get_f64("cloud sigma_y");
    c.intensity = r.get_f64("cloud intensity");
    c.vx = r.get_f64("cloud vx");
    c.vy = r.get_f64("cloud vy");
    c.growth = r.get_f64("cloud growth");
    c.age = r.get_i32("cloud age");
    c.lifetime = r.get_i32("cloud lifetime");
  }
  return s;
}

void put_tracker(BinaryWriter& w, const NestTracker::State& s) {
  w.put_i32(s.next_id);
  w.put_count(s.active.size());
  for (const NestSpec& spec : s.active) put_nest_spec(w, spec);
}

NestTracker::State get_tracker(BinaryReader& r) {
  NestTracker::State s;
  s.next_id = r.get_i32("tracker next_id");
  const std::size_t n = r.get_count("tracker active nests");
  s.active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.active.push_back(get_nest_spec(r));
  return s;
}

void put_coupled(BinaryWriter& w, const CoupledSimulation::State& s) {
  put_weather(w, s.driver.weather);
  put_tracker(w, s.driver.tracker);
  w.put_i32(s.driver.interval);
  put_pipeline_state(w, s.pipeline);
  // v3: the payload is an opaque workload blob — the codec never learns
  // whether it frames field grids or particle trajectories.
  w.put_string(s.workload);
  w.put_count(s.workload_state.size());
  w.put_bytes(s.workload_state);
  w.put_i32(s.interval);
}

CoupledSimulation::State get_coupled(BinaryReader& r) {
  CoupledSimulation::State s;
  s.driver.weather = get_weather(r);
  s.driver.tracker = get_tracker(r);
  s.driver.interval = r.get_i32("driver interval");
  s.pipeline = get_pipeline_state(r);
  s.workload = r.get_string("workload name");
  const std::size_t blob_size = r.get_count("workload state size");
  const std::span<const std::byte> blob =
      r.get_bytes(blob_size, "workload state blob");
  s.workload_state.assign(blob.begin(), blob.end());
  s.interval = r.get_i32("coupled interval");
  return s;
}

void put_injector(BinaryWriter& w, const FaultInjector::State& s) {
  w.put_i32(s.point);
  w.put_count(s.fired.size());
  for (const int count : s.fired) w.put_i32(count);
  put_injector_stats(w, s.stats);
}

FaultInjector::State get_injector(BinaryReader& r) {
  FaultInjector::State s;
  s.point = r.get_i32("injector point");
  const std::size_t n = r.get_count("injector firing counters");
  s.fired.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    s.fired.push_back(r.get_i32("injector firing count"));
  s.stats = get_injector_stats(r);
  return s;
}

void put_trace_result(BinaryWriter& w, const TraceRunResult& result) {
  w.put_count(result.outcomes.size());
  for (const StepOutcome& o : result.outcomes) put_outcome(w, o);
  put_metrics(w, result.metrics);
  w.put_u64(result.final_state_fingerprint);
}

TraceRunResult get_trace_result(BinaryReader& r) {
  TraceRunResult result;
  const std::size_t n = r.get_count("trace result outcomes");
  result.outcomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) result.outcomes.push_back(get_outcome(r));
  result.metrics = get_metrics(r);
  result.final_state_fingerprint = r.get_u64("trace result fingerprint");
  return result;
}

}  // namespace ckptio

using namespace ckptio;

std::string_view to_string(CheckpointKind kind) {
  switch (kind) {
    case CheckpointKind::kTraceRun:
      return "trace_run";
    case CheckpointKind::kCoupledRun:
      return "coupled_run";
  }
  return "unknown";
}

std::vector<std::byte> encode_checkpoint(const RunCheckpoint& ckpt) {
  // One buffer for the whole file: the header goes first with a zero size
  // field, patched once the payload length is known, and the CRC runs once
  // over the payload range. The bytes equal a separately framed payload.
  constexpr std::size_t kHeaderBytes = 16;  // magic, version, payload size
  BinaryWriter payload;
  // The workload blob dominates a coupled checkpoint; 64 KiB is headroom
  // for the rest (pipeline state, metrics), so the buffer rarely regrows.
  payload.reserve(kHeaderBytes + ckpt.coupled.workload_state.size() +
                  (std::size_t{64} << 10));
  payload.put_u32(kCheckpointMagic);
  payload.put_u32(kCheckpointVersion);
  payload.put_u64(0);
  payload.put_u8(static_cast<std::uint8_t>(ckpt.kind));
  payload.put_u64(ckpt.config_fingerprint);
  payload.put_i64(ckpt.step);
  payload.put_u64(ckpt.state_fingerprint);
  switch (ckpt.kind) {
    case CheckpointKind::kTraceRun:
      put_pipeline_state(payload, ckpt.pipeline);
      payload.put_count(ckpt.outcomes.size());
      for (const StepOutcome& o : ckpt.outcomes) put_outcome(payload, o);
      break;
    case CheckpointKind::kCoupledRun:
      put_coupled(payload, ckpt.coupled);
      break;
  }
  payload.put_bool(ckpt.has_injector);
  if (ckpt.has_injector) put_injector(payload, ckpt.injector);

  const std::span<const std::byte> body =
      std::span(payload.bytes()).subspan(kHeaderBytes);
  payload.patch_u64(kHeaderBytes - 8, body.size());
  const std::uint32_t crc = crc32(body);
  payload.put_u32(crc);
  return payload.take();
}

RunCheckpoint decode_checkpoint(std::span<const std::byte> bytes) {
  BinaryReader framed(bytes);
  const std::uint32_t magic = framed.get_u32("checkpoint magic");
  ST_CHECK_MSG(magic == kCheckpointMagic,
               "not a stormtrack checkpoint: bad magic 0x" << std::hex << magic
                                                           << std::dec);
  const std::uint32_t version = framed.get_u32("checkpoint version");
  ST_CHECK_MSG(version == kCheckpointVersion,
               "unsupported checkpoint version "
                   << version << " (this build reads version "
                   << kCheckpointVersion
                   << (version < kCheckpointVersion
                           ? "; pre-v3 checkpoints stored nest fields "
                             "inline and predate the pluggable workload "
                             "layer — re-run to produce a fresh checkpoint"
                           : "")
                   << ")");
  const std::uint64_t payload_size = framed.get_u64("checkpoint payload size");
  ST_CHECK_MSG(framed.remaining() >= payload_size + sizeof(std::uint32_t),
               "truncated checkpoint: payload claims "
                   << payload_size << " bytes but only " << framed.remaining()
                   << " remain in the file (torn write?)");
  const std::span<const std::byte> payload_bytes =
      framed.get_bytes(payload_size, "checkpoint payload");
  const std::uint32_t stored_crc = framed.get_u32("checkpoint CRC");
  const std::uint32_t computed_crc = crc32(payload_bytes);
  ST_CHECK_MSG(stored_crc == computed_crc,
               "checkpoint CRC mismatch: stored 0x"
                   << std::hex << stored_crc << " but payload hashes to 0x"
                   << computed_crc << std::dec << " — file is corrupt");
  ST_CHECK_MSG(framed.exhausted(), "checkpoint has " << framed.remaining()
                                                     << " trailing bytes "
                                                        "after the CRC");

  BinaryReader r(payload_bytes);
  RunCheckpoint ckpt;
  const std::uint8_t kind = r.get_u8("checkpoint kind");
  ST_CHECK_MSG(kind == static_cast<std::uint8_t>(CheckpointKind::kTraceRun) ||
                   kind ==
                       static_cast<std::uint8_t>(CheckpointKind::kCoupledRun),
               "unknown checkpoint kind " << static_cast<int>(kind));
  ckpt.kind = static_cast<CheckpointKind>(kind);
  ckpt.config_fingerprint = r.get_u64("config fingerprint");
  ckpt.step = r.get_i64("checkpoint step");
  ST_CHECK_MSG(ckpt.step >= 0,
               "checkpoint has negative step " << ckpt.step);
  ckpt.state_fingerprint = r.get_u64("state fingerprint");
  switch (ckpt.kind) {
    case CheckpointKind::kTraceRun: {
      ckpt.pipeline = get_pipeline_state(r);
      const std::size_t n = r.get_count("trace outcomes");
      ckpt.outcomes.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        ckpt.outcomes.push_back(get_outcome(r));
      break;
    }
    case CheckpointKind::kCoupledRun:
      ckpt.coupled = get_coupled(r);
      break;
  }
  ckpt.has_injector = r.get_bool("injector presence flag");
  if (ckpt.has_injector) ckpt.injector = get_injector(r);
  ST_CHECK_MSG(r.exhausted(), "checkpoint payload has "
                                  << r.remaining()
                                  << " undecoded trailing bytes");
  return ckpt;
}

void CheckpointPolicy::validate() const {
  ST_CHECK_MSG(!dir.empty(), "checkpoint policy has no directory");
  ST_CHECK_MSG(every >= 1,
               "checkpoint cadence must be >= 1, got " << every);
}

std::filesystem::path checkpoint_file_path(const std::filesystem::path& dir,
                                           std::int64_t step) {
  ST_CHECK_MSG(step >= 0 && step <= 99'999'999,
               "checkpoint step " << step << " outside the 8-digit file-name "
                                             "range");
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08lld.stck",
                static_cast<long long>(step));
  return dir / name;
}

namespace {

/// Step number encoded in a checkpoint file name, or nullopt for files that
/// are not checkpoints (temp siblings, strays).
std::optional<std::int64_t> parse_checkpoint_name(const std::string& name) {
  constexpr std::string_view prefix = "ckpt-";
  constexpr std::string_view suffix = ".stck";
  if (name.size() != prefix.size() + 8 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return std::nullopt;
  std::int64_t step = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    step = step * 10 + (name[i] - '0');
  }
  return step;
}

/// Checkpoint files in \p dir, newest (highest step) first.
std::vector<std::pair<std::int64_t, std::filesystem::path>>
list_checkpoints(const std::filesystem::path& dir) {
  std::vector<std::pair<std::int64_t, std::filesystem::path>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto step = parse_checkpoint_name(entry.path().filename().string());
    if (step.has_value()) files.emplace_back(*step, entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return files;
}

}  // namespace

RunCheckpoint load_checkpoint(const std::filesystem::path& file) {
  return decode_checkpoint(read_file_bytes(file));
}

std::optional<LatestCheckpoint> latest_valid_checkpoint(
    const std::filesystem::path& dir,
    std::optional<std::uint64_t> config_fingerprint) {
  LatestCheckpoint result;
  for (const auto& [step, path] : list_checkpoints(dir)) {
    try {
      RunCheckpoint ckpt = load_checkpoint(path);
      if (config_fingerprint.has_value() &&
          ckpt.config_fingerprint != *config_fingerprint) {
        std::ostringstream os;
        os << path.filename().string()
           << ": checkpoint was taken under a different run configuration "
              "(config fingerprint mismatch)";
        throw CheckError(os.str());
      }
      result.path = path;
      result.checkpoint = std::move(ckpt);
      return result;
    } catch (const std::exception& e) {
      ++result.invalid_skipped;
      result.errors.push_back(path.filename().string() + ": " + e.what());
    }
  }
  return std::nullopt;
}

int prune_checkpoints(const std::filesystem::path& dir, int keep,
                      std::int64_t newest) {
  if (keep <= 0) return 0;
  int kept = 0;
  int removed = 0;
  for (const auto& [step, path] : list_checkpoints(dir)) {
    if (step > newest || ++kept <= keep) continue;
    std::error_code ec;
    if (std::filesystem::remove(path, ec)) ++removed;
  }
  return removed;
}

// --------------------------------------------------------- CheckpointWriter

CheckpointWriter::CheckpointWriter(CheckpointPolicy policy,
                                   std::uint64_t config_fingerprint)
    : policy_(std::move(policy)), config_fp_(config_fingerprint) {
  policy_.validate();
}

void CheckpointWriter::resumed_at(std::int64_t step,
                                  std::uint64_t state_fingerprint) {
  last_step_ = step;
  last_fingerprint_ = state_fingerprint;
}

CheckpointWriter::~CheckpointWriter() {
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriter::write(
    std::int64_t step, MetricsRegistry& metrics, const FaultInjector* injector,
    const std::function<void(RunCheckpoint&)>& capture) {
  if (step == last_step_) return;  // double-write guard
  // Bump *before* capturing: the registry inside checkpoint k then already
  // counts write k, so a run resumed from it finishes with the same
  // ckpt.writes total as the uninterrupted run.
  metrics.add_count("ckpt.writes");
  RunCheckpoint ckpt;
  ckpt.config_fingerprint = config_fp_;
  ckpt.step = step;
  capture(ckpt);
  if (injector != nullptr) {
    ckpt.has_injector = true;
    ckpt.injector = injector->export_state();
  }
  std::vector<std::byte> frame = encode_checkpoint(ckpt);
  // Checkpoint k must be on disk before k+1 is handed over. Collecting
  // after the encode gives the previous write that much longer to finish.
  collect();
  bytes_written_ += static_cast<std::int64_t>(frame.size());
  ++writes_;
  last_step_ = step;
  last_fingerprint_ = ckpt.state_fingerprint;
  pending_.step = step;
  pending_.file = checkpoint_file_path(policy_.dir, step);
  pending_.frame = std::move(frame);
  // One thread per write, so an idle writer holds none.
  try {
    thread_ = std::thread([this] { write_pending(); });
  } catch (const std::system_error&) {
    write_pending();  // no thread to be had: write on this one
  }
}

void CheckpointWriter::write_pending() {
  try {
    write_file_atomic(pending_.file, pending_.frame);
    std::vector<std::byte>().swap(pending_.frame);
    pending_.pruned =
        prune_checkpoints(policy_.dir, policy_.keep, pending_.step);
  } catch (const std::exception& e) {
    pending_.error = std::make_exception_ptr(
        CheckError("checkpoint " + pending_.file.filename().string() +
                   " was not written: " + e.what()));
  }
}

void CheckpointWriter::collect() {
  if (thread_.joinable()) thread_.join();
  pruned_ += std::exchange(pending_.pruned, 0);
  if (pending_.error != nullptr) {
    // The step no longer counts as written, so it can be written again.
    last_step_ = -1;
    std::rethrow_exception(std::exchange(pending_.error, nullptr));
  }
}

// ------------------------------------------------------ CoupledCheckpointer

CoupledCheckpointer::CoupledCheckpointer(CheckpointPolicy policy,
                                         std::uint64_t config_fingerprint)
    : writer_(std::move(policy), config_fingerprint) {}

void CoupledCheckpointer::on_interval(CoupledSimulation& sim, int interval) {
  if (writer_.policy().due(interval)) write(sim);
}

void CoupledCheckpointer::on_resume(std::int64_t step,
                                    std::uint64_t state_fingerprint) {
  writer_.resumed_at(step, state_fingerprint);
}

std::uint64_t CoupledCheckpointer::checkpoint_now(CoupledSimulation& sim) {
  write(sim);
  writer_.collect();
  return writer_.last_fingerprint();
}

void CoupledCheckpointer::write(CoupledSimulation& sim) {
  writer_.write(sim.interval(), sim.metrics(), sim.config().manager.injector,
                [&sim](RunCheckpoint& ckpt) {
                  ckpt.kind = CheckpointKind::kCoupledRun;
                  ckpt.state_fingerprint = sim.state_fingerprint();
                  ckpt.coupled = sim.export_state();
                });
}

ResumeReport resume_run(
    const std::filesystem::path& dir, std::uint64_t config_fingerprint,
    CheckpointKind kind, FaultInjector* injector,
    const std::function<std::uint64_t(RunCheckpoint&)>& restore) {
  std::optional<LatestCheckpoint> latest =
      latest_valid_checkpoint(dir, config_fingerprint);
  if (!latest.has_value()) return {};
  RunCheckpoint& ckpt = latest->checkpoint;
  const std::string name = latest->path.filename().string();
  ST_CHECK_MSG(ckpt.kind == kind,
               "checkpoint " << name << " is a " << to_string(ckpt.kind)
                             << " checkpoint, not a "
                             << (kind == CheckpointKind::kCoupledRun
                                     ? "coupled-run"
                                     : "trace-run")
                             << " one");
  ST_CHECK_MSG(ckpt.has_injector == (injector != nullptr),
               "checkpoint " << name
                             << (ckpt.has_injector
                                     ? " carries fault-injector state but "
                                       "this run has no injector"
                                     : " has no fault-injector state but "
                                       "this run expects one"));
  const std::uint64_t restored = restore(ckpt);
  if (injector != nullptr) injector->import_state(ckpt.injector);
  ST_CHECK_MSG(restored == ckpt.state_fingerprint,
               "restored state fingerprint "
                   << restored << " does not match the fingerprint "
                   << ckpt.state_fingerprint << " recorded in " << name);
  return {true, ckpt.step, latest->invalid_skipped, latest->path};
}

ResumeReport resume_coupled(CoupledSimulation& sim,
                            const std::filesystem::path& dir,
                            std::uint64_t config_fingerprint) {
  std::uint64_t restored = 0;
  const ResumeReport report = resume_run(
      dir, config_fingerprint, CheckpointKind::kCoupledRun,
      sim.config().manager.injector, [&](RunCheckpoint& ckpt) {
        sim.import_state(std::move(ckpt.coupled));
        restored = sim.state_fingerprint();
        return restored;
      });
  if (report.resumed && sim.config().hook != nullptr)
    sim.config().hook->on_resume(report.step, restored);
  return report;
}

void add_fingerprint(Fingerprint& fp, const Machine& machine) {
  fp.add(std::string_view(machine.label()));
  fp.add(machine.grid_px());
  fp.add(machine.grid_py());
}

void add_fingerprint(Fingerprint& fp, const ManagerConfig& config) {
  fp.add(config.strategy_options.hysteresis_threshold);
  fp.add(config.steps_per_interval);
  // No setting changes the bytes per point the pipeline prices, but the
  // constant stays hashed in this slot: dropping it would change every
  // config fingerprint, and existing checkpoints and sweep journals would
  // no longer bind.
  fp.add(kDefaultBytesPerPoint);
  fp.add(config.initial_view_px);
  fp.add(config.initial_view_py);
  fp.add(static_cast<std::int64_t>(config.resize_schedule.size()));
  for (const ResizeEvent& e : config.resize_schedule) {
    fp.add(e.point);
    fp.add(e.px);
    fp.add(e.py);
  }
}

void add_fingerprint(Fingerprint& fp, const Trace& trace) {
  fp.add(static_cast<std::int64_t>(trace.size()));
  for (const std::vector<NestSpec>& event : trace) {
    fp.add(static_cast<std::int64_t>(event.size()));
    for (const NestSpec& spec : event) {
      fp.add(spec.id);
      add_fingerprint(fp, spec.region);
      fp.add(spec.shape.nx);
      fp.add(spec.shape.ny);
    }
  }
}

void add_fingerprint(Fingerprint& fp, const FaultPlan& plan) {
  fp.add(static_cast<std::int64_t>(plan.events.size()));
  for (const FaultEvent& e : plan.events) {
    fp.add(static_cast<int>(e.kind));
    fp.add(e.point);
    fp.add(e.rank);
    fp.add(e.peer);
    fp.add(e.index);
    fp.add(e.attempts);
    fp.add(std::string_view(e.site));
  }
}

void add_fingerprint(Fingerprint& fp, const RealScenarioConfig& sc) {
  fp.add(sc.num_intervals);
  fp.add(sc.sim_px);
  fp.add(sc.sim_py);
  fp.add(static_cast<std::uint64_t>(sc.seed));
  fp.add(sc.weather.domain.lon_min);
  fp.add(sc.weather.domain.lon_max);
  fp.add(sc.weather.domain.lat_min);
  fp.add(sc.weather.domain.lat_max);
  fp.add(sc.weather.domain.resolution_km);
  fp.add(sc.weather.spawn_probability);
  fp.add(sc.weather.min_systems);
  fp.add(sc.weather.max_systems);
  fp.add(sc.weather.qcloud_clear);
  fp.add(sc.weather.olr_clear);
  fp.add(sc.weather.olr_depression);
  fp.add(sc.weather.qcloud_opaque);
  fp.add(sc.pda.olr_threshold);
  fp.add(sc.pda.analysis_procs);
  fp.add(sc.pda.root);
  fp.add(sc.pda.max_read_retries);
}

std::uint64_t coupled_config_fingerprint(const Machine& machine,
                                         const CoupledConfig& config) {
  Fingerprint fp;
  add_fingerprint(fp, machine);
  fp.add(std::string_view(config.manager.strategy));
  // The workload and its tunables shape every payload byte downstream; a
  // checkpoint from one payload implementation must not resume another.
  fp.add(std::string_view(config.workload));
  fp.add(config.particles.particles_per_nest);
  fp.add(config.particles.vortex_scale);
  fp.add(config.particles.drift_u);
  fp.add(config.particles.drift_v);
  add_fingerprint(fp, config.manager);
  add_fingerprint(fp, config.scenario);
  if (config.manager.injector != nullptr)
    add_fingerprint(fp, config.manager.injector->plan());
  return fp.value();
}

}  // namespace stormtrack
