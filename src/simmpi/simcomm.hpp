#pragma once

/// \file simcomm.hpp
/// Simulated message-passing runtime.
///
/// The paper's experiments run MPI on Blue Gene/L and an Infiniband cluster;
/// neither is available here, so the library ships a deterministic simulated
/// communicator. A SimComm binds a Topology (physical hop distances + link
/// cost parameters) to a Mapping (rank→node placement) and prices message
/// phases with a single-port + contention model:
///
///  * point-to-point pair time  t(h, b) = α + h·per_hop + b/BW;
///  * MPI_Alltoallv phase time = max(serial, contention) with
///      serial     = max over ranks of max(Σ send times, Σ receive times)
///      contention = contended bytes / topology.aggregate_capacity(),
///      where the contended quantity is hop-bytes on direct networks
///      (messages occupy every traversed link) and total bytes on switched
///      fabrics (the core carries each byte once).
///
/// The simulated network stands in for the *real machine*; the paper's
/// simpler §IV-C-1 prediction formula (max over pair times on mesh/torus,
/// per-sender sums on switched networks) is implemented verbatim in
/// RedistTimeModel (perfmodel/redist_model.hpp) and used only to predict.
///
/// Every phase returns a TrafficReport with the modeled time plus the exact
/// byte/hop-byte accounting used for the paper's Fig. 10 metric. Typed
/// exchange helpers actually move payload bytes so redistribution
/// correctness (conservation) is testable end-to-end.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/mapping.hpp"
#include "topo/topology.hpp"
#include "util/check.hpp"

namespace stormtrack {

/// Byte-, hop- and time-accounting for one communication phase.
struct TrafficReport {
  double modeled_time = 0.0;       ///< Phase completion time (s).
  std::int64_t total_bytes = 0;    ///< Payload bytes moved off-rank.
  std::int64_t hop_bytes = 0;      ///< Σ bytes × hops (network load, Fig. 10).
  std::int64_t local_bytes = 0;    ///< Bytes "moved" rank→itself (0 hops).
  std::int64_t num_messages = 0;   ///< Off-rank messages in the phase.
  int max_hops = 0;                ///< Longest route used.

  /// Average hops travelled per off-rank byte (the paper's "average
  /// hop-bytes" per test case); 0 when no bytes moved.
  [[nodiscard]] double avg_hops_per_byte() const {
    if (total_bytes == 0) return 0.0;
    return static_cast<double>(hop_bytes) / static_cast<double>(total_bytes);
  }

  /// Sequential composition of phases: times add, counters add, max_hops
  /// takes the max.
  TrafficReport& operator+=(const TrafficReport& o);
};

/// One point-to-point message in a phase (payload size only; use
/// TypedExchange for payload-carrying traffic).
struct Message {
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
};

/// Per-index time sums of one phase in dense storage, for a single-port
/// endpoint model: add() lands each index's terms in call order (the same
/// float sum a map keyed on the index would hold), max() folds the touched
/// entries. Meant to live in thread-local scratch: begin() clears only the
/// entries the previous phase touched — O(touched), not O(size) — so a
/// phase aborted by an exception leaves nothing behind for the next one.
class RankTimeSums {
 public:
  /// Start a phase over indices [0, size).
  void begin(std::size_t size) {
    for (const std::size_t i : touched_) sums_[i] = 0.0;
    touched_.clear();
    if (sums_.size() < size) sums_.resize(size, 0.0);
  }

  void add(std::size_t i, double t) {
    // A zero sum marks an untouched entry; a (degenerate) zero-time term
    // can only record an index twice, which max() tolerates.
    if (sums_[i] == 0.0) touched_.push_back(i);
    sums_[i] += t;
  }

  /// Largest sum of this phase; 0 when nothing was added.
  [[nodiscard]] double max() const {
    double worst = 0.0;
    for (const std::size_t i : touched_) worst = std::max(worst, sums_[i]);
    return worst;
  }

 private:
  std::vector<double> sums_;
  std::vector<std::size_t> touched_;
};

/// Simulated communicator over all ranks of a Mapping.
class SimComm {
 public:
  /// Both referents must outlive the communicator.
  SimComm(const Topology& topo, const Mapping& mapping);

  [[nodiscard]] int size() const { return mapping_->num_ranks(); }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const Mapping& mapping() const { return *mapping_; }

  /// Process-unique identity of this communicator (never 0, never reused
  /// by a later one): keys caches of per-rank data derived from the bound
  /// topology and mapping, which never change.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Hop distance between two ranks under the bound mapping.
  [[nodiscard]] int hops(int rank_a, int rank_b) const {
    return mapping_->rank_hops(*topo_, rank_a, rank_b);
  }

  /// Price an Alltoallv phase described by its sparse message list.
  /// Zero-byte and self messages cost nothing on the network but self
  /// messages are tallied in local_bytes.
  [[nodiscard]] TrafficReport alltoallv(std::span<const Message> msgs) const;

  /// The Alltoallv phase-time formula on its own: max(\p serial, contended
  /// bytes / aggregate capacity), where \p serial is the largest per-rank
  /// send or receive sum and the contended bytes are \p hop_bytes on direct
  /// networks, \p total_bytes on switched ones. alltoallv() and streaming
  /// callers that accumulate the same sums (redistribution_cost) share it,
  /// so both charge a phase bit-identically.
  [[nodiscard]] double alltoallv_time(double serial, std::int64_t hop_bytes,
                                      std::int64_t total_bytes) const;

  /// Price a Gatherv of \p bytes_per_rank[i] bytes from every rank i to
  /// \p root (modelled as the Alltoallv of the corresponding messages).
  [[nodiscard]] TrafficReport gatherv(
      std::span<const std::int64_t> bytes_per_rank, int root) const;

  /// Price a binomial-tree broadcast of \p bytes from \p root: ceil(log2 P)
  /// rounds, each priced at the worst pair time of that round.
  [[nodiscard]] TrafficReport bcast(std::int64_t bytes, int root) const;

 private:
  void require_rank(int rank) const {
    ST_CHECK_MSG(rank >= 0 && rank < size(),
                 "rank " << rank << " outside communicator of " << size());
  }

  const Topology* topo_;
  const Mapping* mapping_;
  std::uint64_t id_;
};

/// Hook consulted once per message in exchange_payloads, after pricing
/// (the bytes were sent; faults strike in flight). kDrop removes the
/// message before delivery; kCorrupt damages payload bytes but keeps the
/// message, so receivers must detect the damage themselves.
class PayloadFaultHook {
 public:
  enum class Action { kNone, kDrop, kCorrupt };

  virtual ~PayloadFaultHook() = default;
  [[nodiscard]] virtual Action on_payload(int src, int dst,
                                          std::int64_t bytes) = 0;
};

/// Payload-carrying exchange: moves per-message payload vectors between
/// ranks and prices the phase like SimComm::alltoallv. Delivered messages
/// are grouped contiguously by destination rank (ascending), each group
/// ascending by source rank — a deterministic iteration order without the
/// per-destination map + per-list sort the old implementation paid.
template <typename T>
struct TypedMessage {
  int src = 0;
  int dst = 0;
  std::vector<T> payload;
};

/// Half-open range of a destination rank's messages in
/// ExchangeResult::messages.
struct DeliveryGroup {
  int dst = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

template <typename T>
struct ExchangeResult {
  /// Every delivered message, grouped by destination (ascending), each
  /// group ascending by source.
  std::vector<TypedMessage<T>> messages;
  /// One entry per destination that received anything, ascending by dst.
  std::vector<DeliveryGroup> groups;
  TrafficReport traffic;

  /// Messages delivered to \p dst (empty when it received nothing).
  [[nodiscard]] std::span<const TypedMessage<T>> received_by(int dst) const {
    const auto it = std::lower_bound(
        groups.begin(), groups.end(), dst,
        [](const DeliveryGroup& g, int d) { return g.dst < d; });
    if (it == groups.end() || it->dst != dst) return {};
    return std::span<const TypedMessage<T>>(messages)
        .subspan(it->begin, it->end - it->begin);
  }
};

template <typename T>
[[nodiscard]] ExchangeResult<T> exchange_payloads(
    const SimComm& comm, std::vector<TypedMessage<T>> msgs,
    PayloadFaultHook* faults = nullptr) {
  std::vector<Message> sizes;
  sizes.reserve(msgs.size());
  for (const auto& m : msgs)
    sizes.push_back(Message{m.src, m.dst,
                            static_cast<std::int64_t>(m.payload.size() *
                                                      sizeof(T))});
  ExchangeResult<T> out;
  out.traffic = comm.alltoallv(sizes);
  if (faults != nullptr) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      auto& m = msgs[i];
      const auto bytes =
          static_cast<std::int64_t>(m.payload.size() * sizeof(T));
      const auto action = faults->on_payload(m.src, m.dst, bytes);
      if (action == PayloadFaultHook::Action::kDrop) continue;
      if (action == PayloadFaultHook::Action::kCorrupt && !m.payload.empty()) {
        // Damage only the trailing element: structured headers at the front
        // of a payload stay parseable, so corruption is a *data* integrity
        // problem for the receiver to detect, not a crash.
        auto* bytes_ptr =
            reinterpret_cast<unsigned char*>(&m.payload.back());
        for (std::size_t b = 0; b < sizeof(T); ++b) bytes_ptr[b] ^= 0xA5;
      }
      if (keep != i) msgs[keep] = std::move(m);
      ++keep;
    }
    msgs.resize(keep);
  }
  // Single stable sort (dst, then src); equal (src, dst) pairs keep
  // submission order, matching the old stable per-list sorts.
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const TypedMessage<T>& a, const TypedMessage<T>& b) {
                     if (a.dst != b.dst) return a.dst < b.dst;
                     return a.src < b.src;
                   });
  out.messages = std::move(msgs);
  for (std::size_t i = 0; i < out.messages.size();) {
    std::size_t j = i;
    while (j < out.messages.size() &&
           out.messages[j].dst == out.messages[i].dst)
      ++j;
    out.groups.push_back(DeliveryGroup{out.messages[i].dst, i, j});
    i = j;
  }
  return out;
}

}  // namespace stormtrack
