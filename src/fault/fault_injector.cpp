#include "fault/fault_injector.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace stormtrack {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
  fired_.assign(plan_.events.size(), 0);
}

void FaultInjector::begin_point(int point) {
  std::lock_guard<std::mutex> lock(mutex_);
  point_ = point;
}

int FaultInjector::point() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return point_;
}

bool FaultInjector::consume_attempt_locked(std::size_t event_index) {
  const FaultEvent& e = plan_.events[event_index];
  if (e.attempts == 0) return true;  // unbounded: always fires
  if (fired_[event_index] >= e.attempts) return false;
  ++fired_[event_index];
  return true;
}

SplitReadFault FaultInjector::check_split_read(int file_rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  SplitReadFault result = SplitReadFault::kNone;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.point != point_) continue;
    switch (e.kind) {
      case FaultKind::kSplitReadPermanent:
      case FaultKind::kSplitReadCorrupt:
        if (e.rank == -1 || e.rank == file_rank) {
          ++stats_.split_read_faults;
          return SplitReadFault::kPermanent;
        }
        break;
      case FaultKind::kSplitReadTransient:
        // validate() guarantees a concrete rank, so the attempt budget is
        // consumed only by that rank's own sequential retries.
        if (e.rank == file_rank && result == SplitReadFault::kNone &&
            consume_attempt_locked(i)) {
          ++stats_.split_read_faults;
          result = SplitReadFault::kTransient;
        }
        break;
      default:
        break;
    }
  }
  return result;
}

void FaultInjector::guard_task(std::string_view site, std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kTaskFault || e.point != point_) continue;
    if (e.site != site || static_cast<std::size_t>(e.index) != index) continue;
    if (!consume_attempt_locked(i)) continue;
    ++stats_.task_faults;
    std::ostringstream os;
    os << "injected task fault at site '" << site << "' index " << index;
    throw FaultError(FaultKind::kTaskFault, e.attempts != 0, os.str());
  }
}

std::vector<int> FaultInjector::ranks_dying_at(int point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> dying;
  for (const FaultEvent& e : plan_.events)
    if (e.kind == FaultKind::kRankDeath && e.point == point)
      dying.push_back(e.rank);
  std::sort(dying.begin(), dying.end());
  dying.erase(std::unique(dying.begin(), dying.end()), dying.end());
  return dying;
}

PayloadFaultHook::Action FaultInjector::on_payload(int src, int dst,
                                                   std::int64_t /*bytes*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  Action action = Action::kNone;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.point != point_) continue;
    if (e.kind != FaultKind::kPayloadDrop &&
        e.kind != FaultKind::kPayloadCorrupt)
      continue;
    if (e.rank != -1 && e.rank != src) continue;
    if (e.peer != -1 && e.peer != dst) continue;
    if (e.kind == FaultKind::kPayloadDrop) {
      // Drop wins over corrupt when both match the same message.
      ++stats_.payload_drops;
      return Action::kDrop;
    }
    if (action == Action::kNone) {
      ++stats_.payload_corruptions;
      action = Action::kCorrupt;
    }
  }
  return action;
}

FaultInjectorStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

FaultInjector::State FaultInjector::export_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return State{point_, fired_, stats_};
}

void FaultInjector::import_state(const State& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  ST_CHECK_MSG(state.fired.size() == plan_.events.size(),
               "fault-injector state has " << state.fired.size()
                                           << " event counters but the plan "
                                              "has "
                                           << plan_.events.size()
                                           << " events — checkpoint taken "
                                              "under a different fault plan");
  for (const int count : state.fired)
    ST_CHECK_MSG(count >= 0, "fault-injector state has a negative firing "
                             "count");
  point_ = state.point;
  fired_ = state.fired;
  stats_ = state.stats;
}

}  // namespace stormtrack
