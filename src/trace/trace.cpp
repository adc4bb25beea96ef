#include "trace/trace.hpp"

#include "support/error.hpp"
#include "support/executor.hpp"

namespace tdbg::trace {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "enter";
    case EventKind::kExit: return "exit";
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kCollective: return "coll";
    case EventKind::kCompute: return "compute";
    case EventKind::kMark: return "mark";
    case EventKind::kFaultInjected: return "fault";
  }
  return "?";
}

Trace::Trace(int num_ranks, std::vector<Event> events,
             std::shared_ptr<const ConstructRegistry> constructs)
    : Trace(std::make_shared<InMemoryTraceStore>(num_ranks, std::move(events),
                                                 std::move(constructs))) {}

Trace::Trace(std::shared_ptr<const TraceStore> store)
    : store_(std::move(store)) {
  TDBG_CHECK(store_ != nullptr, "trace store must not be null");
}

Event Trace::event(std::size_t i) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->event(i);
}

const ConstructRegistry& Trace::constructs() const {
  TDBG_CHECK(store_ != nullptr && store_->constructs() != nullptr,
             "trace has no construct table");
  return *store_->constructs();
}

std::shared_ptr<const ConstructRegistry> Trace::constructs_ptr() const {
  return store_ ? store_->constructs() : nullptr;
}

std::size_t Trace::rank_size(mpi::Rank rank) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->rank_size(rank);
}

std::size_t Trace::rank_event(mpi::Rank rank, std::size_t pos) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->rank_event(rank, pos);
}

void Trace::for_each_event(const EventVisitor& visit) const {
  if (store_) store_->for_each(visit);
}

void Trace::for_each_rank_event(mpi::Rank rank,
                                const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_rank_event(rank, visit);
}

void Trace::for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                               const EventVisitor& visit) const {
  if (store_) store_->for_each_in_window(t0, t1, visit);
}

std::optional<std::size_t> Trace::find_marker(mpi::Rank rank,
                                              std::uint64_t marker) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->find_marker(rank, marker);
}

std::optional<std::size_t> Trace::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->last_event_at_or_before(rank, t);
}

std::vector<std::size_t> Trace::events_in_window(support::TimeNs t0,
                                                 support::TimeNs t1) const {
  std::vector<std::size_t> out;
  for_each_in_window(t0, t1,
                     [&out](std::size_t i, const Event&) { out.push_back(i); });
  return out;
}

std::pair<std::size_t, std::size_t> Trace::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->segment_range(seg);
}

void Trace::for_each_in_segment(std::size_t seg,
                                const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_in_segment(seg, visit);
}

void Trace::for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                     const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_in_segment_cols(seg, cols, visit);
}

std::optional<SegmentZones> Trace::segment_zones(std::size_t seg) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->segment_zones(seg);
}

void Trace::parallel_for_each_segment(
    std::string_view site,
    const std::function<void(std::size_t seg)>& body) const {
  if (!store_) return;
  exec::Executor::global().parallel_for(store_->segment_count(), site, body);
}

}  // namespace tdbg::trace
