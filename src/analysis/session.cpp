#include "analysis/session.hpp"

#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "support/clock.hpp"
#include "support/strings.hpp"
#include "telemetry/span.hpp"

namespace tdbg::analysis {

namespace {

/// Key for the call-graph cache: rank, or -1 for "all ranks".
int call_graph_key(std::optional<mpi::Rank> rank) {
  return rank ? static_cast<int>(*rank) : -1;
}

}  // namespace

Session::Session(trace::Trace trace) : trace_(std::move(trace)) {}

template <typename T, typename Build>
const T& Session::materialize(Artifact<T>& slot, const char* span_name,
                              Build&& build) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  auto& registry = obs::MetricsRegistry::global();
  if (slot.value) {
    ++slot.reuses;
    registry.counter("session.artifacts.reused").add(/*rank=*/-1);
    return *slot.value;
  }
  telemetry::Span span{std::string_view(span_name)};
  const auto t0 = support::now_ns();
  slot.value.emplace(build());
  slot.last_ns = support::now_ns() - t0;
  ++slot.computes;
  registry.counter("session.artifacts.computed").add(/*rank=*/-1);
  registry.histogram(std::string(span_name) + "_ns", obs::Unit::kNanoseconds)
      .record(/*rank=*/-1, static_cast<std::uint64_t>(
                               std::max<support::TimeNs>(0, slot.last_ns)));
  return *slot.value;
}

const SweepData& Session::sweep() {
  return materialize(sweep_, "session.sweep",
                     [&] { return compute_sweep(trace_); });
}

const trace::MatchReport& Session::match_report() {
  return materialize(match_, "session.match",
                     [&] { return compute_match_report(sweep()); });
}

const trace::RankIndex& Session::rank_index() { return *rank_index_ptr(); }

std::shared_ptr<const trace::RankIndex> Session::rank_index_ptr() {
  return materialize(rank_index_, "session.rank_index",
                     [&] { return compute_rank_index(sweep()); });
}

const trace::MessageDag& Session::message_dag() {
  return materialize(dag_, "session.message_dag", [&] {
    return compute_message_dag(match_report(), rank_index());
  });
}

const trace::EventColumns& Session::event_columns() {
  return materialize(columns_, "session.event_columns",
                     [&] { return compute_event_columns(trace_); });
}

const causality::CausalOrder& Session::causal_order() {
  return materialize(order_, "session.causal_order", [&] {
    return causality::CausalOrder(trace_, rank_index_ptr(), message_dag());
  });
}

const TrafficReport& Session::traffic() {
  return materialize(traffic_, "session.traffic", [&] {
    return compute_traffic(sweep(), trace_.num_ranks());
  });
}

const RaceReport& Session::races() {
  return materialize(races_, "session.races", [&] {
    return find_races(compute_message_pools(sweep()), message_dag(),
                      causal_order());
  });
}

const graph::CommGraph& Session::comm_graph() {
  return materialize(comm_graph_, "session.comm_graph", [&] {
    return compute_comm_graph(sweep(), match_report(), rank_index());
  });
}

const graph::ActionGraph& Session::action_graph() {
  return materialize(action_graph_, "session.action_graph", [&] {
    return graph::ActionGraph::build(rank_index(), event_columns());
  });
}

const graph::TraceGraph& Session::trace_graph(std::size_t merge_limit) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return materialize(trace_graphs_[merge_limit], "session.trace_graph", [&] {
    return graph::TraceGraph::build(rank_index(), event_columns(),
                                    merge_limit);
  });
}

const graph::CallGraph& Session::call_graph(std::optional<mpi::Rank> rank) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return materialize(call_graphs_[call_graph_key(rank)], "session.call_graph",
                     [&] {
                       // Projected from the cached default trace graph,
                       // so N rank projections share one merge.
                       return graph::CallGraph::project(trace_graph(), rank);
                     });
}

const CriticalPath& Session::critical_path() {
  return materialize(critical_path_, "session.critical_path", [&] {
    return analysis::critical_path(rank_index(), event_columns(),
                                   message_dag());
  });
}

const std::vector<IntertwinedPair>& Session::intertwined() {
  return materialize(intertwined_, "session.intertwined", [&] {
    return find_intertwined(match_report(), causal_order());
  });
}

std::vector<ModelResult> Session::check_model(const std::string& pattern) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  telemetry::Span span{std::string_view("session.check_model")};
  return check_model_all(trace_, action_graph(), pattern);
}

std::vector<PassInfo> Session::pass_states() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  std::vector<PassInfo> out;
  const auto one = [&](const char* name, const char* deps,
                       const auto& slot) {
    out.push_back(PassInfo{name, deps, slot.value.has_value(), slot.computes,
                           slot.reuses, slot.last_ns});
  };
  one("sweep", "-", sweep_);
  one("match", "sweep", match_);
  one("rank_index", "sweep", rank_index_);
  one("traffic", "sweep", traffic_);
  one("comm_graph", "sweep, match, rank_index", comm_graph_);
  one("message_dag", "match, rank_index", dag_);
  one("event_columns", "-", columns_);
  one("causal_order", "rank_index, message_dag", order_);
  one("races", "sweep, message_dag, causal_order", races_);
  one("critical_path", "rank_index, event_columns, message_dag",
      critical_path_);
  one("intertwined", "match, causal_order", intertwined_);
  one("action_graph", "rank_index, event_columns", action_graph_);
  // The parameterized graph caches aggregate across their keys.
  const auto many = [&](const char* name, const char* deps,
                        const auto& slots) {
    PassInfo info{name, deps};
    for (const auto& [key, slot] : slots) {
      info.cached = info.cached || slot.value.has_value();
      info.computes += slot.computes;
      info.reuses += slot.reuses;
      info.last_ns = std::max(info.last_ns, slot.last_ns);
    }
    out.push_back(std::move(info));
  };
  many("trace_graph", "rank_index, event_columns", trace_graphs_);
  many("call_graph", "trace_graph", call_graphs_);
  return out;
}

std::string Session::describe() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  const auto states = pass_states();
  std::ostringstream os;
  os << "analysis session: " << states.size() << " passes over "
     << trace_.size() << " event(s)\n";
  os << "  pass           state     computes  reuses  last build\n";
  for (const auto& s : states) {
    os << "  " << s.name;
    for (std::size_t p = s.name.size(); p < 15; ++p) os << ' ';
    os << (s.cached ? "cached  " : "pending ") << "  ";
    std::string computes = std::to_string(s.computes);
    os << computes;
    for (std::size_t p = computes.size(); p < 8; ++p) os << ' ';
    os << "  ";
    std::string reuses = std::to_string(s.reuses);
    os << reuses;
    for (std::size_t p = reuses.size(); p < 6; ++p) os << ' ';
    os << "  "
       << (s.computes > 0 ? support::human_duration(s.last_ns)
                          : std::string("-"))
       << "\n";
  }
  // Storage-side effectiveness of the passes: how much decode work the
  // trace backend's zone maps and column pruning saved so far (process
  // totals; nonzero only on columnar/segmented backends).
  auto& reg = obs::MetricsRegistry::global();
  os << "  trace decode: "
     << reg.counter("trace.decode.segments_skipped").total()
     << " segment(s) skipped, "
     << reg.counter("trace.decode.columns_skipped").total()
     << " column(s) skipped, "
     << support::human_bytes(
            reg.counter("trace.decode.decoded_bytes").total())
     << " decoded\n";
  return os.str();
}

}  // namespace tdbg::analysis
