#include "analysis/critical_path.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tdbg::analysis {

CriticalPath critical_path(const trace::RankIndex& index,
                           const trace::EventColumns& columns,
                           const trace::MessageDag& dag) {
  constexpr std::size_t kNone = trace::MessageDag::kNone;
  const std::size_t n = columns.size();
  TDBG_CHECK(n == index.position.size(),
             "event columns and rank index cover different traces");
  CriticalPath out;
  out.per_rank.assign(index.seq.size(), 0);
  if (n == 0) return out;

  const auto& t_start = columns.t_start;
  const auto& t_end = columns.t_end;
  std::vector<support::TimeNs> eff(n, 0);  // effective durations

  // Weights are profiler-style *self times*: an event's interval minus
  // the intervals of events directly nested inside it on the same rank
  // (a compute scope around blocking receives must not count their
  // waits as its own work), and a matched receive's time spent blocked
  // before its sender finished counts as edge latency, not rank work.
  for (const auto& seq : index.seq) {
    struct Open {
      std::size_t index;
      support::TimeNs t_end;
    };
    std::vector<Open> stack;  // open enclosing intervals
    for (const std::size_t e : seq) {
      const auto raw = std::max<support::TimeNs>(0, t_end[e] - t_start[e]);
      eff[e] = raw;
      while (!stack.empty() && stack.back().t_end <= t_start[e]) {
        stack.pop_back();
      }
      if (!stack.empty() && t_end[e] <= stack.back().t_end) {
        eff[stack.back().index] = std::max<support::TimeNs>(
            0, eff[stack.back().index] - raw);  // parent loses child time
        stack.push_back(Open{e, t_end[e]});
      } else if (stack.empty()) {
        stack.push_back(Open{e, t_end[e]});
      }
    }
  }

  // The costliest chain ending at each event: in topological order its
  // rank predecessor's and, for a receive, its send's are known.
  std::vector<support::TimeNs> best(n, 0);
  std::vector<std::size_t> pred(n, kNone);
  dag.for_each([&](std::size_t e, std::size_t send) {
    const auto& seq = index.seq[static_cast<std::size_t>(index.rank[e])];
    const std::size_t pos = index.position[e];
    support::TimeNs incoming = 0;
    std::size_t from = kNone;
    if (pos > 0) {
      from = seq[pos - 1];
      incoming = best[from];
    }
    if (send != kNone) {
      eff[e] = std::max<support::TimeNs>(
          0, t_end[e] - std::max(t_start[e], t_end[send]));
      if (best[send] > incoming) {
        incoming = best[send];
        from = send;
      }
    }
    best[e] = incoming + eff[e];
    pred[e] = from;
  });

  // Walk back from the costliest endpoint.
  std::size_t tail = 0;
  for (std::size_t e = 1; e < n; ++e) {
    if (best[e] > best[tail]) tail = e;
  }
  out.total = best[tail];
  for (std::size_t e = tail; e != kNone; e = pred[e]) {
    out.events.push_back(e);
  }
  std::reverse(out.events.begin(), out.events.end());

  mpi::Rank prev_rank = -1;
  out.durations.reserve(out.events.size());
  for (const auto e : out.events) {
    const mpi::Rank rank = index.rank[e];
    out.durations.push_back(eff[e]);
    out.per_rank[static_cast<std::size_t>(rank)] += eff[e];
    if (prev_rank >= 0 && rank != prev_rank) ++out.rank_switches;
    prev_rank = rank;
  }
  return out;
}

std::string CriticalPath::to_string(const trace::Trace& trace,
                                    std::size_t max_rows) const {
  std::ostringstream os;
  os << "critical path: " << events.size() << " events, "
     << support::human_duration(total) << ", " << rank_switches
     << " rank switch(es)\n";
  os << "per-rank share:\n";
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (per_rank[r] == 0) continue;
    os << "  rank " << r << ": " << support::human_duration(per_rank[r]);
    if (total > 0) {
      os << " (" << (100 * per_rank[r] / total) << "%)";
    }
    os << "\n";
  }
  // The heaviest events on the path, by effective duration.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return durations[a] > durations[b];
  });
  os << "heaviest path events:\n";
  for (std::size_t i = 0; i < order.size() && i < max_rows; ++i) {
    if (durations[order[i]] == 0) break;
    const auto& e = trace.event(events[order[i]]);
    os << "  rank " << e.rank << "  "
       << trace::event_kind_name(e.kind) << "  "
       << (e.construct == trace::kNoConstruct
               ? std::string("?")
               : trace.constructs().info(e.construct).name)
       << "  " << support::human_duration(durations[order[i]]) << "\n";
  }
  return os.str();
}

}  // namespace tdbg::analysis
