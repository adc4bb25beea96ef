#include "replay/stopline.hpp"

namespace tdbg::replay {

Stopline stopline_from_cut(const trace::Trace& trace,
                           const causality::Cut& cut) {
  Stopline line;
  line.thresholds = causality::cut_thresholds(trace, cut);
  return line;
}

Stopline stopline_at_time(const trace::Trace& trace,
                          const trace::MatchReport& report,
                          const trace::RankIndex& index,
                          const trace::EventColumns& columns,
                          support::TimeNs t) {
  auto cut = causality::cut_at_time(index, columns, t);
  causality::restrict_to_consistent(report, index, cut);
  return stopline_from_cut(trace, cut);
}

Stopline stopline_past_frontier(const causality::CausalOrder& order,
                                std::size_t e) {
  return stopline_from_cut(order.trace(), order.past_frontier_cut(e));
}

Stopline stopline_future_frontier(const causality::CausalOrder& order,
                                  std::size_t e) {
  return stopline_from_cut(order.trace(), order.future_frontier_cut(e));
}

}  // namespace tdbg::replay
