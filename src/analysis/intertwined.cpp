#include "analysis/intertwined.hpp"

namespace tdbg::analysis {

std::vector<IntertwinedPair> find_intertwined(
    const trace::MatchReport& report, const causality::CausalOrder& order) {
  std::vector<IntertwinedPair> out;
  const auto& matches = report.matches;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    for (std::size_t j = 0; j < matches.size(); ++j) {
      if (i == j) continue;
      const auto& m1 = matches[i];
      const auto& m2 = matches[j];
      if (order.happens_before(m1.send_index, m2.send_index) &&
          order.happens_before(m2.recv_index, m1.recv_index)) {
        out.push_back(IntertwinedPair{m1.send_index, m1.recv_index,
                                      m2.send_index, m2.recv_index});
      }
    }
  }
  return out;
}

}  // namespace tdbg::analysis
