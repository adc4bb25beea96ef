#include "causality/causal_order.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace tdbg::causality {

CausalOrder::CausalOrder(const trace::Trace& trace,
                         std::shared_ptr<const trace::RankIndex> index,
                         const trace::MessageDag& dag)
    : trace_(&trace),
      index_(std::move(index)),
      ranks_(static_cast<std::size_t>(trace.num_ranks())) {
  TDBG_CHECK(index_ != nullptr, "causal order needs a rank index");
  clocks_.assign(trace.size() * ranks_, 0);
  // In topological order every event's rank predecessor, and a
  // receive's send, already have their clocks.
  dag.for_each([&](std::size_t e, std::size_t send) {
    const std::size_t r = rank_of(e);
    const std::size_t pos = position(e);
    std::uint32_t* vc = clocks_.data() + e * ranks_;
    if (pos > 0) std::copy_n(clock_of(seqs()[r][pos - 1]), ranks_, vc);
    if (send != trace::MessageDag::kNone) {
      const std::uint32_t* sc = clock_of(send);
      for (std::size_t q = 0; q < ranks_; ++q) vc[q] = std::max(vc[q], sc[q]);
    }
    vc[r] = static_cast<std::uint32_t>(pos + 1);
  });
}

bool CausalOrder::happens_before(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  // a happens before b iff b's clock has seen a's position on a's rank.
  const std::size_t ra = rank_of(a);
  return clock_of(b)[ra] >= position(a) + 1;
}

bool CausalOrder::concurrent(std::size_t a, std::size_t b) const {
  return a != b && !happens_before(a, b) && !happens_before(b, a);
}

Frontier CausalOrder::past_frontier(std::size_t e) const {
  const std::uint32_t* vc = clock_of(e);
  Frontier frontier(ranks_);
  const std::size_t re = rank_of(e);
  for (std::size_t r = 0; r < ranks_; ++r) {
    // Events of r in the strict past: vc[r] of them, except on e's own
    // rank where vc counts e itself.
    std::size_t count = vc[r];
    if (r == re) --count;  // exclude e
    if (count == 0) continue;
    frontier[r] = seqs()[r][count - 1];
  }
  return frontier;
}

Frontier CausalOrder::future_frontier(std::size_t e) const {
  Frontier frontier(ranks_);
  const std::size_t re = rank_of(e);
  const auto threshold = static_cast<std::uint32_t>(position(e) + 1);
  for (std::size_t r = 0; r < ranks_; ++r) {
    const auto& seq = seqs()[r];
    if (r == re) {
      if (position(e) + 1 < seq.size()) {
        frontier[r] = seq[position(e) + 1];
      }
      continue;
    }
    // clock component `re` is nondecreasing along rank r's sequence:
    // binary-search the first event that has seen e.
    const auto it = std::partition_point(
        seq.begin(), seq.end(), [&](std::size_t f) {
          return clock_of(f)[re] < threshold;
        });
    if (it != seq.end()) frontier[r] = *it;
  }
  return frontier;
}

std::vector<std::size_t> CausalOrder::causal_past(std::size_t e) const {
  std::vector<std::size_t> past;
  const auto frontier = past_frontier(e);
  for (std::size_t r = 0; r < frontier.size(); ++r) {
    if (!frontier[r]) continue;
    const auto& seq = seqs()[r];
    const auto last_pos = position(*frontier[r]);
    for (std::size_t pos = 0; pos <= last_pos; ++pos) past.push_back(seq[pos]);
  }
  std::sort(past.begin(), past.end());
  return past;
}

std::vector<std::size_t> CausalOrder::causal_future(std::size_t e) const {
  std::vector<std::size_t> future;
  const auto frontier = future_frontier(e);
  for (std::size_t r = 0; r < frontier.size(); ++r) {
    if (!frontier[r]) continue;
    const auto& seq = seqs()[r];
    for (std::size_t pos = position(*frontier[r]); pos < seq.size();
         ++pos) {
      future.push_back(seq[pos]);
    }
  }
  std::sort(future.begin(), future.end());
  return future;
}

std::vector<std::size_t> CausalOrder::concurrency_region(std::size_t e) const {
  std::vector<std::size_t> region;
  for (std::size_t f = 0; f < trace_->size(); ++f) {
    if (f != e && concurrent(e, f)) region.push_back(f);
  }
  return region;
}

Cut CausalOrder::past_frontier_cut(std::size_t e) const {
  const std::uint32_t* vc = clock_of(e);
  Cut cut;
  cut.prefix_len.assign(vc, vc + ranks_);
  cut.prefix_len[rank_of(e)] = position(e);  // stop right before executing e
  return cut;
}

Cut CausalOrder::future_frontier_cut(std::size_t e) const {
  const auto frontier = future_frontier(e);
  Cut cut;
  cut.prefix_len.assign(ranks_, 0);
  for (std::size_t r = 0; r < ranks_; ++r) {
    // Ranks with no event in e's future run to completion.
    cut.prefix_len[r] =
        frontier[r] ? position(*frontier[r]) : seqs()[r].size();
  }
  cut.prefix_len[rank_of(e)] = position(e) + 1;  // e itself has executed
  return cut;
}

bool is_consistent(const trace::MatchReport& report,
                   const trace::RankIndex& index, const Cut& cut) {
  TDBG_CHECK(cut.prefix_len.size() == index.seq.size(),
             "cut rank count mismatch");
  const auto inside = [&](std::size_t e) {
    return index.position[e] <
           cut.prefix_len[static_cast<std::size_t>(index.rank[e])];
  };
  for (const auto& m : report.matches) {
    if (inside(m.recv_index) && !inside(m.send_index)) return false;
  }
  return true;
}

Cut cut_at_time(const trace::RankIndex& index,
                const trace::EventColumns& columns, support::TimeNs t) {
  TDBG_CHECK(columns.size() == index.position.size(),
             "event columns and rank index cover different traces");
  Cut cut;
  cut.prefix_len.assign(index.seq.size(), 0);
  for (std::size_t r = 0; r < index.seq.size(); ++r) {
    // t_end is not monotone along a rank (nested intervals), so scan
    // back for the last completed event instead of binary-searching.
    const auto& seq = index.seq[r];
    for (std::size_t p = seq.size(); p > 0; --p) {
      if (columns.t_end[seq[p - 1]] <= t) {
        cut.prefix_len[r] = p;
        break;
      }
    }
  }
  return cut;
}

std::size_t restrict_to_consistent(const trace::MatchReport& report,
                                   const trace::RankIndex& index, Cut& cut) {
  const auto& pos = index.position;
  std::size_t dropped = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& m : report.matches) {
      const auto rr = static_cast<std::size_t>(index.rank[m.recv_index]);
      const auto sr = static_cast<std::size_t>(index.rank[m.send_index]);
      const bool recv_inside = pos[m.recv_index] < cut.prefix_len[rr];
      const bool send_inside = pos[m.send_index] < cut.prefix_len[sr];
      if (recv_inside && !send_inside) {
        dropped += cut.prefix_len[rr] - pos[m.recv_index];
        cut.prefix_len[rr] = pos[m.recv_index];
        changed = true;
      }
    }
  }
  return dropped;
}

std::vector<std::optional<std::uint64_t>> cut_thresholds(
    const trace::Trace& trace, const Cut& cut) {
  std::vector<std::optional<std::uint64_t>> thresholds(
      static_cast<std::size_t>(trace.num_ranks()));
  for (mpi::Rank r = 0; r < trace.num_ranks(); ++r) {
    const auto len = cut.prefix_len[static_cast<std::size_t>(r)];
    if (len < trace.rank_size(r)) {
      thresholds[static_cast<std::size_t>(r)] =
          trace.event(trace.rank_event(r, len)).marker;
    }
  }
  return thresholds;
}

}  // namespace tdbg::causality
