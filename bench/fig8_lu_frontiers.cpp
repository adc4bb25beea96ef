// Figure 8 — "Past and future frontiers of a time point in a specific
// processor ... The timeline display then calculated the region of the
// computation that is concurrent with that point.  The concurrency
// region is shown between the slanted black lines."
//
// Regenerates the analysis on the NPB-LU-style wavefront: selects
// mid-trace events, computes past/future frontiers and the concurrency
// region, validates the partition (past + future + concurrent + self =
// everything), and renders the overlay.  The wavefront's pipelining is
// what makes the frontiers *slant* — the bench reports the slant (the
// spread of frontier times across ranks) to show the region is not a
// vertical slice.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "analysis/session.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "causality/causal_order.hpp"
#include "support/strings.hpp"
#include "replay/record.hpp"
#include "viz/timeline.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 8: past/future frontiers in the LU wavefront");

  apps::lu::Options opts;
  opts.px = 4;
  opts.py = 2;
  opts.nx = 16;
  opts.ny = 16;
  opts.iterations = 3;
  const auto rec = replay::record(
      8, [opts](mpi::Comm& comm) { apps::lu::rank_body(comm, opts); });
  if (!rec.result.completed) {
    std::printf("FAILED: %s\n", rec.result.abort_detail.c_str());
    return 1;
  }
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();

  // "The user clicked at the point indicated by the circle": a
  // mid-trace receive on an interior rank.
  const auto& seq = session.rank_index().seq[5];
  std::size_t selected = seq[seq.size() / 2];

  const auto past = order.causal_past(selected);
  const auto future = order.causal_future(selected);
  const auto region = order.concurrency_region(selected);
  std::printf("selected: rank %d marker %llu (mid-trace)\n",
              rec.trace.event(selected).rank,
              static_cast<unsigned long long>(rec.trace.event(selected).marker));
  std::printf("past %zu | concurrent %zu | future %zu | total %zu\n",
              past.size(), region.size(), future.size(), rec.trace.size());
  const bool partitions =
      past.size() + region.size() + future.size() + 1 == rec.trace.size();
  std::printf("partition check: %s\n", partitions ? "ok" : "BROKEN");

  // The slant: frontier event times spread across ranks.
  const auto pf = order.past_frontier(selected);
  const auto ff = order.future_frontier(selected);
  support::TimeNs pf_min = rec.trace.t_max(), pf_max = rec.trace.t_min();
  int pf_count = 0;
  for (const auto& f : pf) {
    if (!f) continue;
    ++pf_count;
    pf_min = std::min(pf_min, rec.trace.event(*f).t_end);
    pf_max = std::max(pf_max, rec.trace.event(*f).t_end);
  }
  std::printf("past frontier spans %d ranks; time spread %s (a vertical "
              "line would have spread ~0)\n",
              pf_count, support::human_duration(pf_max - pf_min).c_str());

  // Consistency of the frontier cuts (what makes them usable as
  // stoplines, §4.1's closing suggestion).
  std::printf("past-frontier cut consistent  : %s\n",
              causality::is_consistent(session.match_report(),
                                       session.rank_index(),
                                       order.past_frontier_cut(selected))
                  ? "yes"
                  : "NO");
  std::printf("future-frontier cut consistent: %s\n",
              causality::is_consistent(session.match_report(),
                                       session.rank_index(),
                                       order.future_frontier_cut(selected))
                  ? "yes"
                  : "NO");

  viz::Overlay overlay;
  overlay.selected_event = selected;
  overlay.past_frontier = pf;
  overlay.future_frontier = ff;
  viz::TimeSpaceDiagram diagram(rec.trace);
  std::ofstream("fig8_lu_frontiers.svg") << diagram.to_svg(overlay);
  std::printf("svg written: fig8_lu_frontiers.svg\n");
  bench::note("paper: concurrency region between the slanted frontier "
              "lines of the LU trace.");
  return partitions ? 0 : 1;
}
