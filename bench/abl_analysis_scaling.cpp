// Ablation A6 — does the history machinery scale with trace length?
//
// §4.3 motivates the graph abstraction with "an execution history can
// be huge and often won't fit into memory".  This bench grows a
// workload 100x and reports build times for the structures the
// debugger keeps per session: the vector-clock causal order (O(n·P)),
// the trace graph (bounded by dissemination), message matching, and a
// frontier query (O(P log n) thanks to the monotone-clock binary
// search).

#include <cstdio>

#include "apps/ring.hpp"
#include "analysis/session.hpp"
#include "bench_util.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"

int main() {
  using namespace tdbg;
  bench::header("Ablation A6: analysis scaling with history length");

  std::printf("%-8s %-10s %-12s %-12s %-12s %-14s %-12s\n", "laps", "events",
              "match (ms)", "order (ms)", "graph (ms)", "frontier (us)",
              "graph arcs");
  for (const int laps : {20, 200, 2000}) {
    apps::ring::Options opts;
    opts.laps = laps;
    const auto rec = replay::record(8, [opts](mpi::Comm& comm) {
      apps::ring::rank_body(comm, opts);
    });
    if (!rec.result.completed) {
      std::printf("FAILED: %s\n", rec.result.abort_detail.c_str());
      return 1;
    }

    const double match_s = bench::time_median_s(3, [&] {
      analysis::Session fresh(rec.trace);
      const auto& report = fresh.match_report();
      (void)report;
    });
    const double order_s = bench::time_median_s(3, [&] {
      analysis::Session fresh(rec.trace);
      const auto& order = fresh.causal_order();
      (void)order;
    });
    std::size_t arcs = 0;
    const double graph_s = bench::time_median_s(3, [&] {
      analysis::Session fresh(rec.trace);
      arcs = fresh.trace_graph(16).arc_count();
    });

    analysis::Session session(rec.trace);
    const auto& order = session.causal_order();
    const auto& seq = session.rank_index().seq[4];
    const auto mid = seq[seq.size() / 2];
    const double frontier_s = bench::time_median_s(5, [&] {
      const auto pf = order.past_frontier(mid);
      const auto ff = order.future_frontier(mid);
      (void)pf;
      (void)ff;
    });

    std::printf("%-8d %-10zu %-12.3f %-12.3f %-12.3f %-14.2f %-12zu\n", laps,
                rec.trace.size(), match_s * 1e3, order_s * 1e3,
                graph_s * 1e3, frontier_s * 1e6, arcs);
  }
  bench::note("shape: matching and causal-order builds grow ~linearly with "
              "history; the dissemination-bounded graph and the frontier "
              "query stay (near-)flat.");
  return 0;
}
