// Ablation A2 — the dissemination technique (§4.3).
//
// "In order to keep the number of arcs in the trace graph independent
// of the execution length, we use the dissemination technique ...
// This technique allows us to control the size of the history at the
// cost of some resolution.  If the user wants to zoom in on a
// particular event, the required arcs are reconstructed by rescanning
// the appropriate portion of the trace file."
//
// Sweeps the merge limit and the execution length: stored arcs must
// stay bounded while operations grow; then measures the zoom-rescan
// cost that buys the resolution back.

#include <cstdio>

#include "analysis/session.hpp"
#include "apps/ring.hpp"
#include "bench_util.hpp"
#include "replay/record.hpp"

int main() {
  using namespace tdbg;
  bench::header("Ablation A2: trace-graph dissemination");

  std::printf("%-10s %-12s %-12s %-12s %-14s\n", "laps", "operations",
              "limit", "stored arcs", "arcs/op");
  for (const int laps : {10, 100, 1000}) {
    apps::ring::Options opts;
    opts.laps = laps;
    const auto rec = replay::record(4, [opts](mpi::Comm& comm) {
      apps::ring::rank_body(comm, opts);
    });
    analysis::Session session(rec.trace);
    for (const std::size_t limit : {4u, 16u, 64u}) {
      const auto& g = session.trace_graph(limit);
      std::printf("%-10d %-12llu %-12zu %-12zu %-14.4f\n", laps,
                  static_cast<unsigned long long>(g.operation_count()), limit,
                  g.arc_count(),
                  static_cast<double>(g.arc_count()) /
                      static_cast<double>(g.operation_count()));
    }
  }

  // Zoom rescan: expand every merged arc of the largest trace and time
  // it.
  apps::ring::Options opts;
  opts.laps = 1000;
  const auto rec = replay::record(4, [opts](mpi::Comm& comm) {
    apps::ring::rank_body(comm, opts);
  });
  analysis::Session session(rec.trace);
  const auto& g = session.trace_graph(4);
  std::size_t merged = 0, recovered = 0;
  const double rescan_s = bench::time_median_s(3, [&] {
    merged = 0;
    recovered = 0;
    for (const auto& [key, group] : g.arc_groups()) {
      for (const auto& arc : group) {
        if (arc.count <= 1) continue;
        ++merged;
        recovered += g.expand_arc(rec.trace, arc).size();
      }
    }
  });
  std::printf("\nzoom rescan: %zu merged arcs -> %zu operations recovered "
              "in %.4fs\n",
              merged, recovered, rescan_s);
  bench::note("shape: stored arcs plateau at the merge limit as execution "
              "grows 100x; rescan restores full resolution on demand.");
  return 0;
}
