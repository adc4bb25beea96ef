// Figure 9 — "Dynamic call graph from Strassen example.  Multiple arcs
// show multiple function calls.  The number of calls per arc is
// adjustable.  Each arc has an image in the execution trace.  The
// graph was converted to VCG format displayed with the xvcg graph
// layout tool."
//
// Regenerates the graph, sweeps the calls-per-arc display knob, writes
// the VCG file, and verifies "each arc has an image in the execution
// trace" by expanding merged trace-graph arcs back to trace events.

#include <cstdio>
#include <fstream>

#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "bench_util.hpp"
#include "replay/record.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 9: dynamic call graph (VCG) of Strassen");

  apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 8;  // deeper recursion => richer call graph
  const auto rec = replay::record(
      8, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  if (!rec.result.completed) {
    std::printf("FAILED: %s\n", rec.result.abort_detail.c_str());
    return 1;
  }

  analysis::Session session(rec.trace);
  const auto& tg = session.trace_graph(/*merge_limit=*/8);
  const auto& cg = session.call_graph();
  std::printf("functions in graph : %zu\n", cg.function_count());
  std::printf("caller->callee edges: %zu\n", cg.edges().size());
  std::uint64_t total_calls = 0;
  for (const auto& e : cg.edges()) total_calls += e.calls;
  std::printf("total calls        : %llu\n",
              static_cast<unsigned long long>(total_calls));

  // The adjustable calls-per-arc knob.
  std::printf("\ncalls-per-arc sweep (displayed arcs):\n");
  for (const std::uint64_t per_arc : {0ull, 1ull, 5ull, 25ull, 100ull}) {
    const auto exported = cg.to_export(rec.trace.constructs(), per_arc);
    std::printf("  calls/arc=%-4llu -> %zu arcs\n",
                static_cast<unsigned long long>(per_arc),
                exported.edges.size());
  }

  const auto exported = cg.to_export(rec.trace.constructs(), 0);
  std::ofstream("fig9_call_graph.vcg") << graph::to_vcg(exported);
  std::ofstream("fig9_call_graph.dot") << graph::to_dot(exported);
  std::printf("\nwritten: fig9_call_graph.{vcg,dot} (xvcg-compatible)\n");

  // "Each arc has an image in the execution trace": every merged arc
  // expands back to exactly its count of trace events.
  std::size_t verified = 0, mismatches = 0;
  for (const auto& [key, group] : tg.arc_groups()) {
    for (const auto& arc : group) {
      if (std::get<2>(key) != graph::ArcKind::kCall) continue;
      const auto events = tg.expand_arc(rec.trace, arc);
      if (events.size() == arc.count) {
        ++verified;
      } else {
        ++mismatches;
      }
    }
  }
  std::printf("arc->trace images verified: %zu arcs (%zu mismatches)\n",
              verified, mismatches);
  bench::note("paper: merged multi-arcs, adjustable calls-per-arc, VCG "
              "output for xvcg.");
  return mismatches == 0 ? 0 : 1;
}
