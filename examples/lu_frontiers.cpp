// Figure 8: past and future frontiers of a selected point in an
// NPB-LU-style wavefront execution.
//
// The user clicks an event mid-trace; the debugger computes the set of
// events guaranteed to have happened before it (past), the events it
// is guaranteed to affect (future), and the concurrency region in
// between — then renders the frontier overlay and uses the frontiers
// as stoplines.
//
// Writes lu_frontiers.svg next to the binary.

#include <fstream>
#include <iostream>

#include "apps/lu.hpp"
#include "debugger/debugger.hpp"

int main() {
  using namespace tdbg;

  apps::lu::Options opts;
  opts.px = 4;
  opts.py = 2;
  opts.nx = 16;
  opts.ny = 16;
  opts.iterations = 3;
  dbg::Debugger debugger(8, [opts](mpi::Comm& comm) {
    apps::lu::rank_body(comm, opts);
  });
  const auto& result = debugger.record();
  std::cout << "LU wavefront recorded ("
            << (result.completed ? "completed" : "failed") << ", "
            << debugger.trace().size() << " records)\n";

  // "The user clicked at the point indicated by the circle": pick a
  // mid-trace receive on rank 5 (an interior rank of the grid).
  const auto& trace = debugger.trace();
  const auto& seq = debugger.session().rank_index().seq[5];
  std::size_t selected = seq[seq.size() / 2];
  for (std::size_t i : seq) {
    if (trace.event(i).kind == trace::EventKind::kRecv &&
        trace.event(i).t_start >= trace.t_max() / 3) {
      selected = i;
      break;
    }
  }

  const auto& order = debugger.order();
  const auto past = order.causal_past(selected);
  const auto future = order.causal_future(selected);
  const auto region = order.concurrency_region(selected);
  std::cout << "selected event: rank " << trace.event(selected).rank
            << ", marker " << trace.event(selected).marker << "\n"
            << "  causal past:        " << past.size() << " events\n"
            << "  causal future:      " << future.size() << " events\n"
            << "  concurrency region: " << region.size() << " events\n";

  std::cout << "\npast frontier (last event on each rank that affects the "
               "selection):\n";
  const auto past_frontier = order.past_frontier(selected);
  for (mpi::Rank r = 0; r < 8; ++r) {
    std::cout << "  rank " << r << ": ";
    if (const auto& f = past_frontier[static_cast<std::size_t>(r)]) {
      const auto& e = trace.event(*f);
      std::cout << "marker " << e.marker << " ("
                << trace.constructs().info(e.construct).name << ")\n";
    } else {
      std::cout << "(none — entire rank is concurrent or in the future)\n";
    }
  }

  // Render the Fig. 8 overlay.
  viz::Overlay overlay;
  overlay.selected_event = selected;
  overlay.past_frontier = past_frontier;
  overlay.future_frontier = order.future_frontier(selected);
  std::ofstream("lu_frontiers.svg") << debugger.diagram().to_svg(overlay);
  std::cout << "\nwrote lu_frontiers.svg\n";

  // Frontier stoplines are directly replayable (§4.1's "not currently
  // implemented" suggestion, implemented).
  const auto stops = debugger.replay_to(debugger.stopline_past_frontier(selected));
  std::cout << "replayed to the past-frontier stopline: " << stops.size()
            << " ranks parked\n";
  debugger.end_replay();
  return 0;
}
