// Figure 6 — "Missed message from process 0 to process 7.  The correct
// message sequence is shown in Figure 3.  The vertical stopline (on
// the left side) gives a consistent set of breakpoints for replay."
//
// Regenerates the zoomed diagnosis: magnifies the message bundle of
// the buggy trace, confirms the caption's observations (workers 1-6
// receive 2 messages, worker 7 only 1; one send from 0 is never
// received), places the stopline before the first send, and verifies
// the derived cut is a consistent breakpoint set.

#include <cstdio>
#include <fstream>

#include "analysis/session.hpp"
#include "analysis/traffic.hpp"
#include "apps/strassen.hpp"
#include "bench_util.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"
#include "replay/stopline.hpp"
#include "viz/timeline.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 6: missed message 0->7, stopline for replay");

  apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 16;
  opts.buggy = true;
  const auto rec = replay::record(
      8, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  if (!rec.result.deadlocked) {
    std::printf("FAILED: expected a deadlock\n");
    return 1;
  }

  // The caption's observations, from the trace.
  int recvs[8] = {0};
  rec.trace.for_each_event([&](std::size_t, const trace::Event& e) {
    if (e.kind == trace::EventKind::kRecv) {
      ++recvs[e.rank];
    }
  });
  std::printf("worker receive counts        : ");
  for (int r = 1; r < 8; ++r) std::printf("P%d=%d ", r, recvs[r]);
  std::printf("\n");
  const bool seven_short = recvs[7] == 1;
  std::printf("P7 received only 1 of 2      : %s\n",
              seven_short ? "yes" : "NO");

  analysis::Session session(rec.trace);
  const auto& matches = session.match_report();
  std::printf("missed (unreceived) messages : %zu (expect 1)\n",
              matches.unmatched_sends.size());
  if (!matches.unmatched_sends.empty()) {
    const auto& e = rec.trace.event(matches.unmatched_sends[0]);
    std::printf("  the missed send: rank %d -> rank %d, tag %d (operand B "
                "misdirected)\n",
                e.rank, e.peer, e.tag);
  }

  const auto& traffic = session.traffic();
  std::printf("irregularity report          : %zu finding(s)\n",
              traffic.irregularities.size());
  for (const auto& irr : traffic.irregularities) {
    std::printf("  ! %s\n", irr.description.c_str());
  }

  // Stopline before the first send of the distribution group.
  support::TimeNs first_send_t = rec.trace.t_max();
  bool saw_first_send = false;
  rec.trace.for_each_event([&](std::size_t, const trace::Event& e) {
    if (saw_first_send) return;
    if (e.kind == trace::EventKind::kSend && e.rank == 0) {
      first_send_t = std::min(first_send_t, e.t_start);
      saw_first_send = true;
    }
  });
  const auto t_line = first_send_t - 1;
  auto cut = causality::cut_at_time(session.rank_index(),
                                    session.event_columns(), t_line);
  const auto dropped = causality::restrict_to_consistent(
      session.match_report(), session.rank_index(), cut);
  const auto line = replay::stopline_from_cut(rec.trace, cut);
  int armed = 0;
  for (const auto& t : line.thresholds) armed += t.has_value() ? 1 : 0;
  std::printf("stopline placed before first send; consistent: %s "
              "(%zu events dropped to restore consistency)\n",
              causality::is_consistent(session.match_report(),
                                       session.rank_index(), cut)
                  ? "yes"
                  : "NO",
              dropped);
  std::printf("breakpoints armed            : %d of 8 ranks\n", armed);

  // The zoomed rendering of the message bundle.
  viz::DiagramOptions zoom;
  zoom.window_t0 = rec.trace.t_min();
  zoom.window_t1 =
      rec.trace.t_min() + (rec.trace.t_max() - rec.trace.t_min()) / 2;
  viz::TimeSpaceDiagram magnified(rec.trace, zoom);
  viz::Overlay overlay;
  overlay.stopline = t_line;
  std::ofstream("fig6_stopline_zoom.svg") << magnified.to_svg(overlay);
  std::printf("svg written                  : fig6_stopline_zoom.svg\n");
  bench::note("paper: ranks 1-6 show the tick+bar pattern (2 recvs); rank 7 "
              "misses the tick; stopline gives consistent breakpoints.");
  return seven_short && matches.unmatched_sends.size() == 1 ? 0 : 1;
}
