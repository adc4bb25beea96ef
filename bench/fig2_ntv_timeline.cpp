// Figure 2 — "History displayed with NTV.  Angled lines represent
// messages; the vertical line near the left side represents the
// stopline."
//
// Regenerates the display: records the Strassen run, renders the
// NTV-style time-space diagram with a stopline placed early in the
// history (as in the figure), and reports the display statistics —
// bars drawn, message lines drawn, and that the stopline's cut is a
// consistent set of breakpoints.

#include <cstdio>
#include <fstream>

#include "apps/strassen.hpp"
#include "analysis/session.hpp"
#include "bench_util.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"
#include "replay/stopline.hpp"
#include "viz/timeline.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 2: NTV time-space diagram with stopline");

  apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 16;
  const auto rec = replay::record(
      8, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  if (!rec.result.completed) {
    std::printf("FAILED: %s\n", rec.result.abort_detail.c_str());
    return 1;
  }

  analysis::Session session(rec.trace);
  const auto& matches = session.match_report();
  // Stopline "near the left side": 20% into the history.
  const auto t_line =
      rec.trace.t_min() + (rec.trace.t_max() - rec.trace.t_min()) / 5;

  viz::Overlay overlay;
  overlay.stopline = t_line;
  viz::TimeSpaceDiagram diagram(rec.trace);
  const auto svg = diagram.to_svg(overlay);
  std::ofstream("fig2_ntv_timeline.svg") << svg;

  auto cut = causality::cut_at_time(session.rank_index(),
                                    session.event_columns(), t_line);
  causality::restrict_to_consistent(session.match_report(),
                                    session.rank_index(), cut);

  std::printf("processes               : %d\n", rec.trace.num_ranks());
  std::printf("trace records           : %zu\n", rec.trace.size());
  std::printf("message lines drawn     : %zu\n", matches.matches.size());
  std::printf("stopline time           : 20%% into the run\n");
  std::printf("stopline cut consistent : %s\n",
              causality::is_consistent(session.match_report(),
                                       session.rank_index(), cut)
                  ? "yes"
                  : "NO");
  std::printf("svg written             : fig2_ntv_timeline.svg (%zu bytes)\n",
              svg.size());
  std::printf("\nASCII preview (sends 's', recvs 'r', compute '='):\n%s",
              diagram.to_ascii(100, overlay).c_str());
  bench::note("paper: full-trace NTV view; stopline = vertical line, "
              "messages = angled lines.");
  return 0;
}
