// The paper's running example, end to end (Figures 3-7): debug the
// distributed Strassen matrix multiply whose send-destination bug
// deadlocks ranks 0 and 7.
//
// The session follows §4.1 of the paper:
//   1. the buggy program hangs; the watchdog unwinds it and we get a
//      trace to the point of the failure;
//   2. the time-space diagram and traffic analysis show rank 7
//      received one message where its peers received two, and one
//      send was never received (the "missed message" of Fig. 6);
//   3. a stopline before the distribution loop gives a consistent set
//      of breakpoints; replaying parks rank 0 there;
//   4. stepping through the MatrSend loop shows the wrong destination
//      (the paper's "jres should be replaced by jres+1", Fig. 7).
//
// Writes strassen_correct.svg / strassen_buggy.svg next to the binary.

#include <fstream>
#include <iostream>

#include "apps/strassen.hpp"
#include "debugger/debugger.hpp"
#include "graph/export.hpp"

namespace {

tdbg::mpi::RankBody strassen(bool buggy) {
  tdbg::apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 16;
  opts.buggy = buggy;
  return [opts](tdbg::mpi::Comm& comm) {
    tdbg::apps::strassen::rank_body(comm, opts);
  };
}

void save(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  std::cout << "  wrote " << path << "\n";
}

}  // namespace

int main() {
  using namespace tdbg;

  std::cout << "=== 1. the correct program (Fig. 3) ===\n";
  {
    dbg::Debugger good(8, strassen(false));
    const auto& result = good.record();
    std::cout << "run " << (result.completed ? "completed" : "FAILED")
              << "; " << good.comm_graph().nodes().size()
              << " messages (expect 21: 7 products x 2 operands + 7 "
                 "results)\n";
    save("strassen_correct.svg", good.diagram().to_svg());
    save("strassen_comm_graph.vcg",
         graph::to_vcg(good.comm_graph().to_export()));
  }

  std::cout << "\n=== 2. the buggy program hangs (Fig. 5) ===\n";
  dbg::Debugger debugger(8, strassen(true));
  const auto& result = debugger.record();
  std::cout << "watchdog: " << result.abort_detail << "\n";
  const auto deadlock = debugger.deadlock_report();
  std::cout << "analysis: " << deadlock.description << "\n";
  save("strassen_buggy.svg", debugger.diagram().to_svg());

  std::cout << "\n=== 3. what does the traffic look like? (Fig. 6) ===\n";
  const auto traffic = debugger.traffic();
  for (const auto& irr : traffic.irregularities) {
    std::cout << "  ! " << irr.description << "\n";
  }

  std::cout << "\n=== 4. stopline before the first send; replay ===\n";
  const auto& trace = debugger.trace();
  std::size_t first_send = 0;
  for (std::size_t i : debugger.session().rank_index().seq[0]) {
    const auto& e = trace.event(i);
    if (e.kind == trace::EventKind::kEnter &&
        trace.constructs().info(e.construct).name == "MatrSend") {
      first_send = i;
      break;
    }
  }
  replay::Stopline line;
  line.thresholds.assign(8, std::nullopt);
  line.thresholds[0] = trace.event(first_send).marker;
  const auto stops = debugger.replay_to(line);
  std::cout << "rank 0 parked at marker " << stops.at(0).marker
            << ", entering MatrSend\n";

  std::cout << "\n=== 5. step through the MatrSend loop (Fig. 7) ===\n";
  std::cout << "  dest of each send (pairs should go to the SAME worker; "
               "operand A then B):\n";
  int sends_seen = 0;
  auto* session = debugger.replay_session();
  const auto record_send = [&](const replay::StopInfo& stop) {
    if (stop.kind != trace::EventKind::kEnter) return;
    if (trace.constructs().info(stop.construct).name != "MatrSend") return;
    const auto dest = session->last_record(0).arg1;
    const auto tag = session->last_record(0).arg2;
    std::cout << "    MatrSend(dest=" << dest << ", tag=" << tag << ")"
              << (tag == apps::strassen::kTagOperandB ? "   <- operand B"
                                                      : "")
              << "\n";
    ++sends_seen;
  };
  record_send(stops.at(0));
  while (sends_seen < 6) {
    const auto stop = debugger.step(0);
    if (!stop) break;
    record_send(*stop);
  }
  std::cout << "  => operand B goes to worker jres instead of jres+1: the\n"
               "     bug is the destination index in the send loop.\n";

  const auto replay_result = debugger.end_replay();
  std::cout << "\nreplay ended ("
            << (replay_result && replay_result->deadlocked
                    ? "deadlocked again, as recorded"
                    : "unexpected outcome")
            << ")\n";
  return 0;
}
