// Figure 7 — "Identification of the incorrect send destination with
// p2d2."
//
// Regenerates the full §4.1 debugging workflow: replay the buggy
// Strassen to a stopline before the distribution loop, then step rank
// 0 through the loop of MatrSend.  The UserMonitor records (call site
// + first two arguments, §2.2) expose each send's destination; the
// bench asserts the bug is localized: operand B of product jres goes
// to rank jres where jres+1 was intended.

#include <cstdio>

#include "apps/strassen.hpp"
#include "bench_util.hpp"
#include "debugger/debugger.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 7: replay + step finds the wrong send destination");

  apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 16;
  opts.buggy = true;
  dbg::Debugger debugger(8, [opts](mpi::Comm& comm) {
    apps::strassen::rank_body(comm, opts);
  });
  if (!debugger.record().deadlocked) {
    std::printf("FAILED: expected the recorded run to deadlock\n");
    return 1;
  }

  // Stopline at rank 0's first MatrSend activation.
  const auto& trace = debugger.trace();
  std::size_t first = 0;
  for (std::size_t i : debugger.session().rank_index().seq[0]) {
    const auto& e = trace.event(i);
    if (e.kind == trace::EventKind::kEnter &&
        trace.constructs().info(e.construct).name == "MatrSend") {
      first = i;
      break;
    }
  }
  replay::Stopline line;
  line.thresholds.assign(8, std::nullopt);
  line.thresholds[0] = trace.event(first).marker;
  const auto stops = debugger.replay_to(line);
  std::printf("replayed; rank 0 parked at marker %llu entering MatrSend\n",
              static_cast<unsigned long long>(stops.at(0).marker));

  // Step through the loop; collect (dest, tag) of every MatrSend.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sends;
  auto* session = debugger.replay_session();
  const auto observe = [&](const replay::StopInfo& stop) {
    if (stop.kind == trace::EventKind::kEnter &&
        trace.constructs().info(stop.construct).name == "MatrSend") {
      const auto rec = session->last_record(0);
      sends.emplace_back(rec.arg1, rec.arg2);
    }
  };
  observe(stops.at(0));
  int steps = 0;
  while (sends.size() < 14 && steps < 1000) {
    const auto stop = debugger.step(0);
    ++steps;
    if (!stop) break;
    observe(*stop);
  }

  std::printf("observed %zu MatrSend calls in %d steps:\n", sends.size(),
              steps);
  int faults = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const auto [dest, tag] = sends[i];
    const int jres = static_cast<int>(i / 2);
    const auto expected = static_cast<std::uint64_t>(jres + 1);
    const bool wrong = dest != expected;
    faults += wrong ? 1 : 0;
    std::printf("  jres=%d operand %c: MatrSend(dest=%llu)%s\n", jres,
                tag == static_cast<std::uint64_t>(apps::strassen::kTagOperandA)
                    ? 'A'
                    : 'B',
                static_cast<unsigned long long>(dest),
                wrong ? "   <-- WRONG, expected jres+1" : "");
  }
  std::printf("localized: %d faulty destinations, all on operand B — the "
              "send loop uses jres where jres+1 was intended\n",
              faults);

  const auto result = debugger.end_replay();
  std::printf("replay ran on to the recorded deadlock: %s\n",
              result && result->deadlocked ? "yes" : "NO");
  bench::note("paper: a few step operations lead to the loop of MatrSend; "
              "jres should be jres+1 in line 161.");
  return faults == static_cast<int>(sends.size() / 2) && faults > 0 ? 0 : 1;
}
