// analysis::Session contract tests (ctest label `session`):
//
//   * artifact memoization and the shared-reference guarantee,
//   * fused-sweep results equal the legacy per-pass algorithms on the
//     storm, deadlock_ring and synthetic-chain workloads at 1 and 8
//     threads, and traffic, the comm graph, happens-before and the
//     critical-path length equal independent oracles (per-match
//     `event()` lookups, a map/set walk of each rank's store order,
//     BFS transitive closure, Kahn-order longest path).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace tdbg {
namespace {

// --- workloads -------------------------------------------------------------

struct StormPlan {
  std::vector<std::vector<std::array<int, 3>>> sends;  // (dest, tag, payload)
  std::vector<int> recv_count;
};

StormPlan make_storm_plan(int ranks, int msgs_per_rank, std::uint64_t seed) {
  StormPlan plan;
  plan.sends.resize(static_cast<std::size_t>(ranks));
  plan.recv_count.assign(static_cast<std::size_t>(ranks), 0);
  const support::SplitMix64 root(seed);
  for (int s = 0; s < ranks; ++s) {
    auto rng = root.split(static_cast<std::uint64_t>(s));
    for (int m = 0; m < msgs_per_rank; ++m) {
      const int dest =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
      const int tag = static_cast<int>(rng.next_below(5));
      const int payload = static_cast<int>(rng.next_below(100000));
      plan.sends[static_cast<std::size_t>(s)].push_back({dest, tag, payload});
      ++plan.recv_count[static_cast<std::size_t>(dest)];
    }
  }
  return plan;
}

mpi::RankBody storm_body(const StormPlan& plan) {
  return [plan](mpi::Comm& comm) {
    const auto& mine = plan.sends[static_cast<std::size_t>(comm.rank())];
    for (const auto& [dest, tag, payload] : mine) {
      comm.send_value<int>(payload, dest, tag, "storm_send");
    }
    const int quota = plan.recv_count[static_cast<std::size_t>(comm.rank())];
    for (int i = 0; i < quota; ++i) {
      comm.recv_value<int>(mpi::kAnySource, mpi::kAnyTag, nullptr,
                           "storm_recv");
    }
  };
}

/// Token ring; with the deadlock_ring fault plan armed, rank 0's send
/// is held and the run deadlocks, leaving unmatched traffic.
mpi::RankBody ring_body(int n) {
  return [n](mpi::Comm& comm) {
    const mpi::Rank r = comm.rank();
    const mpi::Rank next = (r + 1) % n;
    const mpi::Rank prev = (r + n - 1) % n;
    if (r == 0) {
      comm.send_value<int>(42, next, /*tag=*/1);
      comm.recv_value<int>(prev, /*tag=*/1);
    } else {
      const int token = comm.recv_value<int>(prev, /*tag=*/1);
      comm.send_value<int>(token, next, /*tag=*/1);
    }
  };
}

/// Deterministic synthetic trace: increasing timestamps (display order
/// == construction order), per-rank monotone markers, valid per-channel
/// sequence numbers, and a mix of matched, pending, and compute events.
std::vector<trace::Event> synth_events(std::size_t n, int ranks,
                                       std::uint64_t seed) {
  auto rng = support::SplitMix64(seed).split(1);
  std::vector<trace::Event> events;
  events.reserve(n);
  std::vector<std::uint64_t> next_marker(static_cast<std::size_t>(ranks), 1);
  // Per (src, dst): sends issued, receives consumed.
  std::map<std::pair<int, int>, std::pair<std::uint64_t, std::uint64_t>> chan;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    e.rank = rank;
    e.marker = next_marker[static_cast<std::size_t>(rank)]++;
    e.t_start = static_cast<support::TimeNs>(i) * 10;
    e.t_end = e.t_start + 6;
    const auto roll = rng.next_below(4);
    e.kind = trace::EventKind::kCompute;
    if (roll == 0 && ranks > 1) {
      const int peer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 +
           rng.next_below(static_cast<std::uint64_t>(ranks - 1))) %
          static_cast<std::uint64_t>(ranks));
      e.kind = trace::EventKind::kSend;
      e.peer = peer;
      e.tag = static_cast<mpi::Tag>(rng.next_below(3));
      e.bytes = 8 + rng.next_below(64);
      ++chan[{rank, peer}].first;
    } else if (roll == 1) {
      // Receive the oldest pending message from some source, if any.
      const auto start = rng.next_below(static_cast<std::uint64_t>(ranks));
      for (int k = 0; k < ranks; ++k) {
        const int src = static_cast<int>(
            (start + static_cast<std::uint64_t>(k)) %
            static_cast<std::uint64_t>(ranks));
        auto& [sent, received] = chan[{src, rank}];
        if (src == rank || received >= sent) continue;
        e.kind = trace::EventKind::kRecv;
        e.peer = src;
        e.channel_seq = static_cast<mpi::ChannelSeq>(received++);
        e.tag = static_cast<mpi::Tag>(rng.next_below(3));
        e.bytes = 8 + rng.next_below(64);
        e.wildcard = rng.next_below(2) == 0;
        break;
      }
    }
    events.push_back(e);
  }
  return events;
}

// --- legacy per-pass reference implementations -----------------------------

/// The pre-refactor serial matcher: one direct scan over the trace,
/// per-channel FIFO pairing by sequence number, canonical ordering.
trace::MatchReport legacy_match(const trace::Trace& trace) {
  struct ChSend {
    std::uint64_t marker = 0;
    support::TimeNs t_start = 0;
    std::size_t index = 0;
  };
  struct ChRecv {
    mpi::ChannelSeq seq = 0;
    std::size_t index = 0;
  };
  std::map<std::pair<mpi::Rank, mpi::Rank>, std::vector<ChSend>> sends;
  std::map<std::pair<mpi::Rank, mpi::Rank>, std::vector<ChRecv>> recvs;
  trace.for_each_event([&](std::size_t i, const trace::Event& e) {
    if (e.kind == trace::EventKind::kSend) {
      sends[{e.rank, e.peer}].push_back({e.marker, e.t_start, i});
    } else if (e.kind == trace::EventKind::kRecv) {
      recvs[{e.peer, e.rank}].push_back({e.channel_seq, i});
    }
  });
  trace::MatchReport report;
  std::map<std::pair<mpi::Rank, mpi::Rank>, std::vector<bool>> used;
  for (auto& [key, ss] : sends) {
    std::stable_sort(ss.begin(), ss.end(),
                     [](const ChSend& a, const ChSend& b) {
                       if (a.marker != b.marker) return a.marker < b.marker;
                       return a.t_start < b.t_start;
                     });
    used[key].assign(ss.size(), false);
  }
  for (const auto& [key, rs] : recvs) {
    const auto it = sends.find(key);
    for (const auto& rv : rs) {
      if (it == sends.end() || rv.seq >= it->second.size() ||
          used[key][rv.seq]) {
        report.unmatched_recvs.push_back(rv.index);
        continue;
      }
      used[key][rv.seq] = true;
      report.matches.push_back(
          trace::MessageMatch{it->second[rv.seq].index, rv.index});
    }
  }
  for (const auto& [key, ss] : sends) {
    const auto& u = used[key];
    for (std::size_t s = 0; s < ss.size(); ++s) {
      if (!u[s]) report.unmatched_sends.push_back(ss[s].index);
    }
  }
  std::sort(report.matches.begin(), report.matches.end(),
            [](const trace::MessageMatch& a, const trace::MessageMatch& b) {
              return a.recv_index < b.recv_index;
            });
  std::sort(report.unmatched_sends.begin(), report.unmatched_sends.end());
  std::sort(report.unmatched_recvs.begin(), report.unmatched_recvs.end());
  return report;
}

void expect_match_reports_equal(const trace::MatchReport& a,
                                const trace::MatchReport& b) {
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].send_index, b.matches[i].send_index) << "at " << i;
    EXPECT_EQ(a.matches[i].recv_index, b.matches[i].recv_index) << "at " << i;
  }
  EXPECT_EQ(a.unmatched_sends, b.unmatched_sends);
  EXPECT_EQ(a.unmatched_recvs, b.unmatched_recvs);
}

/// The legacy traffic totals: per-match `trace.event()` lookups, the
/// way `analyze_traffic` accumulated before the fused sweep.
struct LegacyRankTotals {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
};

std::vector<LegacyRankTotals> legacy_rank_totals(
    const trace::Trace& trace, const trace::MatchReport& report) {
  std::vector<LegacyRankTotals> totals(
      static_cast<std::size_t>(trace.num_ranks()));
  for (const auto& m : report.matches) {
    const auto send = trace.event(m.send_index);
    const auto recv = trace.event(m.recv_index);
    auto& s = totals[static_cast<std::size_t>(send.rank)];
    ++s.sends;
    s.bytes_out += send.bytes;
    auto& d = totals[static_cast<std::size_t>(recv.rank)];
    ++d.recvs;
    d.bytes_in += recv.bytes;
  }
  return totals;
}

/// The legacy per-channel statistics: per-match `trace.event()`
/// lookups keyed by (source, dest).
struct LegacyChannel {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  support::TimeNs min_latency = 0;
  support::TimeNs max_latency = 0;
  std::int64_t latency_sum = 0;
};

std::map<std::pair<mpi::Rank, mpi::Rank>, LegacyChannel> legacy_channels(
    const trace::Trace& trace, const trace::MatchReport& report) {
  std::map<std::pair<mpi::Rank, mpi::Rank>, LegacyChannel> channels;
  for (const auto& m : report.matches) {
    const auto send = trace.event(m.send_index);
    const auto recv = trace.event(m.recv_index);
    auto& ch = channels[{send.rank, send.peer}];
    const auto latency = recv.t_end - send.t_start;
    if (ch.messages == 0 || latency < ch.min_latency) ch.min_latency = latency;
    if (ch.messages == 0 || latency > ch.max_latency) ch.max_latency = latency;
    ch.latency_sum += latency;
    ++ch.messages;
    ch.bytes += send.bytes;
  }
  return channels;
}

/// The legacy irregularity list: missed sends, then orphan receives,
/// each described from its own `trace.event()` record, then every
/// non-root rank whose receive count is not the most common one.
std::vector<analysis::Irregularity> legacy_irregularities(
    const trace::Trace& trace, const trace::MatchReport& report,
    const std::vector<LegacyRankTotals>& totals) {
  using Kind = analysis::Irregularity::Kind;
  std::vector<analysis::Irregularity> out;
  for (const std::size_t i : report.unmatched_sends) {
    const auto e = trace.event(i);
    out.push_back({Kind::kUnmatchedSend, e.rank, i,
                   "missed message: send " + std::to_string(e.rank) + "->" +
                       std::to_string(e.peer) + " tag " +
                       std::to_string(e.tag) + " was never received"});
  }
  for (const std::size_t i : report.unmatched_recvs) {
    const auto e = trace.event(i);
    out.push_back({Kind::kOrphanRecv, e.rank, i,
                   "orphan receive on rank " + std::to_string(e.rank) +
                       " from " + std::to_string(e.peer) +
                       " (no send record)"});
  }
  std::map<std::uint64_t, int> freq;
  for (std::size_t r = 1; r < totals.size(); ++r) ++freq[totals[r].recvs];
  if (totals.size() > 2 && freq.size() > 1) {
    const auto modal = std::max_element(
        freq.begin(), freq.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    for (std::size_t r = 1; r < totals.size(); ++r) {
      if (totals[r].recvs == modal->first) continue;
      const auto rank = static_cast<mpi::Rank>(r);
      out.push_back({Kind::kRecvCountOutlier, rank, 0,
                     "rank " + std::to_string(r) + " received " +
                         std::to_string(totals[r].recvs) +
                         " messages; its peers received " +
                         std::to_string(modal->first)});
    }
  }
  return out;
}

// --- independent oracles ---------------------------------------------------

/// Rank `r`'s display indices in program order, collected from the
/// store's own cursor so the oracles stay independent of the Session.
std::vector<std::size_t> store_rank_order(const trace::Trace& trace,
                                          mpi::Rank r) {
  std::vector<std::size_t> seq;
  trace.for_each_rank_event(
      r, [&seq](std::size_t i, const trace::Event&) { seq.push_back(i); });
  return seq;
}

/// Successor lists of the message DAG, from the store's per-rank
/// cursor plus the match edges.
std::vector<std::vector<std::size_t>> dag_successors(
    const trace::Trace& trace, const trace::MatchReport& report) {
  std::vector<std::vector<std::size_t>> succ(trace.size());
  for (mpi::Rank r = 0; r < trace.num_ranks(); ++r) {
    const auto seq = store_rank_order(trace, r);
    for (std::size_t k = 1; k < seq.size(); ++k) {
      succ[seq[k - 1]].push_back(seq[k]);
    }
  }
  for (const auto& m : report.matches) {
    succ[m.send_index].push_back(m.recv_index);
  }
  return succ;
}

/// The comm graph from the legacy match report: node per match, then
/// per unmatched send and orphan receive; arcs from a walk of each
/// rank's store order through a map from event to node, deduplicated
/// by a set.
graph::CommGraph oracle_comm_graph(const trace::Trace& trace,
                                   const trace::MatchReport& report) {
  std::vector<graph::MessageNode> nodes;
  std::map<std::size_t, std::size_t> node_of;
  for (const auto& m : report.matches) {
    const auto send = trace.event(m.send_index);
    node_of[m.send_index] = node_of[m.recv_index] = nodes.size();
    nodes.push_back({m.send_index, m.recv_index, send.rank, send.peer,
                     send.tag});
  }
  for (const std::size_t i : report.unmatched_sends) {
    const auto send = trace.event(i);
    node_of[i] = nodes.size();
    nodes.push_back({i, graph::kNoEvent, send.rank, send.peer, send.tag});
  }
  for (const std::size_t i : report.unmatched_recvs) {
    const auto recv = trace.event(i);
    node_of[i] = nodes.size();
    nodes.push_back({graph::kNoEvent, i, recv.peer, recv.rank, recv.tag});
  }
  std::set<std::pair<std::size_t, std::size_t>> arcs;
  for (mpi::Rank r = 0; r < trace.num_ranks(); ++r) {
    std::optional<std::size_t> prev;
    for (const std::size_t i : store_rank_order(trace, r)) {
      const auto it = node_of.find(i);
      if (it == node_of.end()) continue;
      if (prev && *prev != it->second) arcs.emplace(*prev, it->second);
      prev = it->second;
    }
  }
  return graph::CommGraph(std::move(nodes), {arcs.begin(), arcs.end()});
}

/// Happens-before as a transitive closure: `reach[a][b]` iff a BFS from
/// `a` reaches `b`.
std::vector<std::vector<bool>> bfs_closure(
    const std::vector<std::vector<std::size_t>>& succ) {
  const std::size_t n = succ.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::size_t> queue = succ[a];
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t x = queue[head];
      if (reach[a][x]) continue;
      reach[a][x] = true;
      queue.insert(queue.end(), succ[x].begin(), succ[x].end());
    }
  }
  return reach;
}

/// The critical-path length by a longest-path DP over a Kahn order.
/// Weights follow the documented rule: an event's self time (its
/// interval minus those of events directly nested in it on its rank),
/// and for a matched receive only the time after its send finished.
support::TimeNs kahn_longest_path(const trace::Trace& trace,
                                  const trace::MatchReport& report) {
  const std::size_t n = trace.size();
  std::vector<support::TimeNs> weight(n, 0);
  for (mpi::Rank r = 0; r < trace.num_ranks(); ++r) {
    std::vector<std::size_t> open;  // enclosing intervals, innermost last
    for (const std::size_t i : store_rank_order(trace, r)) {
      const auto e = trace.event(i);
      const auto raw = std::max<support::TimeNs>(0, e.t_end - e.t_start);
      weight[i] = raw;
      while (!open.empty() && trace.event(open.back()).t_end <= e.t_start) {
        open.pop_back();
      }
      if (open.empty()) {
        open.push_back(i);
      } else if (e.t_end <= trace.event(open.back()).t_end) {
        weight[open.back()] =
            std::max<support::TimeNs>(0, weight[open.back()] - raw);
        open.push_back(i);
      }
    }
  }
  for (const auto& m : report.matches) {
    const auto recv = trace.event(m.recv_index);
    const auto send = trace.event(m.send_index);
    weight[m.recv_index] = std::max<support::TimeNs>(
        0, recv.t_end - std::max(recv.t_start, send.t_end));
  }

  const auto succ = dag_successors(trace, report);
  std::vector<std::size_t> indegree(n, 0);
  for (const auto& out : succ) {
    for (const std::size_t s : out) ++indegree[s];
  }
  std::vector<std::size_t> ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::vector<support::TimeNs> incoming(n, 0);
  support::TimeNs longest = 0;
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    ++visited;
    const support::TimeNs done = incoming[v] + weight[v];
    longest = std::max(longest, done);
    for (const std::size_t s : succ[v]) {
      incoming[s] = std::max(incoming[s], done);
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  EXPECT_EQ(visited, n) << "oracle found a cycle";
  return longest;
}

/// Full fused-vs-legacy comparison for one trace at one thread count.
void expect_fused_equals_legacy(const trace::Trace& trace,
                                std::size_t threads) {
  exec::ScopedExecutor pool(threads);
  analysis::Session session(trace);

  // Matching: fused per-channel pairing == the serial direct scan.
  const auto& report = session.match_report();
  expect_match_reports_equal(report, legacy_match(trace));

  // Rank index: the shared artifact == the store's per-rank cursor.
  const auto& index = session.rank_index();
  ASSERT_EQ(index.seq.size(), static_cast<std::size_t>(trace.num_ranks()));
  for (mpi::Rank r = 0; r < trace.num_ranks(); ++r) {
    EXPECT_EQ(index.seq[static_cast<std::size_t>(r)],
              store_rank_order(trace, r))
        << "rank " << r;
  }

  // Traffic: sweep-record accounting == per-match event() lookups.
  const auto& traffic = session.traffic();
  const auto legacy = legacy_match(trace);
  const auto totals = legacy_rank_totals(trace, legacy);
  ASSERT_EQ(traffic.ranks.size(), totals.size());
  for (std::size_t r = 0; r < totals.size(); ++r) {
    EXPECT_EQ(traffic.ranks[r].sends, totals[r].sends) << "rank " << r;
    EXPECT_EQ(traffic.ranks[r].recvs, totals[r].recvs) << "rank " << r;
    EXPECT_EQ(traffic.ranks[r].bytes_out, totals[r].bytes_out) << "rank " << r;
    EXPECT_EQ(traffic.ranks[r].bytes_in, totals[r].bytes_in) << "rank " << r;
  }
  const auto channels = legacy_channels(trace, legacy);
  ASSERT_EQ(traffic.channels.size(), channels.size());
  std::size_t c = 0;
  for (const auto& [key, ch] : channels) {
    const auto& got = traffic.channels[c++];
    EXPECT_EQ(std::make_pair(got.src, got.dst), key);
    EXPECT_EQ(got.messages, ch.messages) << key.first << "->" << key.second;
    EXPECT_EQ(got.bytes, ch.bytes) << key.first << "->" << key.second;
    EXPECT_EQ(got.min_latency, ch.min_latency);
    EXPECT_EQ(got.max_latency, ch.max_latency);
    EXPECT_EQ(got.mean_latency, static_cast<double>(ch.latency_sum) /
                                    static_cast<double>(ch.messages));
  }
  const auto irregularities = legacy_irregularities(trace, legacy, totals);
  ASSERT_EQ(traffic.irregularities.size(), irregularities.size());
  for (std::size_t k = 0; k < irregularities.size(); ++k) {
    const auto& got = traffic.irregularities[k];
    const auto& want = irregularities[k];
    EXPECT_EQ(got.kind, want.kind) << "at " << k;
    EXPECT_EQ(got.rank, want.rank) << "at " << k;
    EXPECT_EQ(got.event, want.event) << "at " << k;
    EXPECT_EQ(got.description, want.description) << "at " << k;
  }

  // Comm graph: flat node array + per-rank arc merge == map/set walk.
  const auto& comm = session.comm_graph();
  const auto want_comm = oracle_comm_graph(trace, legacy);
  ASSERT_EQ(comm.nodes().size(), want_comm.nodes().size());
  for (std::size_t k = 0; k < comm.nodes().size(); ++k) {
    const auto& got = comm.nodes()[k];
    const auto& want = want_comm.nodes()[k];
    EXPECT_EQ(got.send_event, want.send_event) << "node " << k;
    EXPECT_EQ(got.recv_event, want.recv_event) << "node " << k;
    EXPECT_EQ(got.src, want.src) << "node " << k;
    EXPECT_EQ(got.dst, want.dst) << "node " << k;
    EXPECT_EQ(got.tag, want.tag) << "node " << k;
  }
  EXPECT_EQ(comm.arcs(), want_comm.arcs());

  // Happens-before on every pair == the BFS transitive closure.
  const auto& order = session.causal_order();
  const auto reach = bfs_closure(dag_successors(trace, report));
  for (std::size_t a = 0; a < trace.size(); ++a) {
    for (std::size_t b = 0; b < trace.size(); ++b) {
      ASSERT_EQ(order.happens_before(a, b), reach[a][b]) << a << " -> " << b;
    }
  }

  // Critical-path length == the Kahn-order longest-path DP.
  EXPECT_EQ(session.critical_path().total, kahn_longest_path(trace, report));
}

// --- memoization -----------------------------------------------------------

TEST(SessionTest, ArtifactsAreSharedAndMemoized) {
  const auto rec = replay::record(4, ring_body(4));
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);

  const auto* first = &session.match_report();
  EXPECT_EQ(first, &session.match_report());  // same object, no rebuild

  // The three history views share one event-column gather.
  (void)session.critical_path();
  (void)session.action_graph();
  (void)session.trace_graph();

  std::map<std::string, analysis::PassInfo> passes;
  for (const auto& info : session.pass_states()) passes[info.name] = info;
  ASSERT_TRUE(passes.count("match"));
  EXPECT_TRUE(passes["match"].cached);
  EXPECT_EQ(passes["match"].computes, 1u);
  EXPECT_GE(passes["match"].reuses, 1u);
  ASSERT_TRUE(passes.count("event_columns"));
  EXPECT_TRUE(passes["event_columns"].cached);
  EXPECT_EQ(passes["event_columns"].computes, 1u);
  EXPECT_EQ(passes["event_columns"].reuses, 2u);
  EXPECT_EQ(passes["critical_path"].deps,
            "rank_index, event_columns, message_dag");
  EXPECT_EQ(passes["action_graph"].deps, "rank_index, event_columns");
  EXPECT_EQ(passes["trace_graph"].deps, "rank_index, event_columns");
  EXPECT_NE(session.describe().find("analysis session"), std::string::npos);
}

// --- fused == legacy per-pass ----------------------------------------------

TEST(SessionTest, FusedEqualsLegacyOnStormAt1And8Threads) {
  const auto plan = make_storm_plan(8, 40, /*seed=*/55);
  const auto rec = replay::record(8, storm_body(plan));
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  expect_fused_equals_legacy(rec.trace, 1);
  expect_fused_equals_legacy(rec.trace, 8);
}

TEST(SessionTest, FusedEqualsLegacyOnSyntheticChainsAt1And8Threads) {
  // Sends and receives interleave on every rank, so causal chains run
  // through several ranks — which neither the send-then-receive storm
  // nor the held ring produces.
  constexpr int kRanks = 6;
  const trace::Trace trace(kRanks, synth_events(1200, kRanks, /*seed=*/99),
                           nullptr);
  expect_fused_equals_legacy(trace, 1);
  expect_fused_equals_legacy(trace, 8);
}

TEST(SessionTest, FusedEqualsLegacyOnDeadlockRingAt1And8Threads) {
  constexpr int kRanks = 6;
  fault::FaultEngine engine(fault::FaultPlan::named("deadlock_ring",
                                                    /*seed=*/3),
                            kRanks);
  replay::RecordOptions options;
  options.fault_engine = &engine;
  const auto rec = replay::record(kRanks, ring_body(kRanks), options);
  ASSERT_FALSE(rec.trace.empty());
  // The held message leaves unmatched traffic — the interesting case.
  {
    exec::ScopedExecutor pool(1);
    analysis::Session probe(rec.trace);
    EXPECT_FALSE(probe.match_report().unmatched_sends.empty() &&
                 probe.match_report().unmatched_recvs.empty());
  }
  expect_fused_equals_legacy(rec.trace, 1);
  expect_fused_equals_legacy(rec.trace, 8);
}

}  // namespace
}  // namespace tdbg
