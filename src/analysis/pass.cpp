#include "analysis/pass.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>

#include "support/error.hpp"
#include "support/executor.hpp"

namespace tdbg::analysis {

namespace {

/// One segment's records.  Channels live in a flat nranks² slab
/// indexed (src * nranks + dst) — the sweep touches a channel slot
/// per message event, and an ordered map's node allocation + key
/// comparisons there is the sweep's single biggest per-event cost.
/// Row-major iteration of the slab reproduces ChannelKey order
/// exactly, so the fold is order-identical to the old map walk.
/// Out-of-range ranks (hostile or corrupt trace files) fall back to
/// the `overflow` map rather than faulting.
struct SweepPartial {
  int num_ranks = 0;
  std::vector<SweepChannel> flat;
  std::map<SweepData::ChannelKey, SweepChannel> overflow;
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> rank_order;
};

/// Appends one segment's records into `part`.
void sweep_segment(const trace::Trace& trace, std::size_t seg,
                   SweepPartial& part) {
  const int nr = trace.num_ranks();
  const auto nru = static_cast<std::size_t>(nr);
  part.num_ranks = nr;
  part.flat.resize(nru * nru);
  part.rank_order.resize(nru);
  const auto channel = [&](mpi::Rank src, mpi::Rank dst) -> SweepChannel& {
    if (src >= 0 && src < nr && dst >= 0 && dst < nr) {
      return part.flat[static_cast<std::size_t>(src) * nru +
                       static_cast<std::size_t>(dst)];
    }
    return part.overflow[SweepData::ChannelKey(src, dst)];
  };
  // Column pushdown: the sweep never reads `construct`, and a segment
  // whose zone map shows no message events contributes only to the
  // rank-order index — rank + marker are the only columns a columnar
  // backend then has to decode.
  const std::uint32_t msg_mask =
      (1u << static_cast<unsigned>(trace::EventKind::kSend)) |
      (1u << static_cast<unsigned>(trace::EventKind::kRecv));
  if (const auto zones = trace.segment_zones(seg);
      zones && (zones->kind_mask & msg_mask) == 0) {
    trace.for_each_in_segment_cols(
        seg, trace::kColRank | trace::kColMarker,
        [&](std::size_t i, const trace::Event& e) {
          part.rank_order[static_cast<std::size_t>(e.rank)].emplace_back(
              e.marker, i);
        });
    return;
  }
  trace.for_each_in_segment_cols(
      seg, trace::kAllEventColumns & ~trace::kColConstruct,
      [&](std::size_t i, const trace::Event& e) {
        part.rank_order[static_cast<std::size_t>(e.rank)].emplace_back(
            e.marker, i);
        if (e.kind == trace::EventKind::kSend) {
          channel(e.rank, e.peer).sends.push_back(
              SweepSend{i, e.marker, e.t_start, e.rank, e.peer, e.tag,
                        e.bytes});
        } else if (e.kind == trace::EventKind::kRecv) {
          channel(e.peer, e.rank).recvs.push_back(
              SweepRecv{i, e.channel_seq, e.t_end, e.rank, e.peer,
                        e.tag, e.bytes, e.wildcard});
        }
      });
}

/// Appends every element of `from` to `to`.
template <typename To, typename From>
void append_all(To& to, const From& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void fold_partial(SweepData& acc, SweepPartial&& part) {
  const auto append = [&acc](SweepData::ChannelKey key, SweepChannel& ch) {
    if (ch.sends.empty() && ch.recvs.empty()) return;
    auto& dst = acc.channels[key];
    append_all(dst.sends, ch.sends);
    append_all(dst.recvs, ch.recvs);
  };
  const auto nru = static_cast<std::size_t>(part.num_ranks);
  for (std::size_t src = 0; src < nru; ++src) {
    for (std::size_t dst = 0; dst < nru; ++dst) {
      append(SweepData::ChannelKey(static_cast<mpi::Rank>(src),
                                   static_cast<mpi::Rank>(dst)),
             part.flat[src * nru + dst]);
    }
  }
  for (auto& [key, ch] : part.overflow) append(key, ch);
  for (std::size_t r = 0; r < part.rank_order.size(); ++r) {
    append_all(acc.rank_order[r], part.rank_order[r]);
  }
}

/// The sweep's channels as a flat list in key order, so one task per
/// channel can index them.
std::vector<const std::pair<const SweepData::ChannelKey, SweepChannel>*>
channel_list(const SweepData& sweep) {
  std::vector<const std::pair<const SweepData::ChannelKey, SweepChannel>*>
      flat;
  flat.reserve(sweep.channels.size());
  for (const auto& entry : sweep.channels) flat.push_back(&entry);
  return flat;
}

/// The non-overtaking rule on one channel, shared by matching, traffic
/// and the comm graph: the receive with channel sequence number k takes
/// the k-th send in FIFO order; a receive whose send is missing or
/// already taken is an orphan.  Calls `on_match(send, recv)` and
/// `on_orphan(recv)` in receive display order, then `on_unmatched(send)`
/// for every send left over, in FIFO order.
template <typename OnMatch, typename OnOrphan, typename OnUnmatched>
void pair_channel(const SweepChannel& ch, OnMatch&& on_match,
                  OnOrphan&& on_orphan, OnUnmatched&& on_unmatched) {
  std::vector<bool> used(ch.sends.size(), false);
  for (const SweepRecv& rv : ch.recvs) {
    if (rv.seq >= ch.sends.size() || used[rv.seq]) {
      on_orphan(rv);
      continue;
    }
    used[rv.seq] = true;
    on_match(ch.sends[rv.seq], rv);
  }
  for (std::size_t s = 0; s < ch.sends.size(); ++s) {
    if (!used[s]) on_unmatched(ch.sends[s]);
  }
}

}  // namespace

SweepData compute_sweep(const trace::Trace& trace) {
  const std::size_t nseg = trace.segment_count();
  std::vector<SweepPartial> partials(nseg);
  trace.parallel_for_each_segment("session.sweep", [&](std::size_t seg) {
    sweep_segment(trace, seg, partials[seg]);
  });
  // Folding in segment-index order keeps the result bit-identical at
  // any thread count.
  SweepData sweep;
  sweep.rank_order.resize(static_cast<std::size_t>(trace.num_ranks()));
  for (std::size_t seg = 0; seg < nseg; ++seg) {
    fold_partial(sweep, std::move(partials[seg]));
  }
  // Per-rank program order: sort by (marker, display index), which
  // reproduces the store's stable by-marker ordering exactly; and the
  // sends of each channel the rank sends on into FIFO order, the
  // sender's program order (marker, t_start), stable among ties.  A
  // rank's markers are monotone in display order for every trace the
  // runtime writes (one thread per rank, timestamps taken in program
  // order), so lists collected in segment order are nearly always
  // sorted already — check before paying for the sorts that cover
  // reordered hand-built files.  Each task touches only its own rank's
  // lists, so the tasks never conflict.
  const auto fifo = [](const SweepSend& a, const SweepSend& b) {
    return std::tie(a.marker, a.t_start) < std::tie(b.marker, b.t_start);
  };
  exec::Executor::global().parallel_for(
      sweep.rank_order.size(), "session.rank_index", [&](std::size_t r) {
        auto& order = sweep.rank_order[r];
        if (!std::is_sorted(order.begin(), order.end())) {
          std::sort(order.begin(), order.end());
        }
        const auto src = static_cast<mpi::Rank>(r);
        for (auto it = sweep.channels.lower_bound(
                 {src, std::numeric_limits<mpi::Rank>::min()});
             it != sweep.channels.end() && it->first.first == src; ++it) {
          auto& sends = it->second.sends;
          if (!std::is_sorted(sends.begin(), sends.end(), fifo)) {
            std::stable_sort(sends.begin(), sends.end(), fifo);
          }
        }
      });
  sweep.num_events = trace.size();
  return sweep;
}

trace::MatchReport compute_match_report(const SweepData& sweep) {
  // Pairing, one task per channel.  Channels are independent, so each
  // task works on its own slot and the merge below just walks slots in
  // key order.
  const auto flat = channel_list(sweep);
  std::vector<trace::MatchReport> per_channel(flat.size());
  exec::Executor::global().parallel_for(
      flat.size(), "session.match.pair", [&](std::size_t c) {
        auto& out = per_channel[c];
        pair_channel(
            flat[c]->second,
            [&](const SweepSend& send, const SweepRecv& recv) {
              out.matches.push_back(
                  trace::MessageMatch{send.index, recv.index});
            },
            [&](const SweepRecv& recv) {
              out.unmatched_recvs.push_back(recv.index);
            },
            [&](const SweepSend& send) {
              out.unmatched_sends.push_back(send.index);
            });
      });

  // Canonicalize: matches and orphan receives in global recv display
  // order, unmatched sends sorted by index — exactly the serial
  // algorithm's output.
  trace::MatchReport report;
  for (const auto& cr : per_channel) {
    append_all(report.matches, cr.matches);
    append_all(report.unmatched_sends, cr.unmatched_sends);
    append_all(report.unmatched_recvs, cr.unmatched_recvs);
  }
  std::sort(report.matches.begin(), report.matches.end(),
            [](const trace::MessageMatch& a, const trace::MessageMatch& b) {
              return a.recv_index < b.recv_index;
            });
  std::sort(report.unmatched_sends.begin(), report.unmatched_sends.end());
  std::sort(report.unmatched_recvs.begin(), report.unmatched_recvs.end());
  return report;
}

std::shared_ptr<const trace::RankIndex> compute_rank_index(
    const SweepData& sweep) {
  auto index = std::make_shared<trace::RankIndex>();
  index->seq.resize(sweep.rank_order.size());
  index->position.assign(sweep.num_events, 0);
  index->rank.assign(sweep.num_events, 0);
  exec::Executor::global().parallel_for(
      sweep.rank_order.size(), "session.rank_index.build",
      [&](std::size_t r) {
        auto& seq = index->seq[r];
        seq.reserve(sweep.rank_order[r].size());
        for (const auto& [marker, i] : sweep.rank_order[r]) {
          index->position[i] = seq.size();
          index->rank[i] = static_cast<mpi::Rank>(r);
          seq.push_back(i);
        }
      });
  return index;
}

trace::MessageDag compute_message_dag(const trace::MatchReport& report,
                                      const trace::RankIndex& index) {
  constexpr std::size_t kNone = trace::MessageDag::kNone;
  const std::size_t n = index.position.size();
  trace::MessageDag dag;
  // Receives first: while the schedule below runs, an event has a
  // partner exactly when it must wait for it.
  dag.partner.assign(n, kNone);
  for (const auto& m : report.matches) dag.partner[m.recv_index] = m.send_index;

  // Each rank's events in program order; a receive also waits for its
  // matched send.  Round-robin over ranks until every event is placed —
  // a recorded execution's message edges cannot form a cycle with
  // program order, so a round without progress means a corrupt trace.
  std::vector<bool> placed(n, false);
  std::vector<std::size_t> next(index.seq.size(), 0);
  dag.order.reserve(n);
  bool progressed = true;
  while (dag.order.size() < n) {
    TDBG_CHECK(progressed,
               "cyclic message dependency in trace (corrupt trace file?)");
    progressed = false;
    for (std::size_t r = 0; r < index.seq.size(); ++r) {
      const auto& seq = index.seq[r];
      for (auto& k = next[r]; k < seq.size(); ++k) {
        const std::size_t e = seq[k];
        const std::size_t send = dag.partner[e];
        if (send != kNone && !placed[send]) break;
        placed[e] = true;
        dag.order.push_back(e);
        progressed = true;
      }
    }
  }
  for (const auto& m : report.matches) dag.partner[m.send_index] = m.recv_index;
  return dag;
}

trace::EventColumns compute_event_columns(const trace::Trace& trace) {
  const std::size_t n = trace.size();
  trace::EventColumns cols;
  cols.kind.resize(n);
  cols.construct.resize(n);
  cols.marker.resize(n);
  cols.peer.resize(n);
  cols.t_start.resize(n);
  cols.t_end.resize(n);
  // Segments cover disjoint display ranges, so the tasks never write
  // the same slot.
  constexpr trace::ColumnSet kRead =
      trace::kColKind | trace::kColConstruct | trace::kColMarker |
      trace::kColPeer | trace::kColTStart | trace::kColTEnd;
  trace.parallel_for_each_segment("session.event_columns",
                                  [&](std::size_t seg) {
    trace.for_each_in_segment_cols(
        seg, kRead, [&](std::size_t i, const trace::Event& e) {
          cols.kind[i] = e.kind;
          cols.construct[i] = e.construct;
          cols.marker[i] = e.marker;
          cols.peer[i] = e.peer;
          cols.t_start[i] = e.t_start;
          cols.t_end[i] = e.t_end;
        });
  });
  return cols;
}

TrafficReport compute_traffic(const SweepData& sweep, int num_ranks) {
  TrafficReport out;
  out.ranks.resize(static_cast<std::size_t>(num_ranks));
  for (mpi::Rank r = 0; r < num_ranks; ++r) {
    out.ranks[static_cast<std::size_t>(r)].rank = r;
  }

  // One fold per channel: a matched pair's send and receive share the
  // channel, so every sum below stays inside one task.  Latency sums
  // are exact integers until the final mean division, and the merge
  // walks channels in key order, so the report is identical at any
  // thread count.
  struct ChannelFold {
    std::uint64_t messages = 0;
    std::uint64_t send_bytes = 0;
    std::uint64_t recv_bytes = 0;
    support::TimeNs min_latency = 0;
    support::TimeNs max_latency = 0;
    std::int64_t latency_sum = 0;
    std::vector<Irregularity> irregularities;  ///< missed and orphans
  };
  const auto flat = channel_list(sweep);
  std::vector<ChannelFold> folds(flat.size());
  exec::Executor::global().parallel_for(
      flat.size(), "session.traffic", [&](std::size_t c) {
        auto& f = folds[c];
        pair_channel(
            flat[c]->second,
            [&](const SweepSend& send, const SweepRecv& recv) {
              const auto latency = recv.t_end - send.t_start;
              if (f.messages++ == 0) f.min_latency = f.max_latency = latency;
              f.min_latency = std::min(f.min_latency, latency);
              f.max_latency = std::max(f.max_latency, latency);
              f.latency_sum += latency;
              f.send_bytes += send.bytes;
              f.recv_bytes += recv.bytes;
            },
            [&](const SweepRecv& e) {
              f.irregularities.push_back(Irregularity{
                  Irregularity::Kind::kOrphanRecv, e.rank, e.index,
                  "orphan receive on rank " + std::to_string(e.rank) +
                      " from " + std::to_string(e.peer) + " (no send record)"});
            },
            [&](const SweepSend& e) {
              f.irregularities.push_back(Irregularity{
                  Irregularity::Kind::kUnmatchedSend, e.rank, e.index,
                  "missed message: send " + std::to_string(e.rank) + "->" +
                      std::to_string(e.peer) + " tag " +
                      std::to_string(e.tag) + " was never received"});
            });
      });

  for (std::size_t c = 0; c < flat.size(); ++c) {
    auto& f = folds[c];
    std::move(f.irregularities.begin(), f.irregularities.end(),
              std::back_inserter(out.irregularities));
    if (f.messages == 0) continue;
    // Pairs exist only where both ends are real ranks: src is a send's
    // rank and dst a receive's.
    const auto [src, dst] = flat[c]->first;
    out.channels.push_back(ChannelStats{
        src, dst, f.messages, f.send_bytes, f.min_latency, f.max_latency,
        static_cast<double>(f.latency_sum) / static_cast<double>(f.messages)});
    auto& s = out.ranks[static_cast<std::size_t>(src)];
    s.sends += f.messages;
    s.bytes_out += f.send_bytes;
    auto& d = out.ranks[static_cast<std::size_t>(dst)];
    d.recvs += f.messages;
    d.bytes_in += f.recv_bytes;
  }

  // Irregularities: missed messages first, each kind in display order
  // (the kinds' declared order).
  std::sort(out.irregularities.begin(), out.irregularities.end(),
            [](const Irregularity& a, const Irregularity& b) {
              return std::tie(a.kind, a.event) < std::tie(b.kind, b.event);
            });

  // Receive-count outliers among the non-root ranks (the Fig. 6
  // observation: workers 1-6 received 2 messages, worker 7 only 1).
  // A rank is an outlier when its receive count differs from the
  // majority count of ranks with the same role; as a simple robust
  // proxy, compare against the modal receive count over ranks > 0.
  if (num_ranks > 2) {
    std::map<std::uint64_t, int> histogram;
    for (mpi::Rank r = 1; r < num_ranks; ++r) {
      ++histogram[out.ranks[static_cast<std::size_t>(r)].recvs];
    }
    std::uint64_t modal = 0;
    int best = -1;
    for (const auto& [count, freq] : histogram) {
      if (freq > best) {
        best = freq;
        modal = count;
      }
    }
    if (histogram.size() > 1) {
      for (mpi::Rank r = 1; r < num_ranks; ++r) {
        const auto& rt = out.ranks[static_cast<std::size_t>(r)];
        if (rt.recvs != modal) {
          out.irregularities.push_back(Irregularity{
              Irregularity::Kind::kRecvCountOutlier, r, 0,
              "rank " + std::to_string(r) + " received " +
                  std::to_string(rt.recvs) + " messages; its peers received " +
                  std::to_string(modal)});
        }
      }
    }
  }
  return out;
}

MessagePools compute_message_pools(const SweepData& sweep) {
  MessagePools pools;
  std::size_t ns = 0;
  std::size_t nw = 0;
  for (const auto& [key, ch] : sweep.channels) {
    ns += ch.sends.size();
    for (const auto& r : ch.recvs) nw += r.wildcard ? 1 : 0;
  }
  pools.sends.reserve(ns);
  pools.wildcard_recvs.reserve(nw);
  for (const auto& [key, ch] : sweep.channels) {
    append_all(pools.sends, ch.sends);
    for (const auto& r : ch.recvs) {
      if (r.wildcard) pools.wildcard_recvs.push_back(r);
    }
  }
  // Display order — the order the pre-refactor gather sweep produced.
  const auto by_index = [](const auto& a, const auto& b) {
    return a.index < b.index;
  };
  std::sort(pools.sends.begin(), pools.sends.end(), by_index);
  std::sort(pools.wildcard_recvs.begin(), pools.wildcard_recvs.end(),
            by_index);
  return pools;
}

graph::CommGraph compute_comm_graph(const SweepData& sweep,
                                    const trace::MatchReport& report,
                                    const trace::RankIndex& index) {
  // Node ids: match k is node k, then the unmatched sends, then the
  // orphan receives, each in display order.  `node_of` maps every
  // event to its node, kNone for events that are not message
  // endpoints.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t nmatches = report.matches.size();
  const std::size_t nnodes = nmatches + report.unmatched_sends.size() +
                             report.unmatched_recvs.size();
  TDBG_CHECK(nnodes < kNone, "too many messages for the communication graph");
  std::vector<std::uint32_t> node_of(sweep.num_events, kNone);
  for (std::size_t k = 0; k < nmatches; ++k) {
    node_of[report.matches[k].send_index] = static_cast<std::uint32_t>(k);
    node_of[report.matches[k].recv_index] = static_cast<std::uint32_t>(k);
  }
  auto next = static_cast<std::uint32_t>(nmatches);
  for (const std::size_t i : report.unmatched_sends) node_of[i] = next++;
  for (const std::size_t i : report.unmatched_recvs) node_of[i] = next++;

  // Nodes from the sweep records, one task per channel: a pair's send
  // and receive share a channel, so the tasks write disjoint nodes.
  const auto flat = channel_list(sweep);
  std::vector<graph::MessageNode> nodes(nnodes);
  exec::Executor::global().parallel_for(
      flat.size(), "session.comm.nodes", [&](std::size_t c) {
        pair_channel(
            flat[c]->second,
            [&](const SweepSend& send, const SweepRecv& recv) {
              nodes[node_of[recv.index]] = graph::MessageNode{
                  send.index, recv.index, send.rank, send.peer, send.tag};
            },
            [&](const SweepRecv& recv) {
              nodes[node_of[recv.index]] = graph::MessageNode{
                  graph::kNoEvent, recv.index, recv.peer, recv.rank, recv.tag};
            },
            [&](const SweepSend& send) {
              nodes[node_of[send.index]] = graph::MessageNode{
                  send.index, graph::kNoEvent, send.rank, send.peer, send.tag};
            });
      });

  // Arcs: per rank, consecutive message endpoints in program order
  // connect their messages, each packed as (from, to) in one word.  One
  // sort and unique over every rank's words gives the arcs in (from, to)
  // order, whatever the thread count.
  const std::size_t nranks = index.seq.size();
  std::vector<std::vector<std::uint64_t>> rank_arcs(nranks);
  exec::Executor::global().parallel_for(
      nranks, "session.comm.arcs", [&](std::size_t ri) {
        std::uint32_t prev = kNone;
        for (const std::size_t i : index.seq[ri]) {
          const std::uint32_t node = node_of[i];
          if (node == kNone) continue;
          if (prev != kNone && prev != node) {
            rank_arcs[ri].push_back(std::uint64_t{prev} << 32 | node);
          }
          prev = node;
        }
      });
  std::vector<std::uint64_t> packed;
  for (const auto& arcs : rank_arcs) append_all(packed, arcs);
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  std::vector<std::pair<std::size_t, std::size_t>> arcs;
  arcs.reserve(packed.size());
  for (const auto a : packed) arcs.emplace_back(a >> 32, a & 0xffffffffu);
  return graph::CommGraph(std::move(nodes), std::move(arcs));
}

}  // namespace tdbg::analysis
