#include "analysis/pass.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "support/error.hpp"
#include "support/executor.hpp"

namespace tdbg::analysis {

namespace {

/// Matches aggregated per traffic task.  A fixed chunk size (never a
/// function of thread count) plus a chunk-ordered merge keeps the
/// report bit-identical at any parallelism; latency sums stay in exact
/// integer arithmetic until the final mean division.
constexpr std::size_t kMatchChunk = 1u << 14;

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
              SweepSend{i, e.marker, e.t_start, e.t_end, e.rank, e.peer, e.tag,
                        e.bytes});
        } else if (e.kind == trace::EventKind::kRecv) {
          channel(e.peer, e.rank).recvs.push_back(
              SweepRecv{i, e.channel_seq, e.t_start, e.t_end, e.rank, e.peer,
                        e.tag, e.bytes, e.wildcard});
        }
      });
}

void fold_partial(SweepData& acc, SweepPartial&& part) {
  const auto append = [&acc](SweepData::ChannelKey key, SweepChannel& ch) {
    if (ch.sends.empty() && ch.recvs.empty()) return;
    auto& dst = acc.channels[key];
    dst.sends.insert(dst.sends.end(), ch.sends.begin(), ch.sends.end());
    dst.recvs.insert(dst.recvs.end(), ch.recvs.begin(), ch.recvs.end());
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
    acc.rank_order[r].insert(acc.rank_order[r].end(),
                             part.rank_order[r].begin(),
                             part.rank_order[r].end());
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
  // reproduces the store's stable by-marker ordering exactly.  A
  // rank's markers are monotone in display order for every trace the
  // runtime writes (one thread per rank, timestamps taken in program
  // order), so a list collected in segment order is nearly always
  // sorted already — check before paying for the sort that covers
  // reordered hand-built files.  Rank lists are independent, so the
  // tasks never conflict.
  exec::Executor::global().parallel_for(
      sweep.rank_order.size(), "session.rank_index", [&](std::size_t r) {
        auto& order = sweep.rank_order[r];
        if (!std::is_sorted(order.begin(), order.end())) {
          std::sort(order.begin(), order.end());
        }
      });
  sweep.num_events = trace.size();
  return sweep;
}

trace::MatchReport compute_match_report(const SweepData& sweep) {
  // Pairing, one task per channel.  Sends take FIFO sequence numbers
  // in the sender's program order — (marker, t_start), all sends of a
  // channel share one rank; receives carry their sequence numbers
  // explicitly.  Channels are independent, so each task works on its
  // own slot and the merge below just walks slots in key order.
  std::vector<const std::pair<const SweepData::ChannelKey, SweepChannel>*>
      flat;
  flat.reserve(sweep.channels.size());
  for (const auto& entry : sweep.channels) flat.push_back(&entry);

  struct ChannelResult {
    std::vector<trace::MessageMatch> matches;  ///< recv display order
    std::vector<std::size_t> unmatched_sends;
    std::vector<std::size_t> unmatched_recvs;
  };
  std::vector<ChannelResult> per_channel(flat.size());
  exec::Executor::global().parallel_for(
      flat.size(), "session.match.pair", [&](std::size_t c) {
        auto sends = flat[c]->second.sends;  // copy: sort locally
        const auto& recvs = flat[c]->second.recvs;
        auto& out = per_channel[c];
        std::stable_sort(sends.begin(), sends.end(),
                         [](const SweepSend& a, const SweepSend& b) {
                           if (a.marker != b.marker) return a.marker < b.marker;
                           return a.t_start < b.t_start;
                         });
        std::vector<bool> used(sends.size(), false);
        for (const SweepRecv& rv : recvs) {
          if (rv.seq >= sends.size() || used[rv.seq]) {
            out.unmatched_recvs.push_back(rv.index);
            continue;
          }
          used[rv.seq] = true;
          out.matches.push_back(
              trace::MessageMatch{sends[rv.seq].index, rv.index});
        }
        for (std::size_t s = 0; s < sends.size(); ++s) {
          if (!used[s]) out.unmatched_sends.push_back(sends[s].index);
        }
      });

  // Canonicalize: matches and orphan receives in global recv display
  // order, unmatched sends sorted by index — exactly the serial
  // algorithm's output.
  trace::MatchReport report;
  for (const auto& cr : per_channel) {
    report.matches.insert(report.matches.end(), cr.matches.begin(),
                          cr.matches.end());
    report.unmatched_sends.insert(report.unmatched_sends.end(),
                                  cr.unmatched_sends.begin(),
                                  cr.unmatched_sends.end());
    report.unmatched_recvs.insert(report.unmatched_recvs.end(),
                                  cr.unmatched_recvs.begin(),
                                  cr.unmatched_recvs.end());
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

namespace {

struct ChannelAgg {
  mpi::Rank src = 0;
  mpi::Rank dst = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  support::TimeNs min_latency = 0;
  support::TimeNs max_latency = 0;
  std::int64_t latency_sum = 0;
};

struct RankAgg {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
};

struct TrafficPartial {
  std::map<std::pair<mpi::Rank, mpi::Rank>, ChannelAgg> channels;
  std::vector<RankAgg> ranks;
};

/// Display-index lookup tables over the sweep's records — the fused
/// pipeline's replacement for the per-match `trace.event()` calls.
struct RecordsByIndex {
  std::unordered_map<std::size_t, const SweepSend*> sends;
  std::unordered_map<std::size_t, const SweepRecv*> recvs;

  explicit RecordsByIndex(const SweepData& sweep) {
    std::size_t ns = 0;
    std::size_t nr = 0;
    for (const auto& [key, ch] : sweep.channels) {
      ns += ch.sends.size();
      nr += ch.recvs.size();
    }
    sends.reserve(ns);
    recvs.reserve(nr);
    for (const auto& [key, ch] : sweep.channels) {
      for (const auto& s : ch.sends) sends.emplace(s.index, &s);
      for (const auto& r : ch.recvs) recvs.emplace(r.index, &r);
    }
  }
};

}  // namespace

TrafficReport compute_traffic(const SweepData& sweep,
                              const trace::MatchReport& report,
                              int num_ranks) {
  TrafficReport out;
  const auto nranks = static_cast<std::size_t>(num_ranks);
  out.ranks.resize(nranks);
  for (mpi::Rank r = 0; r < num_ranks; ++r) {
    out.ranks[static_cast<std::size_t>(r)].rank = r;
  }

  const RecordsByIndex recs(sweep);

  const std::size_t nmatches = report.matches.size();
  const std::size_t nchunks = (nmatches + kMatchChunk - 1) / kMatchChunk;
  std::vector<TrafficPartial> partials(nchunks);
  exec::Executor::global().parallel_for(
      nchunks, "session.traffic", [&](std::size_t c) {
        auto& part = partials[c];
        part.ranks.resize(nranks);
        const std::size_t lo = c * kMatchChunk;
        const std::size_t hi = std::min(lo + kMatchChunk, nmatches);
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& m = report.matches[k];
          const SweepSend& send = *recs.sends.at(m.send_index);
          const SweepRecv& recv = *recs.recvs.at(m.recv_index);
          auto& ch = part.channels[{send.rank, send.peer}];
          ch.src = send.rank;
          ch.dst = send.peer;
          const auto latency = recv.t_end - send.t_start;
          if (ch.messages == 0) {
            ch.min_latency = ch.max_latency = latency;
          } else {
            ch.min_latency = std::min(ch.min_latency, latency);
            ch.max_latency = std::max(ch.max_latency, latency);
          }
          ch.latency_sum += latency;
          ++ch.messages;
          ch.bytes += send.bytes;

          auto& s = part.ranks[static_cast<std::size_t>(send.rank)];
          ++s.sends;
          s.bytes_out += send.bytes;
          auto& d = part.ranks[static_cast<std::size_t>(recv.rank)];
          ++d.recvs;
          d.bytes_in += recv.bytes;
        }
      });

  // Merge in chunk order (all operations commutative-exact; the order
  // only matters for picking first-writer src/dst, which every chunk
  // sets identically).
  std::map<std::pair<mpi::Rank, mpi::Rank>, ChannelAgg> channels;
  for (const auto& part : partials) {
    for (const auto& [key, agg] : part.channels) {
      auto& ch = channels[key];
      if (ch.messages == 0) {
        ch = agg;
        continue;
      }
      ch.min_latency = std::min(ch.min_latency, agg.min_latency);
      ch.max_latency = std::max(ch.max_latency, agg.max_latency);
      ch.latency_sum += agg.latency_sum;
      ch.messages += agg.messages;
      ch.bytes += agg.bytes;
    }
    for (std::size_t r = 0; r < part.ranks.size(); ++r) {
      auto& dst = out.ranks[r];
      dst.sends += part.ranks[r].sends;
      dst.recvs += part.ranks[r].recvs;
      dst.bytes_out += part.ranks[r].bytes_out;
      dst.bytes_in += part.ranks[r].bytes_in;
    }
  }
  for (const auto& [key, agg] : channels) {
    ChannelStats ch;
    ch.src = agg.src;
    ch.dst = agg.dst;
    ch.messages = agg.messages;
    ch.bytes = agg.bytes;
    ch.min_latency = agg.min_latency;
    ch.max_latency = agg.max_latency;
    ch.mean_latency = agg.messages > 0 ? static_cast<double>(agg.latency_sum) /
                                             static_cast<double>(agg.messages)
                                       : 0.0;
    out.channels.push_back(ch);
  }

  // Irregularities: missed messages first.
  for (std::size_t i : report.unmatched_sends) {
    const SweepSend& e = *recs.sends.at(i);
    std::ostringstream os;
    os << "missed message: send " << e.rank << "->" << e.peer << " tag "
       << e.tag << " was never received";
    out.irregularities.push_back(Irregularity{
        Irregularity::Kind::kUnmatchedSend, e.rank, i, os.str()});
  }
  for (std::size_t i : report.unmatched_recvs) {
    const SweepRecv& e = *recs.recvs.at(i);
    std::ostringstream os;
    os << "orphan receive on rank " << e.rank << " from " << e.peer
       << " (no send record)";
    out.irregularities.push_back(
        Irregularity{Irregularity::Kind::kOrphanRecv, e.rank, i, os.str()});
  }

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
          std::ostringstream os;
          os << "rank " << r << " received " << rt.recvs
             << " messages; its peers received " << modal;
          out.irregularities.push_back(Irregularity{
              Irregularity::Kind::kRecvCountOutlier, r, 0, os.str()});
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
    pools.sends.insert(pools.sends.end(), ch.sends.begin(), ch.sends.end());
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
  const RecordsByIndex recs(sweep);

  // Node per matched pair, then per unmatched half.  Matched node i is
  // simply match i, so the slots fill in parallel chunks; the chunk
  // size is fixed so the layout never depends on thread count.
  const std::size_t nmatches = report.matches.size();
  std::vector<graph::MessageNode> nodes(nmatches);
  const std::size_t chunk = trace::kInMemorySegmentEvents;
  const std::size_t nchunks = (nmatches + chunk - 1) / chunk;
  exec::Executor::global().parallel_for(
      nchunks, "session.comm.nodes", [&](std::size_t c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(lo + chunk, nmatches);
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& m = report.matches[k];
          const SweepSend& send = *recs.sends.at(m.send_index);
          graph::MessageNode node;
          node.send_event = m.send_index;
          node.recv_event = m.recv_index;
          node.src = send.rank;
          node.dst = send.peer;
          node.tag = send.tag;
          nodes[k] = node;
        }
      });
  std::unordered_map<std::size_t, std::size_t> node_of_event;
  node_of_event.reserve(2 * nmatches + report.unmatched_sends.size() +
                        report.unmatched_recvs.size());
  for (std::size_t k = 0; k < nmatches; ++k) {
    node_of_event[report.matches[k].send_index] = k;
    node_of_event[report.matches[k].recv_index] = k;
  }
  for (std::size_t i : report.unmatched_sends) {
    const SweepSend& send = *recs.sends.at(i);
    node_of_event[i] = nodes.size();
    nodes.push_back(graph::MessageNode{i, graph::kNoEvent, send.rank,
                                       send.peer, send.tag});
  }
  for (std::size_t i : report.unmatched_recvs) {
    const SweepRecv& recv = *recs.recvs.at(i);
    node_of_event[i] = nodes.size();
    nodes.push_back(graph::MessageNode{graph::kNoEvent, i, recv.peer,
                                       recv.rank, recv.tag});
  }

  // Arcs: per rank, consecutive message endpoints in program order
  // connect their messages.  The shared rank index supplies program
  // order; non-message events simply miss the node lookup.  Rank
  // sweeps are independent and the set union below is
  // order-insensitive, so the final sorted arc list is deterministic.
  const std::size_t nranks = index.seq.size();
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rank_arcs(
      nranks);
  exec::Executor::global().parallel_for(
      nranks, "session.comm.arcs", [&](std::size_t ri) {
        std::size_t prev_node = graph::kNoEvent;
        for (const std::size_t i : index.seq[ri]) {
          const auto it = node_of_event.find(i);
          if (it == node_of_event.end()) continue;
          if (prev_node != graph::kNoEvent && prev_node != it->second) {
            rank_arcs[ri].emplace_back(prev_node, it->second);
          }
          prev_node = it->second;
        }
      });
  std::set<std::pair<std::size_t, std::size_t>> arc_set;
  for (const auto& arcs : rank_arcs) {
    arc_set.insert(arcs.begin(), arcs.end());
  }
  return graph::CommGraph(
      std::move(nodes),
      std::vector<std::pair<std::size_t, std::size_t>>(arc_set.begin(),
                                                       arc_set.end()));
}

}  // namespace tdbg::analysis
