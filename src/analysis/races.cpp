#include "analysis/races.hpp"

#include <algorithm>
#include <vector>

#include "support/executor.hpp"

namespace tdbg::analysis {

namespace {

/// Wildcard receives examined per pairing task.  Each receive's
/// candidate scan is quadratic in the send pool, so chunks are kept
/// small; the size is fixed (never thread-count derived) so the
/// chunk-ordered concatenation below is deterministic.
constexpr std::size_t kRecvChunk = 16;

}  // namespace

RaceReport find_races(const MessagePools& pools,
                      const trace::MessageDag& dag,
                      const causality::CausalOrder& order) {
  constexpr std::size_t kNone = trace::MessageDag::kNone;
  RaceReport report;

  // The candidate pools arrive in display order from the fused sweep —
  // the order the pre-session per-segment gather produced.
  const auto& sends = pools.sends;
  const auto& wildcard_recvs = pools.wildcard_recvs;

  // Pairing: chunks of receives in parallel over read-only state; the
  // per-chunk race lists concatenate in chunk order, which is the
  // serial algorithm's receive display order.
  const std::size_t nrecvs = wildcard_recvs.size();
  const std::size_t nchunks = (nrecvs + kRecvChunk - 1) / kRecvChunk;
  std::vector<std::vector<MessageRace>> per_chunk(nchunks);
  exec::Executor::global().parallel_for(
      nchunks, "analysis.races.pair", [&](std::size_t c) {
        const std::size_t lo = c * kRecvChunk;
        const std::size_t hi = std::min(lo + kRecvChunk, nrecvs);
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& recv = wildcard_recvs[k];
          const std::size_t r = recv.index;
          const std::size_t matched = dag.partner[r];
          if (matched == kNone) continue;

          MessageRace race;
          race.recv_index = r;
          race.matched_send = matched;

          for (const auto& send : sends) {
            const std::size_t s = send.index;
            if (s == matched) continue;
            if (send.peer != recv.rank) continue;  // different destination
            // Tag compatibility with the posted receive.  The posted
            // tag is not stored separately; the matched message's tag
            // equals it unless the receive was also ANY_TAG.
            // Requiring equal tags is the conservative
            // (no-false-positive) choice.
            if (send.tag != recv.tag) continue;
            // m' cannot race if its send causally requires R to be
            // done.
            if (order.happens_before(r, s)) continue;
            // m' cannot race if it was consumed strictly before R
            // could see it.
            const std::size_t consumed = dag.partner[s];
            if (consumed != kNone && order.happens_before(consumed, r)) {
              continue;
            }
            // Non-overtaking: an earlier same-channel message than m
            // from the same source is ordered, not racing — but only
            // when it precedes m on the same (source, dest) channel
            // AND was consumed by the same rank earlier; a *later*
            // same-source message can still race.  Distinct sources
            // always race.  (m was matched on its receive's channel,
            // so m's source is `recv.peer`.)
            if (send.rank == recv.peer && order.happens_before(s, matched)) {
              continue;
            }
            race.candidates.push_back(s);
          }
          if (!race.candidates.empty()) {
            per_chunk[c].push_back(std::move(race));
          }
        }
      });
  for (auto& chunk : per_chunk) {
    for (auto& race : chunk) report.races.push_back(std::move(race));
  }
  return report;
}

}  // namespace tdbg::analysis
