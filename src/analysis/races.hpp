#pragma once

#include <vector>

#include "analysis/pass.hpp"
#include "causality/causal_order.hpp"
#include "trace/trace.hpp"

/// \file races.hpp
/// Message-race detection on a recorded history (paper §4.4; the
/// approach follows Netzer et al. [15], whose *frontier race*
/// formulation the paper cites for its consistent-frontier machinery).
///
/// A wildcard (`ANY_SOURCE`) receive R that matched message m races
/// with another message m' to the same rank with a compatible tag when
/// m' *could have* matched R instead in some legal execution:
///
///  * send(m') does not causally depend on R's completion (otherwise
///    m' cannot exist until R is done), and
///  * m' was not already consumed by a receive that happens before R
///    (otherwise m' is gone in every legal execution reaching R), and
///  * m' is not an earlier message on the same channel as m (the
///    non-overtaking rule fixes that order).
///
/// A reported race means the recorded match order is not the only
/// possible one — exactly the runs where uncontrolled re-execution
/// may diverge and where the §4.2 replay control earns its keep.

namespace tdbg::analysis {

/// One racy wildcard receive.
struct MessageRace {
  std::size_t recv_index = 0;            ///< the wildcard receive (trace index)
  std::size_t matched_send = 0;          ///< the send it actually matched
  std::vector<std::size_t> candidates;   ///< sends that could have matched
};

/// Race report for a whole trace.
struct RaceReport {
  std::vector<MessageRace> races;

  [[nodiscard]] bool racy() const { return !races.empty(); }
};

/// Finds races among the trace's wildcard receives.  `pools` is the
/// fused sweep's candidate extract; `dag` and `order` must be built
/// over the same trace.  All come from the owning `analysis::Session`
/// (`Session::races()` is the public entry point).
RaceReport find_races(const MessagePools& pools, const trace::MessageDag& dag,
                      const causality::CausalOrder& order);

}  // namespace tdbg::analysis
