#pragma once

#include <vector>

#include "causality/causal_order.hpp"
#include "trace/trace.hpp"

/// \file intertwined.hpp
/// Intertwined-message detection (paper §4.4: "At this point,
/// information about intertwined messages [13, p.31] is also available
/// to the user").
///
/// Two matched messages *intertwine* when their send order and receive
/// order disagree: send(m1) happens before send(m2), yet recv(m2)
/// happens before recv(m1).  The MPI non-overtaking rule makes this
/// impossible on a single (source, dest) channel with one matching
/// receive pattern, so an intertwining always involves different
/// channels or tag selection — it is where the visual intuition "the
/// earlier message arrives earlier" breaks, and a common source of
/// confusion the debugger can point out.

namespace tdbg::analysis {

/// One intertwined pair (indices into the trace's events).
struct IntertwinedPair {
  std::size_t first_send = 0;   ///< m1's send (causally earlier send)
  std::size_t first_recv = 0;   ///< m1's receive (causally later receive)
  std::size_t second_send = 0;  ///< m2's send
  std::size_t second_recv = 0;  ///< m2's receive
};

/// Finds all intertwined pairs among `report`'s matched messages.
/// Quadratic in the number of messages; fine for debugging-session-
/// sized traces.
std::vector<IntertwinedPair> find_intertwined(
    const trace::MatchReport& report, const causality::CausalOrder& order);

}  // namespace tdbg::analysis
