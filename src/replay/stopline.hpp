#pragma once

#include <optional>
#include <vector>

#include "causality/causal_order.hpp"
#include "trace/trace.hpp"

/// \file stopline.hpp
/// Stoplines — breakpoints in the timeline (paper §3.1, §4.1).
///
/// A stopline compiles to one execution-marker threshold per rank: on
/// replay, each rank stops right before generating that marker.  Three
/// placements are supported:
///
///  * **vertical** — the user clicks a time `t` in the time-space
///    diagram; each rank stops after its last event completed by `t`.
///    Consistency follows from message causality in the trace (no
///    receive completes before its send), with an explicit
///    `restrict_to_consistent` pass guarding the one racy edge case
///    (synchronous-send completion timestamps).
///
///  * **past frontier** — each rank stops "immediately after the point
///    where it could last affect the selected state" (§4.1).
///
///  * **future frontier** — each rank stops "immediately before the
///    point where it could first be affected by the selected state".

namespace tdbg::replay {

/// Compiled stopline: per-rank marker thresholds.  A rank with no
/// threshold runs to completion.
struct Stopline {
  std::vector<std::optional<std::uint64_t>> thresholds;

  friend bool operator==(const Stopline&, const Stopline&) = default;
};

/// Vertical stopline at display time `t` (consistent by construction;
/// see file comment).  `report`, `index` and `columns` come from the
/// trace's `analysis::Session`.
Stopline stopline_at_time(const trace::Trace& trace,
                          const trace::MatchReport& report,
                          const trace::RankIndex& index,
                          const trace::EventColumns& columns,
                          support::TimeNs t);

/// Stopline along the past frontier of event `e`.
Stopline stopline_past_frontier(const causality::CausalOrder& order,
                                std::size_t e);

/// Stopline along the future frontier of event `e`.
Stopline stopline_future_frontier(const causality::CausalOrder& order,
                                  std::size_t e);

/// Stopline from an explicit cut.
Stopline stopline_from_cut(const trace::Trace& trace,
                           const causality::Cut& cut);

}  // namespace tdbg::replay
