#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

/// \file traffic.hpp
/// Message-traffic statistics and irregularity report (paper §6:
/// the graph abstraction "provides a good basis for execution analysis
/// for locating circular dependencies of messages and locating the
/// missed messages and irregularities in message traffic").
///
/// The irregularity detector encodes the reasoning the paper walks
/// through for Figure 6: "processes 1-6 each receive 2 messages and
/// process 7 only receives 1" — a rank whose receive count deviates
/// from its peer group is flagged.

namespace tdbg::analysis {

/// Per-channel statistics.
struct ChannelStats {
  mpi::Rank src = 0;
  mpi::Rank dst = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  support::TimeNs min_latency = 0;  ///< recv completion - send start
  support::TimeNs max_latency = 0;
  double mean_latency = 0.0;
};

/// Per-rank totals.
struct RankTraffic {
  mpi::Rank rank = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
};

/// A detected irregularity.
struct Irregularity {
  enum class Kind : std::uint8_t {
    kUnmatchedSend,   ///< the "missed message" of Fig. 6
    kOrphanRecv,      ///< receive with no send record
    kRecvCountOutlier ///< rank receives unlike its peers (Fig. 6 reasoning)
  };
  Kind kind = Kind::kUnmatchedSend;
  mpi::Rank rank = -1;          ///< rank concerned
  std::size_t event = 0;        ///< trace index when applicable
  std::string description;
};

/// Full traffic report.
struct TrafficReport {
  std::vector<ChannelStats> channels;     ///< active channels only
  std::vector<RankTraffic> ranks;         ///< all ranks
  std::vector<Irregularity> irregularities;

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string to_string() const;
};

// The report is produced by `analysis::compute_traffic` (pass.hpp)
// from the fused sweep's records; `analysis::Session::traffic()` is
// the public entry point.

}  // namespace tdbg::analysis
