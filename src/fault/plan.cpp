#include "fault/plan.hpp"

#include <sstream>

#include "support/error.hpp"

namespace tdbg::fault {

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelay: return "delay";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSlowRank: return "slow_rank";
    case FaultKind::kWidenMatch: return "widen";
  }
  return "?";
}

std::string FaultRule::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (kind == FaultKind::kDelay && param == 0) os << "(hold)";
  os << " rate=" << rate;
  if (rank != kAnyRank) os << " rank=" << rank;
  if (tag != mpi::kAnyTag) os << " tag=" << tag;
  if (param != 0) os << " param=" << param;
  if (window_lo != 0 || window_hi != ~std::uint64_t{0}) {
    os << " window=[" << window_lo << ",";
    if (window_hi == ~std::uint64_t{0}) {
      os << "inf)";
    } else {
      os << window_hi << "]";
    }
  }
  return os.str();
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " rules=" << rules.size();
  for (const auto& rule : rules) os << "\n  " << rule.describe();
  return os.str();
}

FaultPlan FaultPlan::named(std::string_view name, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (name == "none") {
    return plan;
  }
  if (name == "delay_storm") {
    FaultRule r;
    r.kind = FaultKind::kDelay;
    r.rate = 0.25;
    r.param = 20'000;  // 20us
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "deadlock_ring") {
    // Rank 0 holds every send: in a ring each rank blocks receiving
    // from its predecessor, closing a genuine wait-for cycle the
    // runtime + deadlock explainer must name.
    FaultRule r;
    r.kind = FaultKind::kDelay;
    r.rate = 1.0;
    r.rank = 0;
    r.param = 0;  // hold forever
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "crash") {
    FaultRule r;
    r.kind = FaultKind::kCrash;
    r.rank = 1;
    r.param = 4;  // throw entering the 4th profiled call
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "corrupt") {
    FaultRule r;
    r.kind = FaultKind::kCorrupt;
    r.rate = 0.5;
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "reorder") {
    FaultRule r;
    r.kind = FaultKind::kReorder;
    r.rate = 0.4;
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "widen_races") {
    FaultRule r;
    r.kind = FaultKind::kWidenMatch;
    r.rate = 1.0;
    plan.rules.push_back(r);
    return plan;
  }
  if (name == "slow_rank") {
    FaultRule r;
    r.kind = FaultKind::kSlowRank;
    r.rank = 0;
    r.param = 50'000;  // 50us per call
    plan.rules.push_back(r);
    return plan;
  }
  std::string known;
  for (const auto n : names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw UsageError("unknown fault plan '" + std::string(name) +
                            "' (known: " + known + ")");
}

std::vector<std::string_view> FaultPlan::names() {
  return {"none",    "delay_storm", "deadlock_ring", "crash",
          "corrupt", "reorder",     "widen_races",   "slow_rank"};
}

}  // namespace tdbg::fault
