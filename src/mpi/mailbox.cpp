#include "mpi/mailbox.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "telemetry/span.hpp"

namespace tdbg::mpi {

namespace {

bool tag_matches(Tag posted, Tag actual) {
  return posted == kAnyTag || posted == actual;
}

/// Mailbox-family instruments, interned once per process.  Per-rank
/// slots keep concurrent mailboxes off each other's cache lines.
struct MailboxMetrics {
  obs::Counter& delivered =
      obs::MetricsRegistry::global().counter("runtime.msgs_delivered");
  obs::Gauge& queue_hwm =
      obs::MetricsRegistry::global().gauge("runtime.mailbox_queue_hwm");
  obs::Histogram& match_latency = obs::MetricsRegistry::global().histogram(
      "runtime.match_latency_ns", obs::Unit::kNanoseconds);
};

MailboxMetrics& mailbox_metrics() {
  static MailboxMetrics metrics;
  return metrics;
}

/// Bounded spin before parking: a blocked receive first watches the
/// dirty mask for a few microseconds, because rendezvous with an
/// imminent sender is far cheaper caught spinning than through a
/// futex sleep/wake.  Bounded, so a genuinely idle rank still parks
/// (and registers as idle, which is what deadlock detection reads).
///
/// Two hard-won caveats (see DESIGN.md "Hot paths"):
///  * no PAUSE/YIELD instruction in the loop — under virtualization
///    those can trap (pause-loop exiting) and cost microseconds each;
///    a relaxed load of a resident cache line is ~1 ns and the loop
///    is strictly bounded anyway;
///  * spinning is disabled entirely on single-CPU hosts, where the
///    sender cannot make progress until the receiver yields the core —
///    there, parking immediately IS the fast path.
int spin_iterations() {
  static const int n =
      std::thread::hardware_concurrency() > 1 ? 4000 : 0;
  return n;
}

/// Balances the park-side sleeper count even when matching throws
/// (replay divergence unwinds through the parked receive).
struct SleeperGuard {
  std::atomic<int>& sleepers;
  explicit SleeperGuard(std::atomic<int>& s) : sleepers(s) {
    sleepers.fetch_add(1, std::memory_order_seq_cst);
  }
  ~SleeperGuard() { sleepers.fetch_sub(1, std::memory_order_relaxed); }
};

}  // namespace

Mailbox::Mailbox(Rank owner, int world_size, MailboxShared* shared)
    : owner_(owner), shared_(shared) {
  TDBG_CHECK(shared != nullptr, "mailbox needs shared world state");
  channels_.reserve(static_cast<std::size_t>(world_size));
  for (int s = 0; s < world_size; ++s) {
    channels_.push_back(std::make_unique<Channel>());
  }
}

void Mailbox::deliver(Message msg) {
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = mailbox_metrics();
    metrics.delivered.add(owner_);
    if (metrics.match_latency.hot()) msg.delivered_ns = support::now_ns();
  }
  auto& ch = *channels_[static_cast<std::size_t>(msg.source)];
  msg.seq = ch.next_seq++;  // producer-only field: one sender per channel
  const bool user = msg.tag <= kMaxUserTag;
  const std::size_t total =
      queued_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (user) queued_user_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kMetricsEnabled) {
    mailbox_metrics().queue_hwm.record_max(owner_, total);
  }

  const auto bit = bit_of(msg.source);
  // Fast path: SPSC ring push.  Spill to the overflow deque when the
  // ring is full or older spilled messages exist (the latter keeps the
  // channel FIFO: ring entries must always predate overflow entries).
  const std::uint64_t t = ch.tail.load(std::memory_order_relaxed);
  if (ch.overflow_count.load(std::memory_order_relaxed) == 0 &&
      t - ch.head.load(std::memory_order_acquire) < kRingCapacity) {
    ch.ring[t % kRingCapacity] = std::move(msg);
    ch.tail.store(t + 1, std::memory_order_release);
  } else {
    std::lock_guard lk(ch.overflow_mu);
    ch.overflow.push_back(std::move(msg));
    ch.overflow_count.fetch_add(1, std::memory_order_release);
  }

  // Wakeup protocol (Dekker-style; see class comment): the seq_cst
  // RMW on dirty_ orders the push before the sleeper check, and the
  // receiver's seq_cst sleeper increment orders its publication before
  // its re-drain.  Whichever ordered first is seen by the other side.
  dirty_.fetch_or(bit, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::unique_lock lk(park_mu_);
    // Not parked: the receiver's next re-drain (under park_mu_) sees
    // the push.  Parked: clear its registry entry before the wake-up,
    // so it never counts as idle with a message on its way.
    if (!parked_) return;
    parked_ = false;
    shared_->registry.wake(owner_, WaitKind::kRecv);
    lk.unlock();
    cv_.notify_all();
  }
}

void Mailbox::drain_channel(Channel& ch) {
  const std::size_t before = ch.pending.size();
  const auto drain_ring = [&] {
    std::uint64_t h = ch.head.load(std::memory_order_relaxed);
    const std::uint64_t t = ch.tail.load(std::memory_order_acquire);
    for (; h != t; ++h) {
      ch.pending.push_back(std::move(ch.ring[h % kRingCapacity]));
      ch.pending.back().arrival = arrivals_++;
      ch.head.store(h + 1, std::memory_order_release);
    }
  };
  // Ring first: its entries always predate overflow entries.
  drain_ring();
  if (ch.overflow_count.load(std::memory_order_acquire) > 0) {
    std::lock_guard lk(ch.overflow_mu);
    // The producer may have refilled the ring past the tail read above
    // before it spilled; those entries predate the overflow too.  While
    // the overflow is non-empty the producer never writes the ring, so
    // this second pass reaches every ring entry older than the spill.
    drain_ring();
    while (!ch.overflow.empty()) {
      Message msg = std::move(ch.overflow.front());
      ch.overflow.pop_front();
      msg.arrival = arrivals_++;
      ch.pending.push_back(std::move(msg));
    }
    ch.overflow_count.store(0, std::memory_order_release);
  }
  if (ch.pending.size() == before) return;
  // New messages can only create a first match where none existed.
  if (ch.cache.valid && ch.cache.index == kNoMatch) {
    for (std::size_t i = before; i < ch.pending.size(); ++i) {
      if (tag_matches(ch.cache.tag, ch.pending[i].tag)) {
        ch.cache.index = i;
        break;
      }
    }
  }
}

void Mailbox::drain_transport() {
  std::uint64_t dirty = dirty_.exchange(0, std::memory_order_seq_cst);
  if (dirty == 0) return;
  const std::size_t n = channels_.size();
  if (n <= 64) {
    while (dirty != 0) {
      const auto s = static_cast<std::size_t>(std::countr_zero(dirty));
      dirty &= dirty - 1;
      drain_channel(*channels_[s]);
      if (!channels_[s]->pending.empty()) {
        pending_mask_ |= std::uint64_t{1} << s;
      }
    }
  } else {
    // Bits are shared between sources (source % 64): any dirt means a
    // full sweep.  Worlds this large are outside the bitmask's design
    // point; correctness is kept, O(active) is not.
    for (auto& ch : channels_) drain_channel(*ch);
  }
}

std::size_t Mailbox::first_match(Channel& ch, Tag tag) {
  if (ch.cache.valid && ch.cache.tag == tag) return ch.cache.index;
  std::size_t found = kNoMatch;
  for (std::size_t i = 0; i < ch.pending.size(); ++i) {
    if (tag_matches(tag, ch.pending[i].tag)) {
      found = i;
      break;
    }
  }
  ch.cache = MatchCache{true, tag, found};
  return found;
}

std::optional<Mailbox::Pick> Mailbox::try_match(Rank source, Tag tag,
                                                MatchController* controller,
                                                std::uint64_t recv_index) {
  if (controller != nullptr) {
    if (auto forced = controller->force(owner_, recv_index)) {
      // Replay: wait for exactly (forced->source, forced->seq).
      TDBG_CHECK(source == kAnySource || source == forced->source,
                 "replay divergence: posted receive source differs from "
                 "recorded match");
      auto& ch = *channels_[static_cast<std::size_t>(forced->source)];
      const auto idx = first_match(ch, tag);
      if (idx == kNoMatch) return std::nullopt;  // not arrived yet
      const Message& m = ch.pending[idx];
      if (m.seq < forced->seq) {
        // A tag-compatible message precedes the recorded one and only
        // this (single-threaded) rank could consume it — the replayed
        // program's receives diverge from the log.
        throw Error(
            "replay divergence: an earlier tag-compatible message (seq " +
            std::to_string(m.seq) + ") precedes the recorded match (seq " +
            std::to_string(forced->seq) + ") and nothing can consume it");
      }
      if (m.seq > forced->seq) {
        throw Error(
            "replay divergence: recorded message already consumed "
            "(wanted seq " + std::to_string(forced->seq) + ", first match is " +
            std::to_string(m.seq) + ")");
      }
      return Pick{forced->source, idx};
    }
  }

  if (source != kAnySource) {
    auto& ch = *channels_[static_cast<std::size_t>(source)];
    const auto idx = first_match(ch, tag);
    if (idx != kNoMatch) return Pick{source, idx};
    return std::nullopt;
  }

  // Wildcard: among the first tag-compatible message of every active
  // channel, take the earliest arrival.  This is the default
  // (recorded-run) nondeterminism policy.  The pending mask keeps the
  // scan O(active channels).
  std::optional<Pick> best;
  std::uint64_t best_arrival = std::numeric_limits<std::uint64_t>::max();
  const auto consider = [&](Rank s) {
    auto& ch = *channels_[static_cast<std::size_t>(s)];
    if (ch.pending.empty()) return;
    const auto idx = first_match(ch, tag);
    if (idx == kNoMatch) return;
    const auto arrival = ch.pending[idx].arrival;
    if (arrival < best_arrival) {
      best_arrival = arrival;
      best = Pick{s, idx};
    }
  };
  if (channels_.size() <= 64) {
    std::uint64_t mask = pending_mask_;
    while (mask != 0) {
      consider(static_cast<Rank>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
  } else {
    for (Rank s = 0; s < static_cast<Rank>(channels_.size()); ++s) consider(s);
  }
  return best;
}

Status Mailbox::peek(const Pick& pick) const {
  const Message& m =
      channels_[static_cast<std::size_t>(pick.source)]->pending[pick.index];
  return Status{m.source, m.tag, m.payload_size(), m.seq};
}

Status Mailbox::consume(const Pick& pick, std::vector<std::byte>& out) {
  auto& ch = *channels_[static_cast<std::size_t>(pick.source)];
  Message msg = std::move(ch.pending[pick.index]);
  ch.pending.erase(ch.pending.begin() +
                   static_cast<std::ptrdiff_t>(pick.index));
  // Keep the first-match cache consistent across the removal.
  if (ch.cache.valid && ch.cache.index != kNoMatch) {
    if (ch.cache.index == pick.index) {
      ch.cache.valid = false;
    } else if (ch.cache.index > pick.index) {
      --ch.cache.index;
    }
  }
  if (ch.pending.empty() && channels_.size() <= 64) {
    pending_mask_ &= ~(std::uint64_t{1} << static_cast<unsigned>(pick.source));
  }
  queued_total_.fetch_sub(1, std::memory_order_relaxed);
  if (msg.tag <= kMaxUserTag) {
    queued_user_.fetch_sub(1, std::memory_order_relaxed);
  }

  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = mailbox_metrics();
    if (msg.delivered_ns != 0 && metrics.match_latency.hot()) {
      metrics.match_latency.record(
          owner_,
          static_cast<std::uint64_t>(support::now_ns() - msg.delivered_ns));
    }
  }
  msg.take_payload(out);
  if (msg.synchronous) {
    shared_->registry.complete_ssend(msg.source, msg.sync_seq);
  }
  return Status{msg.source, msg.tag, out.size(), msg.seq};
}

namespace {

/// Span site ids, interned once (the mailbox slow path must not take
/// the site-registry mutex per blocked receive).
std::uint32_t match_span_site() {
  static const std::uint32_t id = telemetry::intern_site("mpi.match");
  return id;
}
std::uint32_t park_span_site() {
  static const std::uint32_t id = telemetry::intern_site("mpi.park");
  return id;
}

}  // namespace

Status Mailbox::receive(Rank source, Tag tag, std::vector<std::byte>& out,
                        MatchController* controller,
                        std::uint64_t recv_index) {
  // Fast path: the message is already here — no span, no clock read.
  check_aborted();
  drain_transport();
  if (auto pick = try_match(source, tag, controller, recv_index)) {
    return consume(*pick, out);
  }
  // Slow path: the whole match wait is one "mpi.match" self-span, with
  // each futex sleep inside it an "mpi.park" span — so a Chrome-trace
  // view shows how long a rank waited and how much of that was parked
  // versus spinning.
  telemetry::Span match_span(match_span_site());
  return consume(park_for_match(source, tag, controller, recv_index), out);
}

Status Mailbox::probe(Rank source, Tag tag) {
  return peek(park_for_match(source, tag, nullptr, 0));
}

std::optional<Status> Mailbox::iprobe(Rank source, Tag tag) {
  check_aborted();
  drain_transport();
  if (auto pick = try_match(source, tag, nullptr, 0)) return peek(*pick);
  return std::nullopt;
}

/// Registers the owner as parked in the wait registry for one `cv_`
/// wait (park_mu_ held).  A sender that delivers clears both the entry
/// and `parked_`; if none did when the scope ends (the run aborted),
/// the owner clears its own entry, so every way out of a park leaves
/// the registry consistent.
class Mailbox::ParkScope {
 public:
  ParkScope(Mailbox& mailbox, Rank source, Tag tag) : mailbox_(mailbox) {
    mailbox_.shared_->registry.enter_wait(mailbox_.owner_, WaitKind::kRecv,
                                          source, tag);
    mailbox_.parked_ = true;
  }
  ~ParkScope() {
    if (!mailbox_.parked_) return;
    mailbox_.parked_ = false;
    mailbox_.shared_->registry.wake(mailbox_.owner_, WaitKind::kRecv);
  }
  ParkScope(const ParkScope&) = delete;
  ParkScope& operator=(const ParkScope&) = delete;

 private:
  Mailbox& mailbox_;
};

Mailbox::Pick Mailbox::park_for_match(Rank source, Tag tag,
                                      MatchController* controller,
                                      std::uint64_t recv_index) {
  for (;;) {
    check_aborted();
    drain_transport();
    if (auto pick = try_match(source, tag, controller, recv_index)) {
      return *pick;
    }
    if (spin_for_traffic()) continue;
    std::unique_lock lk(park_mu_);
    SleeperGuard guard(sleepers_);
    // Re-drain with the sleeper count published: either this sees the
    // racing delivery, or the sender sees the sleeper and wakes us.
    drain_transport();
    if (auto pick = try_match(source, tag, controller, recv_index)) {
      return *pick;
    }
    check_aborted();
    // Register only now, after the last re-drain found nothing: a rank
    // counts as idle only when no delivered message can wake it except
    // through a sender's `deliver`, which clears the entry first.
    ParkScope parked(*this, source, tag);
    telemetry::Span park_span(park_span_site());
    cv_.wait(lk, [&] {
      return !parked_ || shared_->aborted.load(std::memory_order_acquire);
    });
  }
}

bool Mailbox::spin_for_traffic() const {
  const int budget = spin_iterations();
  for (int i = 0; i < budget; ++i) {
    if (dirty_.load(std::memory_order_relaxed) != 0) return true;
  }
  return false;
}

void Mailbox::notify_abort() {
  // Taking the lock orders the notify after any in-flight check of the
  // abort flag: a waiter either saw the flag before sleeping or is
  // asleep when this notify fires.
  { std::lock_guard lk(park_mu_); }
  cv_.notify_all();
}

std::size_t Mailbox::queued_count(bool user_only) const {
  return user_only ? queued_user_.load(std::memory_order_relaxed)
                   : queued_total_.load(std::memory_order_relaxed);
}

void Mailbox::check_aborted() const {
  if (shared_->aborted.load(std::memory_order_acquire)) throw Aborted{};
}

}  // namespace tdbg::mpi
