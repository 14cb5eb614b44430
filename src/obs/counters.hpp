#pragma once
// Communication counters for the virtual-time runtime: per-peer message and
// byte counts, per-collective invocation counts and contribution volumes,
// and mailbox queue-depth high-water marks. Counters are always on — they
// are integer increments outside every timed region, so they cannot perturb
// the virtual clocks — and SimWorld aggregates them into a CommStats after
// each run, with cross-rank consistency invariants for tests and reports.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lra::obs {

/// Per-rank registry, written only by the owning rank's thread.
struct CommCounters {
  // Point-to-point, indexed by peer rank.
  std::vector<std::uint64_t> msgs_sent_to;
  std::vector<std::uint64_t> bytes_sent_to;
  std::vector<std::uint64_t> msgs_recv_from;
  std::vector<std::uint64_t> bytes_recv_from;

  // Collectives, keyed by operation label ("barrier", "allreduce", ...).
  std::map<std::string, std::uint64_t> collective_calls;
  std::map<std::string, std::uint64_t> collective_bytes;  // local contribution

  // Nonblocking-request accounting. overlap_seconds is the modeled transfer
  // time this rank spent computing between a request's post and completion
  // (always 0.0 on the blocking paths, which post and wait back-to-back);
  // coll_seconds is the deterministic sum of applied collective costs — the
  // modeled-communication share of the final virtual clock, free of the
  // measured-CPU noise in vtime() and therefore comparable across runs.
  double overlap_seconds = 0.0;
  std::uint64_t overlapped_requests = 0;
  double coll_seconds = 0.0;

  // Fault-injection accounting (all zero when no FaultPlan is installed).
  // Sender side, indexed by destination rank:
  std::vector<std::uint64_t> msgs_delayed_to;     // delay faults applied
  std::vector<std::uint64_t> msgs_duplicated_to;  // duplicate copies enqueued
  std::vector<std::uint64_t> msgs_corrupted_to;   // bit-flip faults applied
  // Receiver side, indexed by source rank:
  std::vector<std::uint64_t> dups_dropped_from;     // duplicate copies discarded
  std::vector<std::uint64_t> corrupt_detected_from; // checksum mismatches seen
  // Collective faults decided on this rank:
  std::uint64_t coll_delay_faults = 0;
  std::uint64_t coll_flip_faults = 0;

  /// Deepest this rank's incoming mailboxes ever got (filled post-run).
  std::uint64_t max_queue_depth = 0;

  /// Reset to a fresh set for a world of `nranks`: every field back to its
  /// initial value, and the nine per-peer vectors sized to the world.
  void resize(int nranks) {
    const std::size_t n = static_cast<std::size_t>(nranks);
    *this = CommCounters{};
    for (auto* v : {&msgs_sent_to, &bytes_sent_to, &msgs_recv_from,
                    &bytes_recv_from, &msgs_delayed_to, &msgs_duplicated_to,
                    &msgs_corrupted_to, &dups_dropped_from,
                    &corrupt_detected_from})
      v->assign(n, 0);
  }

  /// Memberwise comparison (compiler-generated: covers every field).
  bool operator==(const CommCounters&) const = default;

  std::uint64_t total_msgs_sent() const;
  std::uint64_t total_bytes_sent() const;
  std::uint64_t total_msgs_recv() const;
  std::uint64_t total_bytes_recv() const;
  std::uint64_t total_collective_calls() const;
  /// Total fault events recorded on this rank (all kinds).
  std::uint64_t total_fault_events() const;
};

/// World-level aggregate assembled by SimWorld::run.
struct CommStats {
  std::vector<CommCounters> per_rank;
  /// True when the run was torn down early (a rank raised an error, e.g. a
  /// detected payload corruption); mail may legitimately be undrained then.
  bool aborted = false;

  std::uint64_t total_msgs() const;        // sum of sends over ranks
  std::uint64_t total_bytes() const;       // sum of sent bytes over ranks
  std::uint64_t max_queue_depth() const;   // max over ranks
  std::uint64_t total_fault_events() const;  // sum over ranks, all kinds

  /// Cross-rank consistency checks:
  ///   * bytes/messages rank s sent to rank d equal bytes/messages rank d
  ///     received from rank s (every message was drained) — delivery counts
  ///     exclude injected duplicate copies, so delay/dup fault plans must
  ///     still satisfy the equalities;
  ///   * every duplicate copy rank s enqueued for rank d was discarded by
  ///     rank d's transport (duplicated == dups_dropped per edge);
  ///   * corruption detections never exceed injected corruptions per edge;
  ///   * every rank made the same collective calls the same number of times.
  /// On aborted runs the drain equalities relax to "received <= sent" (mail
  /// may be stranded, never invented). Returns an empty string when
  /// consistent, else a description of the first violation.
  std::string check_invariants() const;
};

}  // namespace lra::obs
