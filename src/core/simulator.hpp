// The simulation executive: owns the clock and the event queue.
//
// One Simulator instance per simulation run. Components hold a reference and
// use schedule()/cancel()/now(). The executive is strictly single-threaded:
// events run in (time, insertion-seq) order on the calling thread.
// Parallelism in manetsim lives across replications — SweepRunner runs
// independent Simulators on worker threads.
#pragma once

#include <cstdint>

#include "core/event_queue.hpp"
#include "core/time.hpp"

namespace manet {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Insertion sequence of the event being dispatched. Reads UINT64_MAX
  /// outside dispatch — before the first run and after run_until() returns
  /// normally — so every event at or before now() counts as already run.
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }

  /// (now(), current_seq()): an event at key k has run iff k <= current_key().
  [[nodiscard]] EventKey current_key() const { return {now_, current_seq_}; }

  /// Schedule `cb` to run `delay` from now. Negative delays are a contract
  /// violation — the past is immutable.
  EventId schedule(SimTime delay, EventQueue::Callback cb);

  /// Schedule `cb` at absolute time `at` (must not be in the past).
  EventId schedule_at(SimTime at, EventQueue::Callback cb);

  /// See EventQueue::reserve_seq(): the seq an event scheduled right now
  /// would get, without scheduling one.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedule `cb` at a key taken earlier with reserve_seq(); the key must
  /// lie after current_key().
  EventId schedule_reserved(EventKey key, EventQueue::Callback cb);

  /// Cancel a scheduled event (no-op if already run/cancelled).
  void cancel(EventId id) { queue_.cancel(id); }

  /// True iff the event is still pending.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Run until the queue drains or simulated time would exceed `until`.
  /// Events exactly at `until` are executed. Returns the number of events run.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains completely.
  std::uint64_t run();

  /// Request that the run loop stop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for micro-benchmarks and tests).
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }

  /// High-water mark of pending events over the run (profiling).
  [[nodiscard]] std::size_t peak_queue_size() const { return queue_.peak_size(); }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t current_seq_ = UINT64_MAX;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
};

}  // namespace manet
