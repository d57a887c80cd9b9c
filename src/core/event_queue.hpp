// The event queue at the heart of the discrete-event kernel.
//
// A 4-ary min-heap ordered by (time, insertion sequence). Ties in time are
// broken by insertion order so simulations are deterministic regardless of
// heap internals. Heap nodes are 24-byte PODs; callbacks live in a slot
// array addressed by EventId, so sifting never moves a closure. EventIds are
// generation-stamped slot handles: schedule/cancel/pending are pure array
// indexing — no hashing, no per-event allocation (the MAC layer cancels
// timers constantly, so this path is the kernel's inner loop). Cancellation
// is lazy in the heap: a cancelled event's callback is destroyed eagerly,
// its heap node discarded when it surfaces. cancel() is O(1); pop() is
// O(log4 n) amortized.
#pragma once

#include <cstdint>
#include <vector>

#include "core/callback.hpp"
#include "core/time.hpp"

namespace manet {

/// Handle to a scheduled event; used to cancel it. Encodes (slot,
/// generation): slots are recycled, but the generation advances on every
/// reuse, so an id value is never issued twice.
using EventId = std::uint64_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = EventCallback;

  /// Schedule `cb` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(SimTime at, Callback cb);

  /// Cancel a previously scheduled event. Cancelling an already-executed,
  /// already-cancelled, or invalid id is a harmless no-op.
  void cancel(EventId id);

  /// True iff `id` is scheduled and not yet executed or cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live && slots_[slot].gen == gen_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// High-water mark of live events since construction or the last clear().
  /// Profiling hook: sweep artifacts report it per replication. clear()
  /// resets it — back-to-back replications reusing one queue must each
  /// report their own high-water mark, not the max over all prior runs.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Remove and return the earliest live event. Precondition: !empty().
  struct Popped {
    SimTime time;
    EventId id;
    Callback cb;
  };
  Popped pop();

  /// Drop everything (used when tearing down a simulation early).
  void clear();

 private:
  /// Heap node: POD ordering key + the slot/generation of its callback.
  /// Cheap to move, so sift operations stay in one or two cache lines.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // insertion order; tie-break for determinism
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Callback storage, reused across events. `gen` advances each time the
  /// slot is allocated, so stale EventIds can never match a later tenant.
  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    Callback cb;
  };

  static constexpr std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
  static constexpr std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id); }
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// True iff this heap node still refers to a live event.
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].live && slots_[e.slot].gen == e.gen;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_heap_top();
  void discard_cancelled_top();
  void retire(std::uint32_t slot);

  std::vector<Entry> heap_;   // 4-ary min-heap by (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slot indices, LIFO
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace manet
