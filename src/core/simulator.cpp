#include "core/simulator.hpp"

#include "core/assert.hpp"

namespace manet {

EventId Simulator::schedule(SimTime delay, EventQueue::Callback cb) {
  MANET_EXPECTS_MSG(delay >= SimTime::zero(), "t=%lldns: negative delay %lldns — the past is immutable",
                    static_cast<long long>(now_.ns()), static_cast<long long>(delay.ns()));
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(SimTime at, EventQueue::Callback cb) {
  MANET_EXPECTS_MSG(at >= now_, "schedule_at(%lldns) is in the past (now=%lldns)",
                    static_cast<long long>(at.ns()), static_cast<long long>(now_.ns()));
  return queue_.schedule(at, std::move(cb));
}

std::uint64_t Simulator::run_until(SimTime until) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (!queue_.empty() && !stopped_) {
    if (queue_.next_time() > until) break;
    auto ev = queue_.pop();
    // Executive invariant: simulated time never moves backwards.
    MANET_ASSERT_MSG(ev.time >= now_, "event-queue time moved backwards: popped t=%lldns at now=%lldns",
                     static_cast<long long>(ev.time.ns()), static_cast<long long>(now_.ns()));
    now_ = ev.time;
    ev.cb();
    ++ran;
    ++events_executed_;
  }
  // Advance the clock to the horizon even if the queue drained early, so a
  // subsequent run_until() continues from a consistent point.
  if (!stopped_ && (queue_.empty() || queue_.next_time() > until)) {
    if (until > now_ && until != SimTime::max()) now_ = until;
  }
  return ran;
}

std::uint64_t Simulator::run() { return run_until(SimTime::max()); }

}  // namespace manet
