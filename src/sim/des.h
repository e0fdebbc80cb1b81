// Minimal discrete-event simulation core.
//
// Drives the pipeline-parallel schedule studies (Figs. 8, 10b, 13): stages
// and links are exclusive FIFO Resources, computation/communication are
// durations, and the schedule logic is plain callbacks. Deterministic: ties
// in time are broken by insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

namespace dsinfer::sim {

class Simulator {
 public:
  using Callback = std::function<void()>;

  double now() const { return now_; }

  // Schedules `cb` at absolute time `t` (>= now).
  void schedule_at(double t, Callback cb);
  void schedule_after(double dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  // Runs until the event queue drains; returns the final clock.
  double run();

  std::size_t events_processed() const { return processed_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

// An exclusive FIFO server (a GPU stream, a PCIe link, an NVMe queue).
// Work submitted while busy queues up in submission order.
//
// When tracing is enabled, each Resource becomes a track in the simulator's
// virtual clock domain (obs::kSimPid) and every submit() emits a complete
// event covering [start, start + duration) in virtual seconds.
class Resource {
 public:
  Resource(Simulator& sim, std::string name);

  // Occupies the resource for `duration` starting no earlier than now;
  // `done` fires at completion. Returns the completion time. `label`, if
  // non-empty, names the traced span (defaults to the resource name).
  double submit(double duration, Simulator::Callback done = {},
                const std::string& label = {});

  double busy_until() const { return free_at_; }
  double busy_time() const { return busy_; }
  double utilization(double horizon) const {
    return horizon > 0 ? busy_ / horizon : 0.0;
  }
  const std::string& name() const { return name_; }

 private:
  Simulator& sim_;
  std::string name_;
  double free_at_ = 0.0;
  double busy_ = 0.0;
  std::int64_t trace_tid_ = 0;   // track id in the kSimPid clock domain
  bool track_named_ = false;
};

}  // namespace dsinfer::sim
