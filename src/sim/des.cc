#include "sim/des.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace dsinfer::sim {

namespace {
// Simulated resources each get a stable track id in the kSimPid domain,
// distinct across every Simulator in the process.
std::int64_t next_sim_tid() {
  static std::atomic<std::int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void Simulator::schedule_at(double t, Callback cb) {
  if (t < now_) throw std::invalid_argument("schedule_at: time in the past");
  queue_.push(Event{t, next_seq_++, std::move(cb)});
}

double Simulator::run() {
  while (!queue_.empty()) {
    // priority_queue::top returns const&; move out via const_cast-free copy
    // of the callback after popping the ordering fields.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ++processed_;
    if (ev.cb) ev.cb();
  }
  return now_;
}

Resource::Resource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), trace_tid_(next_sim_tid()) {}

double Resource::submit(double duration, Simulator::Callback done,
                        const std::string& label) {
  if (duration < 0) throw std::invalid_argument("Resource: negative duration");
  const double start = std::max(sim_.now(), free_at_);
  const double end = start + duration;
  free_at_ = end;
  busy_ += duration;
  if (obs::trace_enabled()) {
    auto& rec = obs::TraceRecorder::instance();
    if (!track_named_) {
      track_named_ = true;
      rec.set_track_name(obs::kSimPid, trace_tid_, name_);
    }
    rec.complete_at(obs::kSimPid, trace_tid_, start * 1e6, duration * 1e6,
                    "sim", label.empty() ? name_ : label);
  }
  if (done) sim_.schedule_at(end, std::move(done));
  return end;
}

}  // namespace dsinfer::sim
