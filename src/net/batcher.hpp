// Per-peer send coalescing shared by the TCP fabrics.
//
// With batching enabled, small frames destined for one peer accumulate
// in a per-link BatchQueue and are flushed as one batch wire unit (see
// tcp_wire.hpp) when either
//
//   * the queue reaches max_bytes or max_frames  — size flush, inline on
//     the sending thread; or
//   * max_delay elapses since the queue's first frame — deadline flush,
//     driven by the fabric's BatchFlusher thread.
//
// A §4 split loop or ProcessGroup::async fan-out thus costs one syscall
// per peer per flush instead of one (or two) per call.  Off (the
// default) every frame is written immediately via send_framev, which is
// byte-identical to the historic framing — and receivers accept both
// formats regardless of the local setting, so the knob is runtime-
// switchable and mixed clusters interoperate.
//
// Locking: BatchQueue state lives under its link's own mutex.  The
// flusher registry mutex is only ever taken *without* a link mutex held
// on the schedule path (senders arm deadlines after releasing the link),
// and the flusher thread calls back without holding its registry mutex —
// so the only established order is link → flusher, and the lock-order
// checker stays happy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/tcp_wire.hpp"
#include "telemetry/metrics.hpp"
#include "util/checked_mutex.hpp"
#include "util/clock.hpp"

namespace oopp::net {

/// Knobs for per-peer send coalescing (FabricOptions::batch).
struct BatchOptions {
  /// Off by default: batching trades up to max_delay of latency on a
  /// lone sequential call for syscall amortization on bursts.  Turn it
  /// on for pipelined/async workloads.
  bool enabled = false;
  /// Size flush thresholds: whichever trips first.
  std::size_t max_bytes = 16 * 1024;
  std::size_t max_frames = 256;
  /// Deadline flush: the longest a frame may wait in the queue.
  std::chrono::microseconds max_delay{50};
};

/// Runtime-switchable BatchOptions: senders snapshot with load() on every
/// send, Fabric::reconfigure stores.  Individually relaxed atomics — a send
/// racing a reconfigure sees some mix of old and new knobs, which is
/// harmless (every combination is a valid configuration).
class AtomicBatchOptions {
 public:
  AtomicBatchOptions() = default;
  explicit AtomicBatchOptions(const BatchOptions& o) { store(o); }

  void store(const BatchOptions& o) {
    max_bytes_.store(o.max_bytes, std::memory_order_relaxed);
    max_frames_.store(o.max_frames, std::memory_order_relaxed);
    max_delay_us_.store(static_cast<std::uint64_t>(o.max_delay.count()),
                        std::memory_order_relaxed);
    enabled_.store(o.enabled, std::memory_order_release);
  }

  [[nodiscard]] BatchOptions load() const {
    BatchOptions o;
    o.enabled = enabled_.load(std::memory_order_acquire);
    o.max_bytes = max_bytes_.load(std::memory_order_relaxed);
    o.max_frames = max_frames_.load(std::memory_order_relaxed);
    o.max_delay = std::chrono::microseconds(
        max_delay_us_.load(std::memory_order_relaxed));
    return o;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> max_bytes_{16 * 1024};
  std::atomic<std::size_t> max_frames_{256};
  std::atomic<std::uint64_t> max_delay_us_{50};
};

/// net.batch scope: flush counters by trigger plus fill histograms.
struct BatchMetrics {
  telemetry::Counter& flush_size;      // flushes tripped by bytes/frames
  telemetry::Counter& flush_deadline;  // flushes tripped by max_delay
  telemetry::Counter& flush_drain;     // disable-switch / shutdown drains
  telemetry::Counter& batches_sent;    // batch wire units (≥ 2 frames)
  telemetry::Counter& frames_batched;  // frames that travelled in a batch
  telemetry::Histogram& fill_frames;   // frames per flush
  telemetry::Histogram& fill_bytes;    // wire bytes per flush
};

inline BatchMetrics& batch_metrics() {
  static BatchMetrics m = [] {
    auto& s = telemetry::Metrics::scope_for("net.batch");
    return BatchMetrics{s.counter("flush_size"),
                        s.counter("flush_deadline"),
                        s.counter("flush_drain"),
                        s.counter("batches_sent"),
                        s.counter("frames_batched"),
                        s.histogram("fill_frames"),
                        s.histogram("fill_bytes")};
  }();
  return m;
}

/// What tripped a flush, for metrics attribution.
enum class FlushTrigger : std::uint8_t { kSize, kDeadline, kDrain };

/// Pending frames for one link.  Every member and method is guarded by
/// the owning link's mutex; the struct itself adds no locking.
struct BatchQueue {
  std::vector<Message> frames;
  std::size_t bytes = 0;       // wire bytes queued (headers + payloads)
  time_point deadline{};       // valid while !frames.empty()

  [[nodiscard]] bool empty() const { return frames.empty(); }

  /// Returns true when this frame started a new batch (the caller must
  /// arm the deadline flusher after releasing the link mutex).
  bool add(Message m, const BatchOptions& o) {
    const bool first = frames.empty();
    if (first) deadline = steady_clock::now() + o.max_delay;
    bytes += wire::header_wire_size(m.header) + m.payload.size();
    frames.push_back(std::move(m));
    return first;
  }

  [[nodiscard]] bool due_for_size_flush(const BatchOptions& o) const {
    return bytes >= o.max_bytes || frames.size() >= o.max_frames;
  }

  /// Write everything queued as one batch wire unit and record metrics.
  /// Returns false on socket failure.  No-op on an empty queue.
  bool flush(int fd, FlushTrigger trigger) {
    if (frames.empty()) return true;
    auto& m = batch_metrics();
    switch (trigger) {
      case FlushTrigger::kSize: m.flush_size.add(1); break;
      case FlushTrigger::kDeadline: m.flush_deadline.add(1); break;
      case FlushTrigger::kDrain: m.flush_drain.add(1); break;
    }
    m.fill_frames.record(frames.size());
    m.fill_bytes.record(bytes);
    if (frames.size() >= 2) {
      m.batches_sent.add(1);
      m.frames_batched.add(frames.size());
    }
    const bool ok = wire::send_batch(fd, frames.data(), frames.size());
    frames.clear();
    bytes = 0;
    return ok;
  }
};

/// The deadline-flush driver: one per fabric.  Links register a key and a
/// deadline; the single flusher thread (started lazily on first use, so
/// fabrics that never batch pay nothing) invokes the fabric's callback
/// for each key whose deadline passed.  The callback runs with no
/// flusher lock held; it locks the link itself and may re-schedule.
class BatchFlusher {
 public:
  using Callback = std::function<void(std::uint64_t key)>;

  explicit BatchFlusher(Callback cb) : cb_(std::move(cb)) {}
  ~BatchFlusher() { stop(); }

  BatchFlusher(const BatchFlusher&) = delete;
  BatchFlusher& operator=(const BatchFlusher&) = delete;

  /// Request a callback for `key` at (or shortly after) `when`.  An
  /// earlier pending deadline for the same key wins.
  void schedule(std::uint64_t key, time_point when) {
    bool notify = false;
    {
      std::lock_guard lock(mu_);
      if (stop_) return;
      if (!started_) {
        started_ = true;
        // oopp-lint: allow(raw-thread-primitive) — joined in stop().
        thread_ = std::thread([this] { loop(); });
      }
      auto it = due_.find(key);
      if (it == due_.end() || when < it->second) {
        due_[key] = when;
        notify = true;
      }
    }
    if (notify) cv_.notify_all();
  }

  /// Stop the thread.  Pending deadlines are abandoned — callers drain
  /// their queues themselves on shutdown.  Idempotent.
  void stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
      due_.clear();
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    std::vector<std::uint64_t> fired;
    for (;;) {
      if (stop_) return;
      if (due_.empty()) {
        cv_.wait(lock, [this] { return stop_ || !due_.empty(); });
        continue;
      }
      const auto now = steady_clock::now();
      time_point earliest = time_point::max();
      fired.clear();
      for (auto it = due_.begin(); it != due_.end();) {
        if (it->second <= now) {
          fired.push_back(it->first);
          it = due_.erase(it);
        } else {
          earliest = std::min(earliest, it->second);
          ++it;
        }
      }
      if (fired.empty()) {
        // oopp-lint: allow(condvar-wait-no-predicate) scheduling sleep;
        cv_.wait_until(lock, earliest);  // the for(;;) re-checks due_
        continue;
      }
      lock.unlock();
      for (const auto key : fired) cb_(key);
      lock.lock();
    }
  }

  Callback cb_;
  util::CheckedMutex mu_{"net.BatchFlusher"};
  util::CondVar cv_;
  std::map<std::uint64_t, time_point> due_;
  std::thread thread_;  // oopp-lint: allow(raw-thread-primitive)
  bool started_ = false;
  bool stop_ = false;
};

}  // namespace oopp::net
