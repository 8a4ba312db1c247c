// Lock-order-checked mutex — the concurrency-correctness substrate.
//
// Every mutex in the framework is a CheckedMutex carrying a *lock class*
// name (e.g. "net.SinkSlot").  In OOPP_LOCK_CHECK builds (the default; see
// the top-level CMakeLists) each acquisition is recorded in a per-thread
// held-lock stack and a process-wide lock-class order graph:
//
//   * acquiring B while holding A records the edge A -> B; if B -> ... -> A
//     is already in the graph the program has two call paths that take the
//     same locks in opposite orders — a latent deadlock — and the checker
//     fails *immediately*, printing both threads' lock sequences, even
//     though this particular run did not hang.  (Same idea as the kernel's
//     lockdep: one interleaving proves the hazard for all interleavings.)
//   * re-acquiring a mutex the thread already holds fails (self-deadlock;
//     none of the framework's mutexes are recursive).
//   * blocking on a remote call while holding any checked mutex fails
//     (lockcheck::on_blocking_call, fed by the hook in rpc/binding.hpp):
//     a held lock would then be held for a full network round trip, and
//     if the remote side ever needs that lock the system deadlocks.
//
// Violations go to the failure handler: by default an explanatory report
// on stderr followed by abort(); tests install a capturing handler.
// Ordering edges between *instances of the same class* are not tracked
// (two net.TcpFabric.link mutexes, say) — keep same-class nesting out of
// the code, the linter's job hierarchy is documented in
// docs/CONCURRENCY.md.
//
// Without OOPP_LOCK_CHECK the wrappers compile down to the underlying
// std::mutex / std::shared_mutex operations (the name pointer is the only
// overhead).  The runtime kill switch OOPP_LOCK_CHECK=0 in the
// environment disables checking without a rebuild.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>

namespace oopp::util::lockcheck {

/// Receives the violation report.  Returning (instead of aborting) is
/// allowed — used by tests; the faulty edge stays recorded so the same
/// violation is reported once.
using FailureHandler = void (*)(const std::string& report);

/// Install a handler; returns the previous one.  nullptr restores the
/// default print-and-abort behaviour.
FailureHandler set_failure_handler(FailureHandler h);

/// Compile-time support AND runtime switch (env OOPP_LOCK_CHECK != "0").
[[nodiscard]] bool enabled();

/// Number of checked locks the calling thread currently holds.
[[nodiscard]] std::size_t held_count();

/// Record an acquisition attempt of `instance` (lock class `cls`) by this
/// thread.  Called *before* blocking on the underlying mutex so the
/// hazard is reported even if this run would deadlock.
void on_acquire(const void* instance, const char* cls);

/// Undo the held-stack entry (release, or failed try_lock).
void on_release(const void* instance);

/// The calling thread is about to block waiting for a remote response
/// (`where` names the call site).  Fails if any checked lock is held.
void on_blocking_call(const char* where);

/// Test-only: drop all recorded ordering edges (per-thread caches survive,
/// so tests must use fresh lock-class names per scenario).
void reset_for_testing();

// ---------------------------------------------------------------------------
// Distributed extension: the cluster-wide wait-for graph.
//
// The local checker above is blind to distributed inversions: node A holds
// L1 and calls B; B's handler takes L2 and calls back A, whose handler
// needs L1 — no single process ever sees both locks in one held stack.
// The extension closes that hole in three pieces:
//
//   1. The RPC client piggybacks the issuing thread's held lock-class set
//      (as 32-bit name hashes) on the message header (held_class_hashes,
//      carried like trace/span ids — see net/message.hpp).
//   2. The dispatch side installs a RemoteHeldScope around servant method
//      execution; every lock the handler then acquires records a *cross
//      edge* remote-class -> local-class, tagged with the RPC method, the
//      calling peer, and the serving node.  Cross edges live in their own
//      store — they never enter the online order graph (two nodes' same-
//      name classes are different mutex instances, so a cross edge alone
//      proves nothing; only a *cycle* through them does).
//   3. dump_graph_json() exports classes + local edges + cross edges as
//      JSON (one file per process via Cluster::dump_lockgraph); the
//      offline merger tools/oopp_graph.py unions the dumps and reports
//      cycles — including ones spanning >= 2 nodes — lockdep-style.
//
// Everything is gated on distributed_enabled() (env OOPP_DIST_LOCK_CHECK,
// default off, runtime-overridable like telemetry::set_enabled): disabled
// means zero wire bytes and no recording.
// ---------------------------------------------------------------------------

/// Hard cap on piggybacked held classes per message (wire format limit).
inline constexpr std::size_t kMaxHeldClasses = 8;

/// Compile-time support AND runtime switch (env OOPP_DIST_LOCK_CHECK=1 or
/// set_distributed_enabled).  Always false when lock checking itself is
/// off.
[[nodiscard]] bool distributed_enabled();

/// Programmatic override (tests, CI harnesses).  Wins over the environment.
void set_distributed_enabled(bool on);

/// FNV-1a-32 of a lock-class name; never returns 0 (0 = "no class").
[[nodiscard]] std::uint32_t class_hash(std::string_view cls);

/// Hashes of the distinct lock classes the calling thread holds right
/// now, written to `out` (at most `max`); returns the count written.
/// Returns 0 when distributed checking is off.
std::size_t held_class_hashes(std::uint32_t* out, std::size_t max);

/// Dispatch-side RAII: while alive, the calling thread is executing an
/// RPC whose remote issuer held the given lock classes.  Each checked
/// acquisition under the scope records a cross edge remote -> local.
/// `method` must outlive the program (points into MethodInfo).  Nestable
/// (saves/restores the previous scope); a no-op when count == 0 or
/// distributed checking is off.
class RemoteHeldScope {
 public:
  RemoteHeldScope(const std::uint32_t* hashes, std::size_t count,
                  std::uint32_t peer, std::uint32_t node, const char* method);
  ~RemoteHeldScope();
  RemoteHeldScope(const RemoteHeldScope&) = delete;
  RemoteHeldScope& operator=(const RemoteHeldScope&) = delete;

 private:
  void* prev_ = nullptr;
  bool active_ = false;
};

/// Telemetry bridge.  util sits below telemetry in the layering, so the
/// checker reports through a hook instead of bumping counters directly;
/// Cluster installs one that feeds the "lockcheck" metric scope.
enum class Event : std::uint8_t {
  kCrossEdgeRecorded = 0,  // first sighting of a remote->local pair
  kHazardFlagged = 1,      // any failure-handler invocation
};
using EventHook = void (*)(Event);
void set_event_hook(EventHook h);

/// The process-wide graph as JSON: lock classes (name + wire hash), local
/// order edges with provenance (recording thread + held stack), and cross
/// edges with provenance (RPC method, peer, serving node, count).  `node`
/// labels the dump (the hosting machine id, or any stable id for
/// multi-node single-process clusters — the graph itself is per-process).
std::string dump_graph_json(std::uint32_t node);

}  // namespace oopp::util::lockcheck

namespace oopp::util {

/// Drop-in std::mutex with lock-order checking.  Works with
/// std::lock_guard / std::unique_lock; pair with util::CondVar instead of
/// std::condition_variable.
class CheckedMutex {
 public:
  CheckedMutex() = default;
  explicit CheckedMutex(const char* name) : name_(name) {}
  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
#endif
    mu_.lock();
  }

  bool try_lock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
    if (mu_.try_lock()) return true;
    lockcheck::on_release(this);
    return false;
#else
    return mu_.try_lock();
#endif
  }

  void unlock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_release(this);
#endif
    mu_.unlock();
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "anon";
};

/// Drop-in std::shared_mutex with lock-order checking.  Shared
/// acquisitions participate in the order graph exactly like exclusive
/// ones (a reader holding S while taking X elsewhere orders S before X).
class CheckedSharedMutex {
 public:
  CheckedSharedMutex() = default;
  explicit CheckedSharedMutex(const char* name) : name_(name) {}
  CheckedSharedMutex(const CheckedSharedMutex&) = delete;
  CheckedSharedMutex& operator=(const CheckedSharedMutex&) = delete;

  void lock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
#endif
    mu_.lock();
  }
  bool try_lock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
    if (mu_.try_lock()) return true;
    lockcheck::on_release(this);
    return false;
#else
    return mu_.try_lock();
#endif
  }
  void unlock() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_release(this);
#endif
    mu_.unlock();
  }

  void lock_shared() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
#endif
    mu_.lock_shared();
  }
  bool try_lock_shared() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_acquire(this, name_);
    if (mu_.try_lock_shared()) return true;
    lockcheck::on_release(this);
    return false;
#else
    return mu_.try_lock_shared();
#endif
  }
  void unlock_shared() {
#ifdef OOPP_LOCK_CHECK
    lockcheck::on_release(this);
#endif
    mu_.unlock_shared();
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const char* name_ = "anon";
};

/// Condition variable for CheckedMutex.  Waits adopt the underlying
/// std::mutex so the native (futex-based) std::condition_variable is used
/// — no condition_variable_any overhead.  The lock checker keeps treating
/// the mutex as held across the wait, which is the correct caller-visible
/// view (the wait re-acquires before returning).
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(std::unique_lock<CheckedMutex>& lk) {
    Adopted inner(lk);
    // oopp-lint: allow(condvar-wait-no-predicate) the predicate overload
    cv_.wait(inner.lk);  // below forwards here; callers get the check
  }

  template <class Pred>
  void wait(std::unique_lock<CheckedMutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      std::unique_lock<CheckedMutex>& lk,
      const std::chrono::time_point<Clock, Duration>& tp) {
    Adopted inner(lk);
    // oopp-lint: allow(condvar-wait-no-predicate) predicate overload below
    return cv_.wait_until(inner.lk, tp);
  }

  template <class Clock, class Duration, class Pred>
  bool wait_until(std::unique_lock<CheckedMutex>& lk,
                  const std::chrono::time_point<Clock, Duration>& tp,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lk, tp) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <class Rep, class Period>
  std::cv_status wait_for(std::unique_lock<CheckedMutex>& lk,
                          const std::chrono::duration<Rep, Period>& d) {
    return wait_until(lk, std::chrono::steady_clock::now() + d);
  }

  template <class Rep, class Period, class Pred>
  bool wait_for(std::unique_lock<CheckedMutex>& lk,
                const std::chrono::duration<Rep, Period>& d, Pred pred) {
    return wait_until(lk, std::chrono::steady_clock::now() + d,
                      std::move(pred));
  }

 private:
  /// Borrow the native mutex for the duration of one wait; the borrow is
  /// returned even if the wait throws.
  struct Adopted {
    std::unique_lock<std::mutex> lk;
    explicit Adopted(std::unique_lock<CheckedMutex>& outer)
        : lk(outer.mutex()->mu_, std::adopt_lock) {}
    ~Adopted() { lk.release(); }
  };
  std::condition_variable cv_;
};

}  // namespace oopp::util
