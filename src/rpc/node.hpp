// Node: one simulated machine's RPC endpoint.
//
// Serving side — the node is the Sink its fabric delivers into, on the
// transport thread a message arrives on (net/sink.hpp).  Delivery appends
// each request to the target object's FIFO command queue, drained on an
// elastic thread pool (so servants can make nested blocking remote calls,
// as the paper's FFT group does), and completes the call a response
// answers.
//
// Client side — call_raw/async_raw implement the synchronous semantics of
// §2 ("each instruction, and all communications associated with it, is
// completed before the following instruction") and the split-loop
// parallelism of §4 (issue the sends, then collect).
//
// Control plane — requests addressed to kNodeObject create objects
// (remote operator new), destroy them (remote delete), and
// passivate/restore them for the persistent processes of §5.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string_view>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "rpc/call_policy.hpp"
#include "rpc/class_registry.hpp"
#include "rpc/errors.hpp"
#include "rpc/object_table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/checked_mutex.hpp"
#include "util/clock.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace oopp::rpc {

// Control-plane method names (object id kNodeObject).
inline constexpr std::string_view kSpawnMethod = "oopp.node.spawn";
inline constexpr std::string_view kDestroyMethod = "oopp.node.destroy";
inline constexpr std::string_view kPassivateMethod = "oopp.node.passivate";
inline constexpr std::string_view kRestoreMethod = "oopp.node.restore";
inline constexpr std::string_view kStatsMethod = "oopp.node.stats";
inline constexpr std::string_view kShutdownMethod = "oopp.node.shutdown";

/// Per-node operation counters, readable locally via Node::stats() and
/// remotely via the kStatsMethod control call.
struct NodeStats {
  std::uint64_t objects_live = 0;
  std::uint64_t requests_served = 0;    // object method invocations
  std::uint64_t control_requests = 0;   // spawn/destroy/passivate/...
  std::uint64_t remote_exceptions = 0;  // servant methods that threw
  std::uint64_t objects_spawned = 0;
  std::uint64_t objects_destroyed = 0;
  std::uint64_t pool_threads = 0;
  std::uint64_t pool_tasks_run = 0;
  std::uint64_t queue_depth_hwm = 0;   // object-queue depth high water
  std::uint64_t pool_busy = 0;         // workers inside a task right now
};

template <class Ar>
void oopp_serialize(Ar& ar, NodeStats& s) {
  ar(s.objects_live, s.requests_served, s.control_requests,
     s.remote_exceptions, s.objects_spawned, s.objects_destroyed,
     s.pool_threads, s.pool_tasks_run, s.queue_depth_hwm, s.pool_busy);
}

/// How a node turns decoded requests into servant executions: the N:M
/// dispatch surface (docs/DISPATCH.md).  Delivery appends each request to
/// its target object's command queue; queues drain on the elastic worker
/// pool, preserving per-object FIFO order while distinct objects proceed
/// in parallel.
struct DispatchOptions {
  /// Worker pool floor.  The pool still grows elastically up to
  /// max_workers — servants may make nested blocking remote calls, and a
  /// fixed pool could deadlock (see util/thread_pool.hpp).
  std::size_t workers = 2;
  std::size_t max_workers = 512;
  /// Per-object command-queue bound.  0 = unbounded.  When a queue is
  /// full, further non-reentrant invocations are refused with
  /// kUnavailable (rpc::PeerUnavailable at the caller) instead of
  /// growing memory without limit; control-plane commands bypass the
  /// bound.
  std::size_t queue_bound = 0;
};

/// One record per served object-method invocation, delivered to the trace
/// hook (if installed).  `method` points into the class's MethodInfo and
/// stays valid for the program's lifetime.
struct CallTrace {
  net::MachineId caller = 0;
  net::ObjectId object = 0;
  std::string_view class_name;
  std::string_view method;
  net::CallStatus status = net::CallStatus::kOk;
  std::int64_t duration_ns = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// Circuit-breaker state for one peer machine, as seen by this node's
/// client side (see docs/FAULTS.md for the state machine).
enum class BreakerState : std::uint8_t {
  kClosed = 0,    // healthy: calls flow
  kOpen = 1,      // failing: calls fail fast with rpc::PeerUnavailable
  kHalfOpen = 2,  // cooldown over: one probe call is in flight
};

inline const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

/// Snapshot of one peer's health tracker (Node::peer_health).
struct PeerHealth {
  BreakerState state = BreakerState::kClosed;
  std::uint32_t consecutive_failures = 0;
};

class Node : private net::Sink {
 public:
  struct Options {
    /// Worker pool and queue-bound knobs (docs/DISPATCH.md);
    /// replaces the old min_threads/max_threads pair.
    DispatchOptions dispatch{};
    /// Stamp every outgoing payload with a checksum and verify inbound
    /// ones.  A corrupted request is answered with kBadFrame; a corrupted
    /// response surfaces as rpc::BadFrame at the call site.  Costs one
    /// pass over each payload; intended for untrusted fabrics.
    bool checksums = false;
    /// Fault tolerance applied when a call carries no explicit policy.
    /// The default default is inert (one attempt, wait forever) — the
    /// pre-policy behaviour.  Also settable at runtime via
    /// set_default_policy().
    CallPolicy default_policy{};
    /// Server-side at-most-once window: how many responses to retryable
    /// (attempt-stamped) calls are kept for replay.  Must cover the
    /// maximum number of such calls a single peer can have outstanding
    /// or recently completed; beyond it, a very late retry may re-execute.
    std::size_t dedup_cache_entries = 4096;
    /// Circuit breaker: this many consecutive retry-layer failures to one
    /// peer open its breaker (calls fail fast with rpc::PeerUnavailable
    /// until breaker_cooldown passes and a half-open probe succeeds).
    /// 0 disables the breaker entirely.
    std::uint32_t breaker_threshold = 0;
    std::chrono::milliseconds breaker_cooldown{250};
  };

  using TraceFn = std::function<void(const CallTrace&)>;

  Node(net::MachineId id, net::Fabric& fabric) : Node(id, fabric, Options{}) {}
  Node(net::MachineId id, net::Fabric& fabric, Options opts);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Attach to the fabric and start the retry driver.
  void start();

  /// Full local shutdown (delivery, pending calls, pool).  For clusters,
  /// prefer the staged stop_* sequence orchestrated across all nodes.
  void stop();

  // Staged shutdown (see Cluster::~Cluster for the ordering rationale).
  void stop_receiving();
  void fail_pending();
  void stop_pool();

  [[nodiscard]] net::MachineId id() const { return id_; }
  [[nodiscard]] NodeStats stats() const;

  /// Install a hook observing every object-method invocation this node
  /// serves.  Install before traffic starts; the hook runs on dispatch
  /// threads and must be thread-safe.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Block until some client sends the kShutdownMethod control request —
  /// how a standalone node process (oopp_noded) learns it is done.
  void wait_for_shutdown_request();
  [[nodiscard]] ObjectTable& objects() { return objects_; }
  [[nodiscard]] ElasticPool& pool() { return pool_; }
  [[nodiscard]] net::Fabric& fabric() { return fabric_; }

  /// This node's span ring (tracing); dumped by Cluster::dump_trace().
  [[nodiscard]] telemetry::SpanSink& span_sink() { return span_sink_; }

  // -- fault tolerance ------------------------------------------------------

  /// Policy applied to calls that carry no explicit one.  Thread-safe;
  /// takes effect for calls issued after it returns.
  void set_default_policy(const CallPolicy& p);
  [[nodiscard]] CallPolicy default_policy() const;

  /// This node's view of a peer's circuit breaker.  A peer never called
  /// (or with the breaker disabled) reads as closed/0.
  [[nodiscard]] PeerHealth peer_health(net::MachineId peer) const;

  // -- client side ----------------------------------------------------------

  /// Fire a request and return a future for the raw response message.
  /// `verb` classifies the round trip for per-verb metrics and span names.
  /// When tracing is on, a client span is opened (child of the calling
  /// thread's trace context) and completed when the response arrives; if
  /// `issued` is non-null it receives that span's context so callers (e.g.
  /// Future::get_for) can attribute later events to this call.
  ///
  /// `policy` null means "use the node default".  A retryable policy
  /// stamps the request with an attempt number, arms the retry driver
  /// (lost attempts are re-sent with backoff + jitter; the server
  /// deduplicates so non-reentrant methods never run twice), and fails
  /// the future with rpc::CallTimeout once attempts or the deadline are
  /// exhausted.  Throws rpc::PeerUnavailable immediately when the peer's
  /// circuit breaker is open.
  std::future<net::Message> async_raw(
      net::MachineId dst, net::ObjectId object, net::MethodId method,
      net::Buffer payload,
      telemetry::Verb verb = telemetry::Verb::kCall,
      telemetry::TraceContext* issued = nullptr,
      const CallPolicy* policy = nullptr);

  /// Synchronous round trip; throws the decoded error on failure status.
  net::Message call_raw(net::MachineId dst, net::ObjectId object,
                        net::MethodId method, net::Buffer payload,
                        telemetry::Verb verb = telemetry::Verb::kCall,
                        const CallPolicy* policy = nullptr);

  /// Decode a response's status, throwing the corresponding typed
  /// exception for non-kOk.  Exposed for typed futures.
  static void throw_on_error(const net::Message& response);

  /// The node whose context the calling thread runs in: the driver node
  /// for threads that entered via Cluster, the hosting node for servant
  /// code.  Null if the thread has no context.
  static Node* current();

  /// RAII context setter.  Also binds the thread to the node's span sink
  /// so LocalSpans recorded by servant/subsystem code land in the right
  /// node's trace dump.
  class ContextGuard {
   public:
    explicit ContextGuard(Node* n)
        : prev_(tls_current_),
          sink_(n != nullptr ? &n->span_sink_ : telemetry::thread_sink(),
                n != nullptr ? n->id_ : telemetry::thread_node()) {
      tls_current_ = n;
    }
    ~ContextGuard() { tls_current_ = prev_; }
    ContextGuard(const ContextGuard&) = delete;
    ContextGuard& operator=(const ContextGuard&) = delete;

   private:
    Node* prev_;
    telemetry::SinkScope sink_;
  };

 private:
  friend class ContextGuard;

  /// The fabric's delivery entry point (net::Sink): verify, then route.
  void deliver(net::Message m) override;
  /// Route one request (runs on the delivering transport thread; never
  /// blocks and never sends — see node.cpp).
  void on_request(net::Message req);
  void on_response(net::Message resp);

  // -- fault-tolerance internals (see docs/FAULTS.md) -----------------------

  /// One retryable logical call being driven by retry_loop().
  struct RetryEntry {
    net::MachineId dst = 0;
    net::ObjectId object = 0;
    net::MethodId method = 0;
    net::Buffer payload;  // retained for resends (slice refs, not a copy)
    CallPolicy policy;
    std::uint32_t attempts_sent = 1;
    /// false: waiting on attempt `attempts_sent`'s response until `due`;
    /// true: attempt declared lost, resending when `due` passes.
    bool in_backoff = false;
    time_point due{};
    time_point overall_deadline = time_point::max();
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    /// Issuer's held-lock classes, captured once at issue time so resends
    /// carry the same distributed-lockcheck piggyback as the first send.
    net::LockSet held;
  };

  void retry_loop();
  /// Complete a pending call exceptionally (retry exhaustion, breaker).
  void fail_call(net::SeqNum seq, net::CallStatus status,
                 std::exception_ptr ex);
  /// Breaker admission; throws rpc::PeerUnavailable when open.
  void admit_call(net::MachineId dst);
  void record_peer_success(net::MachineId peer);
  void record_peer_failure(net::MachineId peer);
  /// Backoff for retry number `retry` with jitter applied.
  std::chrono::nanoseconds jittered_backoff(const CallPolicy& p,
                                            std::uint32_t retry);

  /// Server side: returns true when the request was fully handled by the
  /// at-most-once layer (cached response replayed, or duplicate of an
  /// in-flight execution dropped) and must not be dispatched.
  bool dedup_intercept(const net::Message& req);
  /// Record a completed response for future replay (attempt-stamped
  /// requests only; kBadFrame is never cached — see respond_error).
  void dedup_store(const net::Message& req, const net::Message& response);

  /// Run one request against a live entry and send the response.
  void execute(const std::shared_ptr<ObjectTable::Entry>& entry,
               const MethodInfo* mi, const net::Message& req);

  /// Append to an entry's FIFO command queue, kicking a drain task if
  /// idle.  With `bounded`, refuses (returns false) when the queue sits
  /// at Options::dispatch.queue_bound; control-plane commands pass
  /// bounded = false so destroy/passivate always land.
  bool enqueue_command(std::shared_ptr<ObjectTable::Entry> entry,
                       std::function<void()> cmd, bool bounded);

  void handle_control(const net::Message& req);

  /// The response to `req`, recorded for dedup replay.
  net::Message reply(const net::Message& req, net::CallStatus status,
                     net::Buffer payload);
  void respond_ok(const net::Message& req, net::Buffer payload);
  void respond_error(const net::Message& req, net::CallStatus status,
                     net::Buffer payload);
  /// respond_error for the routing path, sent through post_reply.
  void refuse(const net::Message& req, net::CallStatus status,
              net::Buffer payload);
  /// Send a reply the routing path made from a pool task.  On TCP that
  /// path is the reactor, the only reader of every inbound socket, and a
  /// link write blocks while the peer's socket buffer is full: written
  /// inline, the reply could wait on a read only the reactor can do.
  void post_reply(net::Message resp);

  static thread_local Node* tls_current_;

  /// Returns true if the inbound message passes verification (or
  /// checksumming is off / the message is unstamped).
  [[nodiscard]] bool payload_intact(const net::Message& m) const;

  net::MachineId id_;
  Options opts_;
  net::Fabric& fabric_;
  ElasticPool pool_;
  ObjectTable objects_;
  bool started_ = false;
  std::atomic<std::uint64_t> queue_depth_hwm_{0};

  /// One in-flight client call: the promise the response completes, plus
  /// the open client span (recorded into span_sink_ when the call
  /// resolves — response, abort, whichever happens).
  struct PendingCall {
    std::shared_ptr<std::promise<net::Message>> prom;
    telemetry::Verb verb = telemetry::Verb::kCall;
    bool traced = false;
    telemetry::Span span{};
  };

  util::CheckedMutex pending_mu_{"rpc.Node.pending"};
  std::unordered_map<net::SeqNum, PendingCall> pending_;
  std::atomic<net::SeqNum> next_seq_{1};
  bool aborting_ = false;

  /// Retry driver state.  retry_mu_ is never held across a fabric send or
  /// while taking pending_mu_/peers_mu_ (no nested locking anywhere in
  /// the fault-tolerance layer).
  util::CheckedMutex retry_mu_{"rpc.Node.retry"};
  util::CondVar retry_cv_;
  std::map<net::SeqNum, RetryEntry> retries_;
  bool retry_stop_ = false;
  std::thread retry_thread_;  // oopp-lint: allow(raw-thread-primitive)
  Xoshiro256 retry_rng_{0x0fa17e5};  // jitter only; seed is irrelevant

  /// Server-side at-most-once cache: (caller, seq) -> response, for
  /// attempt-stamped requests.  FIFO-bounded by opts_.dedup_cache_entries.
  struct DedupEntry {
    bool completed = false;
    net::Message response;
  };
  using DedupKey = std::pair<net::MachineId, net::SeqNum>;
  util::CheckedMutex dedup_mu_{"rpc.Node.dedup"};
  std::map<DedupKey, DedupEntry> dedup_;
  std::deque<DedupKey> dedup_fifo_;

  /// Per-peer health / circuit breaker (client side).
  struct Peer {
    BreakerState state = BreakerState::kClosed;
    std::uint32_t consecutive_failures = 0;
    time_point open_until{};
    bool probe_inflight = false;
  };
  mutable util::CheckedMutex peers_mu_{"rpc.Node.peers"};
  std::map<net::MachineId, Peer> peers_;

  mutable util::CheckedMutex policy_mu_{"rpc.Node.policy"};
  CallPolicy default_policy_;
  /// Fast path: skip the policy_mu_ lookup entirely while the node-level
  /// default is inert (the common case).
  std::atomic<bool> has_default_policy_{false};

  telemetry::SpanSink span_sink_;

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> control_requests_{0};
  std::atomic<std::uint64_t> remote_exceptions_{0};
  std::atomic<std::uint64_t> objects_spawned_{0};
  std::atomic<std::uint64_t> objects_destroyed_{0};
  TraceFn trace_;

  util::CheckedMutex shutdown_mu_{"rpc.Node.shutdown"};
  util::CondVar shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace oopp::rpc
