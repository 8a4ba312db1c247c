#include "rpc/node.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <typeinfo>
#include <vector>

#include "rpc/binding.hpp"
#include "serial/archive.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace oopp::rpc {

namespace {

/// Per-verb instruments, resolved once — async_raw is the hot path.
/// Counters are always on; latency histograms only fill when tracing is
/// enabled (see telemetry::enabled() gating at the call sites).
telemetry::Counter& verb_counter(telemetry::Verb v) {
  static std::array<telemetry::Counter*, 6> counters = [] {
    auto& scope = telemetry::Metrics::scope_for("rpc");
    return std::array<telemetry::Counter*, 6>{
        &scope.counter("call_issued"),      &scope.counter("async_issued"),
        &scope.counter("barrier_issued"),   &scope.counter("control_issued"),
        &scope.counter("page_read_issued"), &scope.counter("page_write_issued"),
    };
  }();
  return *counters[static_cast<std::size_t>(v)];
}

telemetry::Histogram& verb_histogram(telemetry::Verb v) {
  static std::array<telemetry::Histogram*, 6> hists = [] {
    auto& scope = telemetry::Metrics::scope_for("rpc");
    return std::array<telemetry::Histogram*, 6>{
        &scope.histogram("call_ns"),      &scope.histogram("async_ns"),
        &scope.histogram("barrier_ns"),   &scope.histogram("control_ns"),
        &scope.histogram("page_read_ns"), &scope.histogram("page_write_ns"),
    };
  }();
  return *hists[static_cast<std::size_t>(v)];
}

/// rpc.retry scope: client-side retry driver + server-side dedup cache.
struct RetryMetrics {
  telemetry::Counter& resends;            // retry attempts put on the wire
  telemetry::Counter& bad_frame_retries;  // retries triggered by kBadFrame
  telemetry::Counter& giveups;            // calls failed after all attempts
  telemetry::Counter& dedup_replays;      // cached responses replayed
  telemetry::Counter& dedup_inflight_drops;  // duplicates of running calls
};

RetryMetrics& retry_metrics() {
  static RetryMetrics m = [] {
    auto& s = telemetry::Metrics::scope_for("rpc.retry");
    return RetryMetrics{s.counter("resends"), s.counter("bad_frame_retries"),
                        s.counter("giveups"), s.counter("dedup_replays"),
                        s.counter("dedup_inflight_drops")};
  }();
  return m;
}

/// rpc.breaker scope: per-peer circuit breaker transitions and effects.
struct BreakerMetrics {
  telemetry::Counter& opened;
  telemetry::Counter& closed;
  telemetry::Counter& fast_fails;  // calls rejected without touching the net
  telemetry::Counter& probes;      // half-open probe admissions
};

BreakerMetrics& breaker_metrics() {
  static BreakerMetrics m = [] {
    auto& s = telemetry::Metrics::scope_for("rpc.breaker");
    return BreakerMetrics{s.counter("opened"), s.counter("closed"),
                          s.counter("fast_fails"), s.counter("probes")};
  }();
  return m;
}

/// rpc.dispatch scope: delivery routing requests onto object queues and
/// pool tasks (docs/DISPATCH.md).
struct DispatchMetrics {
  telemetry::Counter& routed;             // requests delivery routed
  telemetry::Counter& queue_full_rejects; // bounded object queues refusing
};

DispatchMetrics& dispatch_metrics() {
  static DispatchMetrics m = [] {
    auto& s = telemetry::Metrics::scope_for("rpc.dispatch");
    return DispatchMetrics{s.counter("routed"),
                           s.counter("queue_full_rejects")};
  }();
  return m;
}

/// Control verbs that only append to their target object's command queue.
bool queues_on_target(net::MethodId method) {
  static const net::MethodId kDestroy = net::method_id(kDestroyMethod);
  static const net::MethodId kPassivate = net::method_id(kPassivateMethod);
  return method == kDestroy || method == kPassivate;
}

/// Lock-free high-water update (queue depth statistics).
void note_depth(std::atomic<std::uint64_t>& hwm, std::size_t depth) {
  auto prev = hwm.load(std::memory_order_relaxed);
  while (depth > prev &&
         !hwm.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

thread_local Node* Node::tls_current_ = nullptr;

Node* Node::current() { return tls_current_; }

Node::Node(net::MachineId id, net::Fabric& fabric, Options opts)
    : id_(id),
      opts_(opts),
      fabric_(fabric),
      pool_(ElasticPool::Options{.min_threads = opts.dispatch.workers,
                                 .max_threads = opts.dispatch.max_workers}),
      default_policy_(opts.default_policy) {
  has_default_policy_.store(default_policy_.retryable(),
                            std::memory_order_relaxed);
}

bool Node::payload_intact(const net::Message& m) const {
  if (!opts_.checksums || m.header.payload_crc == 0) return true;
  return net::payload_checksum(m.payload) == m.header.payload_crc;
}

Node::~Node() { stop(); }

void Node::start() {
  OOPP_CHECK(!started_);
  started_ = true;
  fabric_.attach(id_, this);
  // oopp-lint: allow(raw-thread-primitive) — joined in stop_receiving().
  retry_thread_ = std::thread([this] { retry_loop(); });
}

void Node::stop() {
  stop_receiving();
  fail_pending();
  stop_pool();
}

void Node::stop_receiving() {
  // Once detach returns no transport thread is inside deliver() and none
  // enters it again, even while peers are still sending (their messages
  // are dropped), so destroying this node under fire is safe.
  if (started_) fabric_.detach(id_);
  {
    std::lock_guard lock(retry_mu_);
    retry_stop_ = true;
    retries_.clear();
  }
  retry_cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
}

void Node::fail_pending() {
  {
    // The retry driver must not resurrect calls we are about to abort.
    std::lock_guard lock(retry_mu_);
    retries_.clear();
  }
  std::unordered_map<net::SeqNum, PendingCall> doomed;
  {
    std::lock_guard lock(pending_mu_);
    aborting_ = true;
    doomed.swap(pending_);
  }
  for (auto& [seq, call] : doomed) {
    if (call.traced) {
      call.span.status = static_cast<std::uint8_t>(net::CallStatus::kAborted);
      call.span.end_ns = now_ns();
      span_sink_.record(call.span);
    }
    call.prom->set_exception(
        std::make_exception_ptr(CallAborted("node shutting down")));
  }
}

void Node::stop_pool() { pool_.shutdown(); }

void Node::wait_for_shutdown_request() {
  std::unique_lock lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Node::deliver(net::Message msg) {
  ContextGuard guard(this);
  if (!payload_intact(msg)) {
    if (msg.header.kind == net::MsgKind::kRequest) {
      // Answer without refuse's dedup bookkeeping: a corrupted duplicate
      // must not disturb the at-most-once record of the intact attempt
      // that may be executing right now.
      post_reply(net::make_response(
          msg.header, net::CallStatus::kBadFrame,
          serial::to_bytes(std::string("payload checksum mismatch on request")),
          opts_.checksums));
    } else {
      // Surface the corruption at the call site as BadFrame: this is an
      // in-place rewrite of an inbound frame, not construction of one.
      // oopp-lint: allow(raw-message-header)
      msg.header.status = net::CallStatus::kBadFrame;
      msg.payload = serial::to_bytes(
          std::string("payload checksum mismatch on response"));
      on_response(std::move(msg));
    }
    return;
  }
  // Responses complete on delivery — never queued behind servant work, so
  // a servant blocked on a nested call always gets its reply.
  if (msg.header.kind == net::MsgKind::kResponse)
    on_response(std::move(msg));
  else
    on_request(std::move(msg));
}

void Node::on_response(net::Message resp) {
  if (resp.header.attempt > 0) {
    // This answers a retryable call: retire its retry entry — unless it is
    // a corrupted-in-flight response and the policy says to treat that
    // like loss (the server's dedup cache replays the real result on the
    // next attempt without re-executing).
    bool swallow = false;
    {
      std::lock_guard lock(retry_mu_);
      auto it = retries_.find(resp.header.seq);
      if (it != retries_.end()) {
        RetryEntry& e = it->second;
        const auto now = steady_clock::now();
        if (resp.header.status == net::CallStatus::kBadFrame &&
            e.policy.retry_bad_frame &&
            e.attempts_sent < e.policy.max_attempts &&
            now < e.overall_deadline) {
          e.in_backoff = true;
          e.due = now + jittered_backoff(e.policy, e.attempts_sent);
          swallow = true;
        } else {
          retries_.erase(it);
        }
      }
    }
    if (swallow) {
      retry_metrics().bad_frame_retries.add(1);
      retry_cv_.notify_all();
      return;
    }
    record_peer_success(resp.header.src);
  }
  PendingCall call;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(resp.header.seq);
    if (it == pending_.end()) return;  // caller gave up (shutdown)
    call = std::move(it->second);
    pending_.erase(it);
  }
  if (call.traced) {
    call.span.status = static_cast<std::uint8_t>(resp.header.status);
    call.span.end_ns = now_ns();
    span_sink_.record(call.span);
    verb_histogram(call.verb)
        .record(static_cast<std::uint64_t>(call.span.end_ns -
                                           call.span.start_ns));
  }
  call.prom->set_value(std::move(resp));
}

void Node::on_request(net::Message req) {
  // Runs on the delivering thread, which hands over one link's messages in
  // send order, so a caller's requests are routed in its issue order.
  // Nothing here blocks or sends: servant work goes to object command
  // queues or pool tasks, replies made here leave through refuse().  So a
  // handler in a nested blocking call never stalls delivery of the
  // response it waits for, and the reactor never waits on a socket.
  dispatch_metrics().routed.add(1);
  if (dedup_intercept(req)) return;
  if (req.header.object == net::kNodeObject) {
    // destroy and passivate only append to the target's command queue:
    // routing them here keeps their place in that object's issue order
    // (paper §2 — the destructor runs after the commands issued before
    // it).  spawn and restore run user constructors, so they and the other
    // control verbs get a pool task.
    if (queues_on_target(req.header.method)) {
      handle_control(req);
      return;
    }
    // A refused submit is the teardown race: futures settle via
    // fail_pending.
    (void)pool_.try_submit([this, req = std::move(req)]() mutable {
      ContextGuard guard(this);
      handle_control(req);
    });
    return;
  }

  auto entry = objects_.find(req.header.object);
  if (!entry) {
    refuse(req, net::CallStatus::kObjectNotFound, {});
    return;
  }
  const MethodInfo* mi = entry->info->find_method(req.header.method);
  if (!mi) {
    refuse(req, net::CallStatus::kMethodNotFound,
           serial::to_bytes(std::string("unknown method id on class " +
                                        entry->info->name)));
    return;
  }

  if (mi->reentrant) {
    // One-sided operation: runs immediately on its own pool task, even if
    // the object is busy inside a queued method.
    if (!pool_.try_submit([this, entry, mi, req = std::move(req)]() mutable {
          ContextGuard guard(this);
          execute(entry, mi, req);
        })) {
      return;  // teardown race
    }
    return;
  }

  const bool accepted =
      enqueue_command(entry,
                      [this, entry, mi, req] { execute(entry, mi, req); },
                      /*bounded=*/true);
  if (!accepted) {
    // Backpressure: the object's queue sits at dispatch.queue_bound.
    // Refuse loudly (rpc::PeerUnavailable at the caller) instead of
    // growing memory without limit.
    refuse(req, net::CallStatus::kUnavailable,
           serial::to_bytes(std::string("object command queue full")));
  }
}

bool Node::enqueue_command(std::shared_ptr<ObjectTable::Entry> entry,
                           std::function<void()> cmd, bool bounded) {
  const std::size_t bound = opts_.dispatch.queue_bound;
  bool kick = false;
  std::size_t depth = 0;
  {
    std::lock_guard lock(entry->queue_mu);
    if (bounded && bound > 0 && entry->queue.size() >= bound) {
      dispatch_metrics().queue_full_rejects.add(1);
      return false;
    }
    entry->queue.push_back(std::move(cmd));
    depth = entry->queue.size();
    if (!entry->draining) {
      entry->draining = true;
      kick = true;
    }
  }
  note_depth(queue_depth_hwm_, depth);
  if (!kick) return true;
  const bool ok = pool_.try_submit([this, entry] {
    ContextGuard guard(this);
    // Drain the command queue FIFO — the paper's "process accepts commands"
    // loop.  One drain task exists per object at a time.
    for (;;) {
      std::function<void()> next;
      {
        std::lock_guard lock(entry->queue_mu);
        if (entry->queue.empty()) {
          entry->draining = false;
          return;
        }
        next = std::move(entry->queue.front());
        entry->queue.pop_front();
      }
      next();
    }
  });
  if (!ok) {
    // Pool already shut down (teardown race): leave the command dropped
    // and let fail_pending settle the caller's future.
    std::lock_guard lock(entry->queue_mu);
    entry->draining = false;
  }
  return true;
}

void Node::execute(const std::shared_ptr<ObjectTable::Entry>& entry,
                   const MethodInfo* mi, const net::Message& req) {
  if (entry->destroyed || !entry->servant) {
    respond_error(req, net::CallStatus::kObjectNotFound, {});
    return;
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  // Distributed lockcheck: while this handler runs, every checked lock it
  // acquires records a cross-node edge remote-held-class -> local-class,
  // tagged with the method and the calling peer (mi->name has program
  // lifetime — it lives in the class registry).  No-op when the request
  // carries no held set.
  util::lockcheck::RemoteHeldScope remote_held(
      req.header.held.ids.data(), req.header.held.count, req.header.src, id_,
      mi->name.c_str());

  CallTrace trace;
  if (trace_) {
    trace.caller = req.header.src;
    trace.object = req.header.object;
    trace.class_name = entry->info->name;
    trace.method = mi->name;
    trace.request_bytes = req.payload.size();
  }

  // Server span: the execution of this method, child of the client span
  // stamped in the request header.  Entering its ContextScope is what
  // makes the servant's own outbound calls (and LocalSpans) children of
  // this span — causality propagates without user code.
  const bool traced = telemetry::enabled() && req.header.trace_id != 0;
  telemetry::Span sspan{};
  std::optional<telemetry::ContextScope> span_ctx;
  if (traced) {
    sspan.trace_id = req.header.trace_id;
    sspan.parent_id = req.header.span_id;
    sspan.span_id = telemetry::next_id();
    sspan.node = id_;
    sspan.kind = telemetry::SpanKind::kServer;
    std::snprintf(sspan.name, sizeof(sspan.name), "%s.%s",
                  entry->info->name.c_str(), mi->name.c_str());
    sspan.start_ns = now_ns();
    span_ctx.emplace(
        telemetry::TraceContext{sspan.trace_id, sspan.span_id});
  }
  auto finish_span = [&](net::CallStatus status) {
    if (!traced) return;
    span_ctx.reset();
    sspan.status = static_cast<std::uint8_t>(status);
    sspan.end_ns = now_ns();
    span_sink_.record(sspan);
  };

  const std::int64_t t0 = trace_ ? now_ns() : 0;
  try {
    // Decode the payload's slices in place so serial::Bytes arguments (a
    // page to write) alias the inbound frame or the caller's allocation,
    // and respond through to_buffer so spliced Bytes results go back out
    // as slices.
    serial::IArchive ia(req.payload.segments());
    serial::OArchive oa;
    mi->fn(entry->servant->instance(), ia, oa);
    if (trace_) {
      trace.status = net::CallStatus::kOk;
      trace.response_bytes = oa.size();
      trace.duration_ns = now_ns() - t0;
      trace_(trace);
    }
    finish_span(net::CallStatus::kOk);
    respond_ok(req, net::to_buffer(oa));
  } catch (const serial::serial_error& e) {
    if (trace_) {
      trace.status = net::CallStatus::kBadFrame;
      trace.duration_ns = now_ns() - t0;
      trace_(trace);
    }
    finish_span(net::CallStatus::kBadFrame);
    respond_error(req, net::CallStatus::kBadFrame,
                  serial::to_bytes(std::string(e.what())));
  } catch (const std::exception& e) {
    remote_exceptions_.fetch_add(1, std::memory_order_relaxed);
    if (trace_) {
      trace.status = net::CallStatus::kRemoteException;
      trace.duration_ns = now_ns() - t0;
      trace_(trace);
    }
    finish_span(net::CallStatus::kRemoteException);
    serial::OArchive oa;
    oa(std::string(typeid(e).name()), std::string(e.what()));
    respond_error(req, net::CallStatus::kRemoteException, oa.take());
  }
}

NodeStats Node::stats() const {
  NodeStats s;
  s.objects_live = objects_.size();
  s.requests_served = requests_served_.load(std::memory_order_relaxed);
  s.control_requests = control_requests_.load(std::memory_order_relaxed);
  s.remote_exceptions = remote_exceptions_.load(std::memory_order_relaxed);
  s.objects_spawned = objects_spawned_.load(std::memory_order_relaxed);
  s.objects_destroyed = objects_destroyed_.load(std::memory_order_relaxed);
  s.pool_threads = pool_.thread_count();
  s.pool_tasks_run = pool_.tasks_run();
  s.queue_depth_hwm = queue_depth_hwm_.load(std::memory_order_relaxed);
  s.pool_busy = pool_.busy_count();
  return s;
}

void Node::handle_control(const net::Message& req) {
  static const net::MethodId kSpawn = net::method_id(kSpawnMethod);
  static const net::MethodId kDestroy = net::method_id(kDestroyMethod);
  static const net::MethodId kPassivate = net::method_id(kPassivateMethod);
  static const net::MethodId kRestore = net::method_id(kRestoreMethod);
  static const net::MethodId kStats = net::method_id(kStatsMethod);
  static const net::MethodId kShutdown = net::method_id(kShutdownMethod);

  control_requests_.fetch_add(1, std::memory_order_relaxed);

  // Control requests get a server span too (name "node.control"), so
  // spawn/destroy traffic shows up in traces as children of the caller.
  // The span closes when dispatch returns; work deferred through a
  // command queue (destroy, passivate) is covered by the caller's span.
  // Failures found here leave through refuse(): destroy and passivate are
  // handled on the routing path itself (on_request).
  const bool traced = telemetry::enabled() && req.header.trace_id != 0;
  std::optional<telemetry::ContextScope> span_ctx;
  telemetry::Span sspan{};
  if (traced) {
    sspan.trace_id = req.header.trace_id;
    sspan.parent_id = req.header.span_id;
    sspan.span_id = telemetry::next_id();
    sspan.node = id_;
    sspan.kind = telemetry::SpanKind::kServer;
    sspan.set_name("node.control");
    sspan.start_ns = now_ns();
    span_ctx.emplace(
        telemetry::TraceContext{sspan.trace_id, sspan.span_id});
  }
  struct SpanFinisher {
    Node* node;
    bool traced;
    telemetry::Span* span;
    net::CallStatus status = net::CallStatus::kOk;
    ~SpanFinisher() {
      if (!traced) return;
      span->status = static_cast<std::uint8_t>(status);
      span->end_ns = now_ns();
      node->span_sink_.record(*span);
    }
  } finisher{this, traced, &sspan};

  try {
    serial::IArchive ia(req.payload);

    if (req.header.method == kSpawn) {
      const auto class_name = ia.read<std::string>();
      const auto ctor_index = ia.read<std::uint32_t>();
      const ClassInfo* info = ClassRegistry::instance().find(class_name);
      if (!info) throw UnknownClass("unknown class '" + class_name + "'");
      OOPP_CHECK_MSG(ctor_index < info->ctors.size(),
                     "constructor index " << ctor_index << " out of range for "
                                          << class_name);
      auto servant = info->ctors[ctor_index].construct(ia);
      const auto id = objects_.insert(std::move(servant), info);
      objects_spawned_.fetch_add(1, std::memory_order_relaxed);
      respond_ok(req, serial::to_bytes(static_cast<std::uint64_t>(id)));
      return;
    }

    if (req.header.method == kDestroy) {
      const auto target = ia.read<std::uint64_t>();
      auto entry = objects_.find(target);
      if (!entry) {
        refuse(req, net::CallStatus::kObjectNotFound, {});
        return;
      }
      // Destruction goes through the command queue: all previously issued
      // commands complete first, then the process terminates (paper §2:
      // the destructor "causes termination of the remote process and
      // completion of the corresponding client-server communications").
      enqueue_command(
          entry,
          [this, entry, target, req] {
            entry->destroyed = true;
            entry->servant.reset();  // run the destructor now
            objects_.erase(target);
            objects_destroyed_.fetch_add(1, std::memory_order_relaxed);
            respond_ok(req, {});
          },
          /*bounded=*/false);
      return;
    }

    if (req.header.method == kPassivate) {
      const auto target = ia.read<std::uint64_t>();
      const bool destroy_after = ia.read<std::uint8_t>() != 0;
      auto entry = objects_.find(target);
      if (!entry) {
        refuse(req, net::CallStatus::kObjectNotFound, {});
        return;
      }
      if (!entry->info->persistent())
        throw Error("class " + entry->info->name +
                    " is not persistent (no save/restore binding)");
      enqueue_command(
          entry,
          [this, entry, target, destroy_after, req] {
            if (entry->destroyed || !entry->servant) {
              respond_error(req, net::CallStatus::kObjectNotFound, {});
              return;
            }
            try {
              serial::OArchive state;
              entry->info->save(entry->servant->instance(), state);
              serial::OArchive oa;
              oa(entry->info->name, state.bytes());
              if (destroy_after) {
                entry->destroyed = true;
                entry->servant.reset();
                objects_.erase(target);
              }
              respond_ok(req, oa.take());
            } catch (const std::exception& e) {
              serial::OArchive oa;
              oa(std::string(typeid(e).name()), std::string(e.what()));
              respond_error(req, net::CallStatus::kRemoteException, oa.take());
            }
          },
          /*bounded=*/false);
      return;
    }

    if (req.header.method == kRestore) {
      const auto class_name = ia.read<std::string>();
      const auto state = ia.read<std::vector<std::byte>>();
      const ClassInfo* info = ClassRegistry::instance().find(class_name);
      if (!info) throw UnknownClass("unknown class '" + class_name + "'");
      if (!info->persistent())
        throw Error("class " + class_name + " is not persistent");
      serial::IArchive sa(state);
      auto servant = info->restore(sa);
      const auto id = objects_.insert(std::move(servant), info);
      objects_spawned_.fetch_add(1, std::memory_order_relaxed);
      respond_ok(req, serial::to_bytes(static_cast<std::uint64_t>(id)));
      return;
    }

    if (req.header.method == kStats) {
      respond_ok(req, serial::to_bytes(stats()));
      return;
    }

    if (req.header.method == kShutdown) {
      respond_ok(req, {});
      {
        std::lock_guard lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return;
    }

    finisher.status = net::CallStatus::kMethodNotFound;
    refuse(req, net::CallStatus::kMethodNotFound,
           serial::to_bytes(std::string("unknown control method")));
  } catch (const serial::serial_error& e) {
    finisher.status = net::CallStatus::kBadFrame;
    refuse(req, net::CallStatus::kBadFrame,
           serial::to_bytes(std::string(e.what())));
  } catch (const Error& e) {
    // Framework errors (UnknownClass, non-persistent class, ...) travel
    // with their own status byte so the caller rethrows the exact type.
    finisher.status = e.code();
    serial::OArchive oa;
    oa(std::string(typeid(e).name()), std::string(e.what()));
    refuse(req, e.code(), oa.take());
  } catch (const std::exception& e) {
    finisher.status = net::CallStatus::kRemoteException;
    serial::OArchive oa;
    oa(std::string(typeid(e).name()), std::string(e.what()));
    refuse(req, net::CallStatus::kRemoteException, oa.take());
  }
}

net::Message Node::reply(const net::Message& req, net::CallStatus status,
                         net::Buffer payload) {
  net::Message resp = net::make_response(req.header, status,
                                         std::move(payload), opts_.checksums);
  dedup_store(req, resp);
  return resp;
}

void Node::respond_ok(const net::Message& req, net::Buffer payload) {
  fabric_.send(reply(req, net::CallStatus::kOk, std::move(payload)));
}

void Node::respond_error(const net::Message& req, net::CallStatus status,
                         net::Buffer payload) {
  fabric_.send(reply(req, status, std::move(payload)));
}

void Node::refuse(const net::Message& req, net::CallStatus status,
                  net::Buffer payload) {
  post_reply(reply(req, status, std::move(payload)));
}

void Node::post_reply(net::Message resp) {
  // A refused submit is the teardown race: the caller's future settles
  // via fail_pending, or its deadline.
  (void)pool_.try_submit(
      [this, resp = std::move(resp)]() mutable { fabric_.send(std::move(resp)); });
}

bool Node::dedup_intercept(const net::Message& req) {
  if (req.header.attempt == 0) return false;
  net::Message replay;
  {
    std::lock_guard lock(dedup_mu_);
    const DedupKey key{req.header.src, req.header.seq};
    auto it = dedup_.find(key);
    if (it == dedup_.end()) {
      // First sighting: record the execution as in flight, then dispatch.
      dedup_.emplace(key, DedupEntry{});
      dedup_fifo_.push_back(key);
      while (dedup_.size() > opts_.dedup_cache_entries &&
             !dedup_fifo_.empty()) {
        dedup_.erase(dedup_fifo_.front());
        dedup_fifo_.pop_front();
      }
      return false;
    }
    if (!it->second.completed) {
      // Duplicate of an attempt still executing: drop it.  The running
      // execution answers the caller when it finishes.
      retry_metrics().dedup_inflight_drops.add(1);
      return true;
    }
    replay = it->second.response;
  }
  retry_metrics().dedup_replays.add(1);
  post_reply(std::move(replay));
  return true;
}

void Node::dedup_store(const net::Message& req, const net::Message& response) {
  if (req.header.attempt == 0) return;
  std::lock_guard lock(dedup_mu_);
  const DedupKey key{req.header.src, req.header.seq};
  auto it = dedup_.find(key);
  if (response.header.status == net::CallStatus::kBadFrame) {
    // Never cache a corrupt-frame verdict: erase the marker so a retry
    // re-executes.  A corruption-induced BadFrame heals on retry; a
    // deterministic one just re-surfaces once attempts are exhausted.
    if (it != dedup_.end()) dedup_.erase(it);
    return;
  }
  if (it == dedup_.end()) return;  // evicted under cache pressure
  it->second.completed = true;
  it->second.response = response;
}

void Node::retry_loop() {
  struct Resend {
    net::SeqNum seq = 0;
    net::Message msg;
  };
  std::unique_lock lock(retry_mu_);
  for (;;) {
    if (retry_stop_) return;
    if (retries_.empty()) {
      // oopp-lint: allow(condvar-wait-no-predicate) the for(;;) re-checks
      retry_cv_.wait(lock);  // retry_stop_ and retries_ every iteration
      continue;
    }
    const auto now = steady_clock::now();
    time_point earliest = time_point::max();
    std::vector<Resend> resends;
    std::vector<net::SeqNum> giveups;
    std::vector<net::MachineId> lost_attempts;
    for (auto it = retries_.begin(); it != retries_.end();) {
      RetryEntry& e = it->second;
      if (e.due > now) {
        earliest = std::min(earliest, e.due);
        ++it;
        continue;
      }
      if (e.in_backoff) {
        // Backoff over: put the next attempt on the wire (outside the
        // lock, below).
        e.in_backoff = false;
        e.attempts_sent += 1;
        e.due = now + e.policy.attempt_timeout;
        resends.push_back(
            {it->first,
             net::make_request(id_, e.dst, it->first, e.object, e.method,
                               e.payload, opts_.checksums, e.trace_id,
                               e.span_id, e.attempts_sent, e.held)});
        earliest = std::min(earliest, e.due);
        ++it;
        continue;
      }
      // Attempt `attempts_sent` got no response within attempt_timeout.
      lost_attempts.push_back(e.dst);
      if (e.attempts_sent >= e.policy.max_attempts ||
          now >= e.overall_deadline) {
        giveups.push_back(it->first);
        it = retries_.erase(it);
        continue;
      }
      e.in_backoff = true;
      e.due = now + jittered_backoff(e.policy, e.attempts_sent);
      if (e.due >= e.overall_deadline) {
        // The backoff wait alone would blow the deadline; give up now.
        giveups.push_back(it->first);
        it = retries_.erase(it);
        continue;
      }
      earliest = std::min(earliest, e.due);
      ++it;
    }
    if (resends.empty() && giveups.empty() && lost_attempts.empty()) {
      // oopp-lint: allow(condvar-wait-no-predicate) timed scheduling sleep
      if (earliest != time_point::max()) retry_cv_.wait_until(lock, earliest);
      continue;
    }
    lock.unlock();
    for (auto& r : resends) {
      bool blocked = false;
      try {
        admit_call(r.msg.header.dst);
      } catch (const PeerUnavailable&) {
        blocked = true;
      }
      if (blocked) {
        {
          std::lock_guard g(retry_mu_);
          retries_.erase(r.seq);
        }
        fail_call(r.seq, net::CallStatus::kUnavailable,
                  std::make_exception_ptr(PeerUnavailable(
                      r.msg.header.dst, "circuit breaker opened mid-retry")));
        continue;
      }
      retry_metrics().resends.add(1);
      fabric_.send(std::move(r.msg));
    }
    for (auto peer : lost_attempts) record_peer_failure(peer);
    if (!giveups.empty()) {
      retry_metrics().giveups.add(giveups.size());
      for (auto seq : giveups)
        fail_call(seq, net::CallStatus::kTimeout,
                  std::make_exception_ptr(CallTimeout(
                      "remote call timed out (all retry attempts lost)")));
    }
    lock.lock();
  }
}

void Node::fail_call(net::SeqNum seq, net::CallStatus status,
                     std::exception_ptr ex) {
  PendingCall call;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // a response won the race
    call = std::move(it->second);
    pending_.erase(it);
  }
  if (call.traced) {
    call.span.status = static_cast<std::uint8_t>(status);
    call.span.end_ns = now_ns();
    span_sink_.record(call.span);
  }
  call.prom->set_exception(std::move(ex));
}

void Node::admit_call(net::MachineId dst) {
  if (opts_.breaker_threshold == 0 || dst == id_) return;
  auto& bm = breaker_metrics();
  const char* why = nullptr;
  {
    std::lock_guard lock(peers_mu_);
    auto it = peers_.find(dst);
    if (it == peers_.end()) return;  // never failed: closed by default
    Peer& p = it->second;
    switch (p.state) {
      case BreakerState::kClosed:
        return;
      case BreakerState::kOpen:
        if (steady_clock::now() >= p.open_until) {
          // Cooldown elapsed — this very call becomes the probe.
          p.state = BreakerState::kHalfOpen;
          p.probe_inflight = true;
          bm.probes.add(1);
          return;
        }
        why = "circuit breaker open";
        break;
      case BreakerState::kHalfOpen:
        if (!p.probe_inflight) {
          p.probe_inflight = true;
          bm.probes.add(1);
          return;
        }
        why = "circuit breaker half-open, probe already in flight";
        break;
    }
  }
  bm.fast_fails.add(1);
  throw PeerUnavailable(dst, why);
}

void Node::record_peer_failure(net::MachineId peer) {
  if (opts_.breaker_threshold == 0 || peer == id_) return;
  auto& bm = breaker_metrics();
  bool opened = false;
  {
    std::lock_guard lock(peers_mu_);
    Peer& p = peers_[peer];
    p.consecutive_failures += 1;
    const bool trip =
        p.state == BreakerState::kHalfOpen ||
        (p.state == BreakerState::kClosed &&
         p.consecutive_failures >= opts_.breaker_threshold);
    if (trip) {
      opened = true;
      p.state = BreakerState::kOpen;
      p.open_until = steady_clock::now() + opts_.breaker_cooldown;
      p.probe_inflight = false;
    }
  }
  if (opened) bm.opened.add(1);
}

void Node::record_peer_success(net::MachineId peer) {
  if (opts_.breaker_threshold == 0 || peer == id_) return;
  auto& bm = breaker_metrics();
  bool closed = false;
  {
    std::lock_guard lock(peers_mu_);
    auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    closed = it->second.state != BreakerState::kClosed;
    it->second = Peer{};
  }
  if (closed) bm.closed.add(1);
}

std::chrono::nanoseconds Node::jittered_backoff(const CallPolicy& p,
                                                std::uint32_t retry) {
  // Caller holds retry_mu_ (it guards retry_rng_).
  const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
      p.backoff_for(retry));
  const double j = std::clamp(p.jitter, 0.0, 1.0);
  const double factor = j == 0.0 ? 1.0 : retry_rng_.uniform(1.0 - j, 1.0 + j);
  return std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(base.count()) * factor));
}

void Node::set_default_policy(const CallPolicy& p) {
  {
    std::lock_guard lock(policy_mu_);
    default_policy_ = p;
  }
  has_default_policy_.store(p.retryable(), std::memory_order_release);
}

CallPolicy Node::default_policy() const {
  std::lock_guard lock(policy_mu_);
  return default_policy_;
}

PeerHealth Node::peer_health(net::MachineId peer) const {
  std::lock_guard lock(peers_mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return {};
  return {it->second.state, it->second.consecutive_failures};
}

std::future<net::Message> Node::async_raw(net::MachineId dst,
                                          net::ObjectId object,
                                          net::MethodId method,
                                          net::Buffer payload,
                                          telemetry::Verb verb,
                                          telemetry::TraceContext* issued,
                                          const CallPolicy* policy) {
  verb_counter(verb).add(1);

  // Distributed lockcheck piggyback: what the issuing thread holds right
  // now, captured before any of the node's own locks are taken below.
  // Free (count 0, zero wire bytes) unless OOPP_DIST_LOCK_CHECK is on.
  net::LockSet held;
  held.count = static_cast<std::uint8_t>(util::lockcheck::held_class_hashes(
      held.ids.data(), held.ids.size()));

  CallPolicy pol;
  if (policy != nullptr) {
    pol = *policy;
  } else if (has_default_policy_.load(std::memory_order_acquire)) {
    std::lock_guard lock(policy_mu_);
    pol = default_policy_;
  }
  admit_call(dst);  // throws rpc::PeerUnavailable when the breaker is open

  PendingCall call;
  call.prom = std::make_shared<std::promise<net::Message>>();
  call.verb = verb;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  if (telemetry::enabled()) {
    // Open the client span: child of whatever span this thread is inside,
    // or the root of a brand-new trace.  It completes in on_response (or
    // fail_pending), not here — the span covers the full round trip.
    const telemetry::TraceContext parent = telemetry::thread_context();
    trace_id = parent.active() ? parent.trace_id : telemetry::next_id();
    span_id = telemetry::next_id();
    call.traced = true;
    call.span.trace_id = trace_id;
    call.span.span_id = span_id;
    call.span.parent_id = parent.active() ? parent.span_id : 0;
    call.span.node = id_;
    call.span.kind = telemetry::SpanKind::kClient;
    std::snprintf(call.span.name, sizeof(call.span.name), "rpc.%s",
                  telemetry::verb_name(verb));
    call.span.start_ns = now_ns();
  }
  if (issued != nullptr) *issued = {trace_id, span_id};

  auto fut = call.prom->get_future();
  const net::SeqNum seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(pending_mu_);
    if (aborting_) throw CallAborted("node shutting down");
    pending_.emplace(seq, std::move(call));
  }
  const bool retryable = pol.retryable();
  if (retryable) {
    const auto now = steady_clock::now();
    RetryEntry e;
    e.dst = dst;
    e.object = object;
    e.method = method;
    e.payload = payload;  // shares the payload slices: no byte copy
    e.policy = pol;
    e.due = now + pol.attempt_timeout;
    if (pol.deadline.count() > 0) e.overall_deadline = now + pol.deadline;
    e.trace_id = trace_id;
    e.span_id = span_id;
    e.held = held;
    {
      std::lock_guard lock(retry_mu_);
      if (!retry_stop_) retries_.emplace(seq, std::move(e));
    }
    retry_cv_.notify_all();
  }
  fabric_.send(net::make_request(id_, dst, seq, object, method,
                                 std::move(payload), opts_.checksums, trace_id,
                                 span_id, retryable ? 1u : 0u, held));
  return fut;
}

net::Message Node::call_raw(net::MachineId dst, net::ObjectId object,
                            net::MethodId method, net::Buffer payload,
                            telemetry::Verb verb, const CallPolicy* policy) {
  note_blocking_remote_call("rpc::Node::call_raw");
  auto fut = async_raw(dst, object, method, std::move(payload), verb, nullptr,
                       policy);
  net::Message resp = [&] {
    BlockingWaitTimer timer;
    return fut.get();
  }();
  throw_on_error(resp);
  return resp;
}

void Node::throw_on_error(const net::Message& resp) {
  // Decodes the unified status byte back into the oopp::Error subclass the
  // server-side failure mapped onto (rpc/errors.hpp).
  switch (resp.header.status) {
    case net::CallStatus::kOk:
      return;
    case net::CallStatus::kRemoteException: {
      serial::IArchive ia(resp.payload);
      auto type = ia.read<std::string>();
      auto what = ia.read<std::string>();
      throw RemoteError(resp.header.src, std::move(type), std::move(what));
    }
    case net::CallStatus::kObjectNotFound:
      throw ObjectNotFound(resp.header.src, resp.header.object);
    case net::CallStatus::kMethodNotFound: {
      serial::IArchive ia(resp.payload);
      throw MethodNotFound(ia.read<std::string>());
    }
    case net::CallStatus::kBadFrame: {
      serial::IArchive ia(resp.payload);
      throw BadFrame(ia.read<std::string>());
    }
    case net::CallStatus::kAborted:
      throw CallAborted("call aborted on machine " +
                        std::to_string(resp.header.src));
    case net::CallStatus::kTimeout:
      throw CallTimeout("remote call timed out");
    case net::CallStatus::kUnavailable:
      throw PeerUnavailable(resp.header.src, "circuit breaker open");
    case net::CallStatus::kUnknownClass: {
      serial::IArchive ia(resp.payload);
      [[maybe_unused]] auto type = ia.read<std::string>();
      throw UnknownClass(ia.read<std::string>());
    }
    case net::CallStatus::kInternal: {
      serial::IArchive ia(resp.payload);
      [[maybe_unused]] auto type = ia.read<std::string>();
      throw Error(ia.read<std::string>(), net::CallStatus::kInternal);
    }
  }
  throw Error("unknown response status");
}

}  // namespace oopp::rpc
