// Typed future over a raw response message.
//
// The paper's default semantics is synchronous (§2); futures are the
// runtime primitive behind §4's compiler transformation — a loop of remote
// calls becomes a loop of sends followed by a loop of receives.  async()
// on a remote pointer returns one of these; get() performs the "receive"
// half, decoding the result or re-raising the remote exception.
#pragma once

#include <chrono>
#include <future>
#include <type_traits>

#include "core/expected.hpp"
#include "net/message.hpp"
#include "rpc/binding.hpp"
#include "rpc/node.hpp"
#include "serial/archive.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace oopp {

template <class R>
class Future {
 public:
  Future() = default;
  explicit Future(std::future<net::Message> f) : f_(std::move(f)) {}
  /// `issued` is the client span the call opened (from Node::async_raw),
  /// so deadline expiry can be recorded against the right trace.
  Future(std::future<net::Message> f, telemetry::TraceContext issued)
      : f_(std::move(f)), issued_(issued) {}

  [[nodiscard]] bool valid() const { return f_.valid(); }
  void wait() {
    rpc::note_blocking_remote_call("Future::wait");
    rpc::BlockingWaitTimer timer;
    f_.wait();
  }

  /// Wait up to `timeout`; true if the response is ready.  A false return
  /// does not cancel anything — the remote method keeps executing and a
  /// later wait/get still works (the paper's semantics has no remote
  /// cancellation: only delete terminates a process).
  template <class Rep, class Period>
  [[nodiscard]] bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    rpc::note_blocking_remote_call("Future::wait_for");
    rpc::BlockingWaitTimer timer;
    return f_.wait_for(timeout) == std::future_status::ready;
  }

  /// get() with a deadline: throws CallTimeout if no response arrives in
  /// time.  The call itself is NOT cancelled.
  template <class Rep, class Period>
  R get_for(std::chrono::duration<Rep, Period> timeout) {
    if (!wait_for(timeout)) {
      record_timeout_span();
      throw rpc::CallTimeout("remote call did not complete within deadline");
    }
    return get();
  }

  /// Block for the response; decode the result.  Throws RemoteError /
  /// ObjectNotFound / ... exactly like the synchronous call would.
  R get() {
    rpc::note_blocking_remote_call("Future::get");
    net::Message resp = [&] {
      rpc::BlockingWaitTimer timer;  // times the wait, not the decode
      return f_.get();
    }();
    rpc::Node::throw_on_error(resp);
    if constexpr (std::is_void_v<R>) {
      return;
    } else {
      // Decode the response's slices in place: serial::Bytes results (a
      // page's bytes) arrive as views of the frame or, in process, of the
      // sender's own allocation — never as copies.
      serial::IArchive ia(resp.payload.segments());
      return ia.read<R>();
    }
  }

  /// get() with the failure contained instead of thrown: the building
  /// block of ProcessGroup's partial-failure operations.
  Expected<R> get_expected() {
    try {
      if constexpr (std::is_void_v<R>) {
        get();
        return Expected<void>{};
      } else {
        return Expected<R>(get());
      }
    } catch (const Error& e) {
      return Expected<R>(std::current_exception(), e.code());
    } catch (...) {
      return Expected<R>(std::current_exception(), net::CallStatus::kInternal);
    }
  }

 private:
  /// Deadline expiry is an event the response-side tracing never sees (the
  /// client span stays open until the response or abort), so record it as
  /// an instantaneous child of the issuing call's span.
  void record_timeout_span() {
    if (!telemetry::enabled() || !issued_.active()) return;
    telemetry::SpanSink* sink = telemetry::thread_sink();
    if (sink == nullptr) return;
    telemetry::Span s{};
    s.trace_id = issued_.trace_id;
    s.parent_id = issued_.span_id;
    s.span_id = telemetry::next_id();
    s.node = telemetry::thread_node();
    s.kind = telemetry::SpanKind::kClient;
    s.status = static_cast<std::uint8_t>(net::CallStatus::kTimeout);
    s.set_name("rpc.timeout");
    s.start_ns = s.end_ns = now_ns();
    sink->record(s);
  }

  std::future<net::Message> f_;
  telemetry::TraceContext issued_{};
};

}  // namespace oopp
