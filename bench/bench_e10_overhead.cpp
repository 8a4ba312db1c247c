// E10 — ablation: where a remote method execution spends its time.
//
// DESIGN.md §5 calls out the runtime's design choices; this bench
// decomposes the cost of one call on the zero-cost fabric (so only the
// framework itself is measured):
//
//   serialize    — encode + decode of the argument payload, no network;
//   ping         — full round trip through the object's command queue,
//                  empty payload (dispatch + queue + transport);
//   reentrant    — same round trip bypassing the command queue
//                  (ablation of the actor/process semantics);
//   echo         — full round trip carrying a byte vector to the servant;
//   page         — the same with a storage::Page, whose bytes are spliced
//                  into the message and decoded as a view (no copies).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/oopp.hpp"
#include "storage/page.hpp"

using namespace oopp;

namespace {

class Probe {
 public:
  Probe() = default;
  void noop() {}
  void noop_fast() {}
  std::uint64_t echo(const std::vector<std::uint8_t>& bytes) {
    return bytes.size();
  }
  std::uint64_t take_page(const storage::Page& page) { return page.size(); }

 private:
};

}  // namespace

template <>
struct oopp::rpc::class_def<Probe> {
  static std::string name() { return "bench.Probe"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Probe::noop>("noop");
    b.template method<&Probe::noop_fast>("noop_fast", reentrant);
    b.template method<&Probe::echo>("echo");
    b.template method<&Probe::take_page>("take_page");
  }
};

int main() {
  bench::headline("E10 ablation: cost breakdown of a remote method call",
                  "serialization, transport/dispatch and the per-object "
                  "command queue each contribute; the queue costs little");

  Cluster cluster(2);  // zero-cost fabric: pure framework overhead
  auto probe = cluster.make_remote<Probe>(1);

  // Warm-up (registration, pool growth).
  for (int i = 0; i < 100; ++i) probe.call<&Probe::noop>();

  const int reps = 2001;
  const double ping_us = bench::median_seconds(5, [&] {
                           for (int i = 0; i < reps; ++i)
                             probe.call<&Probe::noop>();
                         }) /
                         reps * 1e6;
  const double fast_us = bench::median_seconds(5, [&] {
                           for (int i = 0; i < reps; ++i)
                             probe.call<&Probe::noop_fast>();
                         }) /
                         reps * 1e6;

  std::printf("\nempty-payload round trip: queued %.2f us, reentrant %.2f "
              "us (queue overhead %.2f us)\n",
              ping_us, fast_us, ping_us - fast_us);

  std::printf("\n%10s | %14s %14s %16s %14s\n", "payload", "serialize us",
              "echo us", "echo - ping us", "page us");
  std::printf("-----------+------------------------------------------------"
              "--------------\n");
  for (std::size_t size : {0u, 256u, 4096u, 65536u, 1048576u}) {
    std::vector<std::uint8_t> payload(size, 0x5a);
    const storage::Page page(size, payload.data());
    const int r = size >= 65536 ? 101 : 1001;

    const double ser_us =
        bench::median_seconds(5, [&] {
          for (int i = 0; i < r; ++i) {
            serial::OArchive oa;
            oa(payload);
            serial::IArchive ia(oa.bytes());
            auto back = ia.read<std::vector<std::uint8_t>>();
            (void)back;
          }
        }) /
        r * 1e6;

    const double echo_us = bench::median_seconds(5, [&] {
                             for (int i = 0; i < r; ++i)
                               (void)probe.call<&Probe::echo>(payload);
                           }) /
                           r * 1e6;

    const double page_us = bench::median_seconds(5, [&] {
                             for (int i = 0; i < r; ++i)
                               (void)probe.call<&Probe::take_page>(page);
                           }) /
                           r * 1e6;

    std::printf("%9zuB | %14.2f %14.2f %16.2f %14.2f\n", size, ser_us,
                echo_us, echo_us - ping_us, page_us);
  }

  std::printf("\nshape checks:\n");
  bench::note("queue overhead (queued - reentrant) is a small constant — "
              "process semantics is cheap");
  bench::note("serialize is ~2 memcpys of the payload and dominates echo "
              "growth; the remainder is dispatch + wakeups");
  bench::note("a page travels by reference, so the page column stays near "
              "the empty round trip at every size");
  return 0;
}
