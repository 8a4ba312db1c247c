// E1 — remote method execution cost (paper §2).
//
// Claim: a remote method call is a well-defined client/server exchange;
// its cost = framework overhead + interconnect alpha-beta cost, growing
// linearly in the bytes moved.
//
// Measures a PageDevice::write + read round trip per page size on:
//   local      — the object called directly, no framework;
//   inproc/0   — simulated machines, zero-cost fabric (pure overhead);
//   inproc/hpc — simulated HPC fabric (2 us, 10 GB/s);
//   inproc/eth — simulated commodity cluster (25 us, 1.2 GB/s);
//   tcp        — real loopback sockets.
//
// `--smoke` runs a seconds-long variant for CI: one TCP cluster, a small
// page, tracing forced on, and it leaves BENCH_e1.json, e1_metrics.json
// and e1_trace/trace_node*.json behind as artifacts.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/oopp.hpp"
#include "storage/page_device.hpp"
#include "telemetry/telemetry.hpp"

using namespace oopp;
using bench::ScratchDir;

namespace {

storage::Page make_page(int size) {
  storage::Page p(static_cast<std::size_t>(size));
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(i);
  return p;
}

double time_local(const ScratchDir& dir, int page_size, int reps) {
  storage::PageDevice dev(dir.file("local" + std::to_string(page_size)), 4,
                          page_size);
  const auto page = make_page(page_size);
  return bench::median_seconds(reps, [&] {
    dev.write(page, 1);
    (void)dev.read(1);
  });
}

double time_cluster(Cluster& cluster, const ScratchDir& dir,
                    const std::string& tag, int page_size, int reps) {
  auto dev = cluster.make_remote<storage::PageDevice>(
      1, dir.file(tag + std::to_string(page_size)), 4, page_size);
  const auto page = make_page(page_size);
  // warm-up
  dev.call<&storage::PageDevice::write>(page, 1);
  const double s = bench::median_seconds(reps, [&] {
    dev.call<&storage::PageDevice::write>(page, 1);
    (void)dev.call<&storage::PageDevice::read>(1);
  });
  dev.destroy();
  return s;
}

// Small-call async burst over TCP loopback: per-call wall-clock of
// `calls` pipelined element gets, with per-peer batching off or on.
// This is the workload the batch frames exist for — a §4 split loop of
// tiny calls where the syscall per frame dominates.
double burst_per_call_ns(bool batching, int calls) {
  Cluster::Options opts;
  opts.machines = 2;
  opts.fabric = Cluster::FabricKind::kTcp;
  opts.transport.batch = {.enabled = batching};
  Cluster cluster(opts);

  auto data = cluster.make_remote_array<double>(1, 1024);
  for (std::uint64_t i = 0; i < 64; ++i)  // warm-up: links + dispatch
    (void)data.async_get(i).get_for(std::chrono::seconds(10));

  std::vector<Future<double>> futs;
  futs.reserve(static_cast<std::size_t>(calls));
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < calls; ++i)
    futs.push_back(data.async_get(static_cast<std::uint64_t>(i) % 1024));
  for (auto& f : futs) (void)f.get_for(std::chrono::seconds(30));
  const std::int64_t t1 = now_ns();
  data.destroy();
  return static_cast<double>(t1 - t0) / calls;
}

// CI smoke: a short traced run that leaves machine-readable artifacts,
// plus the batching off/on comparison CI gates on.
int run_smoke() {
  bench::headline("E1  remote method call cost (smoke)",
                  "short traced run; emits BENCH_e1.json + trace/metrics");
  telemetry::set_enabled(true);
  ScratchDir dir("e1s");

  int iters = 200;
  std::vector<std::int64_t> samples;
  {
    Cluster::Options tcp;
    tcp.machines = 2;
    tcp.fabric = Cluster::FabricKind::kTcp;
    Cluster cluster(tcp);

    auto dev = cluster.make_remote<storage::PageDevice>(1, dir.file("smoke"),
                                                        4, 4096);
    const auto page = make_page(4096);
    dev.call<&storage::PageDevice::write>(page, 1);  // warm-up

    samples = bench::timed_samples(iters, [&] {
      dev.call<&storage::PageDevice::write>(page, 1);
      (void)dev.call<&storage::PageDevice::read>(1);
    });

    dev.destroy();

    const auto traces = cluster.dump_trace("e1_trace");
    std::printf("  wrote %zu trace files under e1_trace/\n", traces);
    if (std::FILE* f = std::fopen("e1_metrics.json", "w")) {
      std::fprintf(f, "%s\n", cluster.metrics_report().c_str());
      std::fclose(f);
      bench::note("wrote e1_metrics.json");
    }
  }

  // Small-call burst, batching off vs on.  Tracing off so the numbers
  // measure the wire path, not span recording.  Best of 5 clusters per
  // setting: min is the usual estimator for the structural per-call cost
  // on a shared CI runner — scheduler noise only ever adds time.
  telemetry::set_enabled(false);
  const int calls = 8000;
  auto best_burst = [calls](bool batching) {
    double best = burst_per_call_ns(batching, calls);
    for (int r = 1; r < 5; ++r)
      best = std::min(best, burst_per_call_ns(batching, calls));
    return best;
  };
  const double off_ns = best_burst(false);
  const double on_ns = best_burst(true);
  const double speedup = off_ns / on_ns;
  bench::note("async small-call burst (%d calls, TCP loopback):", calls);
  bench::note("  batching off: %8.1f ns/call", off_ns);
  bench::note("  batching on : %8.1f ns/call  (%.2fx)", on_ns, speedup);

  bench::emit_json_fields(
      "e1", {{"iters", static_cast<double>(iters)},
             {"p50_ns", static_cast<double>(bench::percentile_ns(samples, 0.50))},
             {"p95_ns", static_cast<double>(bench::percentile_ns(samples, 0.95))},
             {"p99_ns", static_cast<double>(bench::percentile_ns(samples, 0.99))},
             {"burst_calls", static_cast<double>(calls)},
             {"unbatched_per_call_ns", off_ns},
             {"batched_per_call_ns", on_ns},
             {"batch_speedup", speedup}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  bench::headline("E1  remote method call cost (paper §2)",
                  "remote execution = overhead + alpha + bytes/beta; "
                  "sequential semantics preserved");

  ScratchDir dir("e1");

  Cluster::Options zero;
  zero.machines = 2;
  Cluster c_zero(zero);

  Cluster::Options hpc;
  hpc.machines = 2;
  hpc.cost = net::CostModel::hpc_fabric();

  Cluster::Options eth;
  eth.machines = 2;
  eth.cost = net::CostModel::commodity_cluster();

  Cluster::Options tcp;
  tcp.machines = 2;
  tcp.fabric = Cluster::FabricKind::kTcp;

  bench::describe_cost(hpc.cost);
  bench::describe_cost(eth.cost);

  // overhead = inproc/0 over local: what the framework adds to the raw
  // device round trip when the network is free.
  std::printf(
      "\n%10s | %12s %12s %12s %12s %12s %9s\n", "page", "local us",
      "inproc/0 us", "inproc/hpc", "inproc/eth", "tcp us", "overhead");
  std::printf("-----------+-----------------------------------------------"
              "---------------------------\n");

  for (int page_size : {256, 4096, 65536, 1 << 20, 4 << 20}) {
    const int reps = page_size >= (1 << 20) ? 9 : 31;
    const double local = time_local(dir, page_size, reps) * 1e6;
    const double in0 =
        time_cluster(c_zero, dir, "in0", page_size, reps) * 1e6;

    double inh, ine, intcp;
    {
      Cluster c(hpc);
      inh = time_cluster(c, dir, "inh", page_size, reps) * 1e6;
    }
    {
      Cluster c(eth);
      ine = time_cluster(c, dir, "ine", page_size, reps) * 1e6;
    }
    {
      Cluster c(tcp);
      intcp = time_cluster(c, dir, "tcp", page_size, reps) * 1e6;
    }

    std::printf("%9dB | %12.1f %12.1f %12.1f %12.1f %12.1f %8.2fx\n",
                page_size, local, in0, inh, ine, intcp, in0 / local);
  }

  // Machine-readable summary for CI: remote 4 KiB round trip on the
  // zero-cost fabric.
  {
    auto dev = c_zero.make_remote<storage::PageDevice>(1, dir.file("json"),
                                                       4, 4096);
    const auto page = make_page(4096);
    dev.call<&storage::PageDevice::write>(page, 1);  // warm-up
    const int iters = 300;
    const auto samples = bench::timed_samples(iters, [&] {
      dev.call<&storage::PageDevice::write>(page, 1);
      (void)dev.call<&storage::PageDevice::read>(1);
    });
    bench::emit_json("e1", iters, samples);
    dev.destroy();
  }

  std::printf("\nshape checks:\n");
  bench::note("small pages: cost ordering local < inproc/0 < hpc < eth "
              "follows the latency term");
  bench::note("large pages: every remote column grows linearly in bytes "
              "(device I/O + beta term); eth's slope is steepest");
  bench::note("in process the framework never copies the page bytes "
              "(spliced into the message, decoded as views), so overhead "
              "falls toward 1x as pages grow");
  bench::note("tcp pays real kernel/socket cost on top of overhead");
  return 0;
}
