// E11 — collective operations: flat fan-out vs binomial tree.
//
// Claim (paper conclusion): the objects-as-processes framework has the
// expressive power of the established models — here, MPI-style
// collectives built purely from remote method execution.
//
// With a finite NIC injection bandwidth (LogGP-style egress modeling), a
// flat broadcast from one machine injects N copies of the payload through
// one port (~N x bytes/G), while the binomial tree spreads injection over
// the members (~log2 N rounds).  The crossover in N and payload size is
// the classic result; reproducing it validates both the collectives and
// the egress model.
//
// Both forms run on one engine, coll::Communicator.  The flat forms are
// the master's split loop over the group (set_member_data to broadcast,
// member_data combined at the master to reduce); the tree forms are
// bcast_members and reduce_members, whose result lands in member 0.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "net/inproc_fabric.hpp"
#include "util/clock.hpp"

using namespace oopp;
namespace coll = oopp::coll;
using coll::Peer;

namespace {

const char* algo_name(coll::Algo a) {
  switch (a) {
    case coll::Algo::kTwoPass: return "two-pass";
    case coll::Algo::kRing: return "ring";
    case coll::Algo::kHalving: return "halving";
    default: return "auto";
  }
}

/// The flat reduce: every member's vector gathered to the master and
/// combined there.
std::vector<double> flat_reduce(const coll::Communicator& comm,
                                coll::ReduceKind kind) {
  const auto parts = comm.member_data();
  std::vector<double> acc = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i)
    for (std::size_t j = 0; j < acc.size(); ++j)
      acc[j] = coll::combine_one(kind, acc[j], parts[i][j]);
  return acc;
}

/// CI smoke: the single-pass allreduce (reduce-scatter + allgather) vs
/// the segmented two-pass tree at 64 KiB / 1 MiB / 8 MiB over 16 members
/// — plus the N=64 group-setup win (tree wiring vs wiring every member
/// from the master, an O(N^2)-byte loop).
///
/// The fixture is built over a free network; the E11 NIC model is dialed
/// in only for the measured sections (set_cost_model), with the port at
/// 100 B/us instead of the full bench's 10 B/us so the 8 MiB point fits
/// CI.  Both algorithms are bandwidth-bound there, so the ratio the gate
/// checks is unchanged — only the wall-clock scale shrinks.
int run_smoke() {
  bench::headline("E11 smoke: single-pass vs two-pass allreduce",
                  "reduce-scatter + allgather moves ~2B per NIC; the "
                  "two-pass tree moves ~2*log2(N)*B through the root");

  net::InProcFabric* fabric = nullptr;
  Cluster::Options opts;
  opts.machines = 32;
  opts.fabric_factory = [&](std::size_t m) {
    auto f = std::make_unique<net::InProcFabric>(m);  // free while wiring
    fabric = f.get();
    return f;
  };
  Cluster cluster(opts);

  const net::CostModel model{.latency_ns = 20'000,
                             .bytes_per_us = 5'000.0,
                             .per_message_ns = 200,
                             .egress_bytes_per_us = 100.0,
                             .egress_per_message_ns = 1'000,
                             .ingress_bytes_per_us = 100.0,
                             .ingress_per_message_ns = 1'000};
  bench::describe_cost(model);
  bench::note("NIC model: 100 B/us egress AND ingress (E11 model, 10x "
              "faster port so the smoke fits CI)");

  const int n = 16;  // one member per machine: every member owns a NIC
  std::vector<net::MachineId> machines;
  machines.reserve(n);
  for (int i = 0; i < n; ++i)
    machines.push_back(static_cast<net::MachineId>(i));
  auto comm =
      coll::Communicator::on_machines(machines, coll::CommunicatorOptions{model});

  std::vector<std::pair<std::string, double>> fields;
  std::printf("\nallreduce, %d members:\n%8s | %12s %12s | %8s\n", n,
              "payload", "two-pass ms", "single ms", "speedup");
  std::printf("---------+---------------------------+---------\n");

  struct Row {
    const char* tag;
    std::size_t len;  // doubles
    int reps;
  };
  for (const Row& row : {Row{"64k", 8'192, 3}, Row{"1m", 131'072, 3},
                         Row{"8m", 1'048'576, 1}}) {
    const std::vector<double> payload(row.len, 1.25);
    // Stage the member-resident vectors while the network is free.
    comm.set_member_data(
        std::vector<std::vector<double>>(static_cast<std::size_t>(n),
                                         payload));

    fabric->set_cost_model(model);
    // Segmented two-pass (reduce + bcast trees, pipelined segments).
    const double twopass_ms =
        bench::median_seconds(row.reps, [&] {
          (void)comm.allreduce_members(coll::ReduceKind::kSum,
                                       coll::Algo::kTwoPass);
        }) * 1e3;
    // Single-pass: reduce-scatter + allgather, algorithm chosen by the
    // cost hints (halving on 16 members).
    coll::Algo used = coll::Algo::kAuto;
    const double single_ms =
        bench::median_seconds(row.reps, [&] {
          used = comm.allreduce_members(coll::ReduceKind::kSum);
        }) * 1e3;
    fabric->set_cost_model(net::CostModel::zero());

    std::printf("%8s | %12.1f %12.1f | %7.2fx  (%s)\n", row.tag,
                twopass_ms, single_ms, twopass_ms / single_ms,
                algo_name(used));
    fields.emplace_back(std::string("twopass_") + row.tag + "_ms",
                        twopass_ms);
    fields.emplace_back(std::string("single_") + row.tag + "_ms", single_ms);
    fields.emplace_back(std::string("speedup_") + row.tag,
                        twopass_ms / single_ms);
  }
  // The gate point: 8 MiB under the *true* E11 NIC (10 B/us).  At the
  // smoke's 100 B/us port the modeled transfer shrinks to the same order
  // as the fixed serialize/sum/memcpy work, compressing the ratio; at
  // the real port both algorithms are bandwidth-dominated and the
  // ~2*log2(N)*B vs ~2B per-NIC byte counts show through.  Two runs
  // (one per algorithm), so the section stays CI-sized.
  {
    const std::size_t len = 1'048'576;  // 8 MiB of doubles
    const std::vector<double> payload(len, 1.25);
    comm.set_member_data(
        std::vector<std::vector<double>>(static_cast<std::size_t>(n),
                                         payload));
    net::CostModel true_model = model;
    true_model.egress_bytes_per_us = 10.0;
    true_model.ingress_bytes_per_us = 10.0;
    fabric->set_cost_model(true_model);
    Timer t2;
    (void)comm.allreduce_members(coll::ReduceKind::kSum,
                                 coll::Algo::kTwoPass);
    const double gate_twopass_ms = t2.millis();
    Timer t1;
    const coll::Algo used = comm.allreduce_members(coll::ReduceKind::kSum);
    const double gate_single_ms = t1.millis();
    fabric->set_cost_model(net::CostModel::zero());

    std::printf("\n8 MiB gate under the true 10 B/us port:\n"
                "  two-pass: %8.1f ms   single-pass: %8.1f ms   "
                "(%.2fx, %s)\n",
                gate_twopass_ms, gate_single_ms,
                gate_twopass_ms / gate_single_ms, algo_name(used));
    fields.emplace_back("gate8m_twopass_ms", gate_twopass_ms);
    fields.emplace_back("gate8m_single_ms", gate_single_ms);
    fields.emplace_back("gate8m_speedup",
                        gate_twopass_ms / gate_single_ms);
  }
  comm.destroy();

  // Group setup at N=64.  Flat: the master wires every member itself —
  // a span of 1 forwards nothing — so N serialized group copies (O(N^2)
  // bytes) leave through its egress port.  Tree: the master wires member
  // 0 once and the members fan the group out along the binomial tree.
  const int big = 64;
  ProcessGroup<Peer> flat_g, tree_g;
  for (int i = 0; i < big; ++i) {
    const auto m = static_cast<net::MachineId>(i % opts.machines);
    flat_g.push_back(make_remote<Peer>(m, i));
    tree_g.push_back(make_remote<Peer>(m, i));
  }
  const auto hints = coll::CostHints::from(model);
  const coll::Wiring flat_w{big, flat_g, hints};
  const coll::Wiring tree_w{big, tree_g, hints};
  fabric->set_cost_model(model);
  Timer tf;
  for (int i = 0; i < big; ++i)
    flat_g[static_cast<std::size_t>(i)].call<&Peer::wire>(
        std::int64_t{i}, std::int64_t{1}, flat_w);
  const double setup_flat_ms = tf.millis();
  Timer tt;
  tree_g[0].call<&Peer::wire>(std::int64_t{0}, std::int64_t{big}, tree_w);
  const double setup_tree_ms = tt.millis();
  fabric->set_cost_model(net::CostModel::zero());
  flat_g.destroy_all();
  tree_g.destroy_all();

  std::printf("\ngroup setup, N=%d over %zu machines:\n", big,
              opts.machines);
  std::printf("  flat wiring: %8.1f ms   tree wiring: %8.1f ms   "
              "(%.1fx)\n",
              setup_flat_ms, setup_tree_ms, setup_flat_ms / setup_tree_ms);
  fields.emplace_back("setup_flat_ms", setup_flat_ms);
  fields.emplace_back("setup_tree_ms", setup_tree_ms);
  fields.emplace_back("setup_speedup", setup_flat_ms / setup_tree_ms);

  bench::emit_json_fields("e11", fields);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  bench::headline("E11 collectives: flat vs binomial tree",
                  "finite-egress NIC: flat broadcast ~N x (bytes/G), tree "
                  "~log2(N) rounds");

  // NIC ports are the scarce resource: injection and drain at 10 MB/s so
  // the simulated occupancy dwarfs the single-core marshaling cost and
  // the classic LogGP shapes emerge cleanly.
  Cluster::Options opts;
  opts.machines = 32;
  opts.cost = net::CostModel{.latency_ns = 20'000,
                             .bytes_per_us = 5'000.0,
                             .per_message_ns = 200,
                             .egress_bytes_per_us = 10.0,
                             .egress_per_message_ns = 1'000,
                             .ingress_bytes_per_us = 10.0,
                             .ingress_per_message_ns = 1'000};
  Cluster cluster(opts);
  bench::describe_cost(opts.cost);
  bench::note("NIC model: 10 MB/s egress AND ingress, 1 us per message");

  const std::size_t kLen = 1024;  // 8 KiB payload → ~0.84 ms per NIC pass
  std::vector<double> payload(kLen, 1.25);
  std::printf("\npayload: %zu doubles (%.0f KiB)\n", kLen,
              kLen * sizeof(double) / 1024.0);

  auto group_of = [&](int n) {
    std::vector<net::MachineId> machines;
    for (int i = 0; i < n; ++i)
      machines.push_back(static_cast<net::MachineId>(i % cluster.size()));
    return coll::Communicator::on_machines(
        machines, coll::CommunicatorOptions{opts.cost});
  };
  const auto len = static_cast<std::int64_t>(kLen);

  std::printf("\nbroadcast:\n%4s | %12s %12s | %8s\n", "N", "flat ms",
              "tree ms", "ratio");
  std::printf("-----+---------------------------+---------\n");
  for (int n : {2, 4, 8, 16, 32}) {
    auto comm = group_of(n);
    const std::vector<std::vector<double>> copies(
        static_cast<std::size_t>(n), payload);
    // Flat: the master sends every member its copy.
    const double flat_ms = bench::median_seconds(3, [&] {
                             comm.set_member_data(copies);
                           }) * 1e3;
    // Tree: member 0 (holding the payload) forwards it down the tree.
    const double tree_ms = bench::median_seconds(3, [&] {
                             comm.bcast_members(len);
                           }) * 1e3;
    std::printf("%4d | %12.2f %12.2f | %7.2fx\n", n, flat_ms, tree_ms,
                flat_ms / tree_ms);
    comm.destroy();
  }

  std::printf("\nreduce (sum):\n%4s | %12s %12s | %8s\n", "N", "flat ms",
              "tree ms", "ratio");
  std::printf("-----+---------------------------+---------\n");
  for (int n : {2, 4, 8, 16, 32}) {
    auto comm = group_of(n);
    comm.set_member_data(std::vector<std::vector<double>>(
        static_cast<std::size_t>(n), payload));
    // Flat: every member's vector travels to the master, which combines.
    const double flat_ms = bench::median_seconds(3, [&] {
                             (void)flat_reduce(comm, coll::ReduceKind::kSum);
                           }) * 1e3;
    // Tree: partials combine member-to-member; the sum lands in member 0.
    const double tree_ms = bench::median_seconds(3, [&] {
                             comm.reduce_members(coll::ReduceKind::kSum, len);
                           }) * 1e3;
    std::printf("%4d | %12.2f %12.2f | %7.2fx\n", n, flat_ms, tree_ms,
                flat_ms / tree_ms);
    comm.destroy();
  }

  std::printf("\nshape checks:\n");
  bench::note("flat grows ~linearly in N (the master's NIC carries N "
              "payload copies); tree grows ~log2(N)");
  bench::note("the tree is segmented under the cost hints, so a hop's "
              "egress overlaps the next hop's ingress: it can win from "
              "N=2, and the ratio widens with N");
  bench::note("reduce mirrors broadcast: flat concentrates N inbound "
              "payloads at the master's ingress port; the tree's sum "
              "stays in member 0");
  return 0;
}
