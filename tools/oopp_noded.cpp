// oopp_noded: a standalone machine of a multi-process OOPP cluster.
//
// Usage:   oopp_noded <machine-id> <endpoints-file>
//
// The endpoints file lists one "host port" pair per line; the line number
// is the machine id.  Every process of the cluster (the driver included)
// uses the same file.  This daemon binds its own line's port, serves
// remote object construction and method execution until some client sends
// the shutdown control request, then exits cleanly.
//
// The protocol a node can serve is whatever was compiled in: this binary
// registers every remotable class shipped with the library.  Deployments
// with their own classes link their registrations into their own node
// binary — exactly the "same registration code on both sides" contract
// that replaces the paper's compiler.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "array/array.hpp"
#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "fft/fft_worker.hpp"
#include "dsm/page_cache.hpp"
#include "kv/kv_store.hpp"
#include "storage/array_page_device.hpp"
#include "storage/page_device.hpp"

namespace {

void register_shipped_classes() {
  using namespace oopp;
  rpc::register_class<NameService>();
  rpc::register_class<Watchdog>();
  rpc::register_class<RemoteVector<double>>();
  rpc::register_class<RemoteVector<float>>();
  rpc::register_class<RemoteVector<int>>();
  rpc::register_class<storage::PageDevice>();
  rpc::register_class<storage::ArrayPageDevice>();
  rpc::register_class<array::Array>();
  rpc::register_class<fft::FFTWorker>();
  rpc::register_class<fft::GroupDirectory>();
  rpc::register_class<coll::Peer>();
  rpc::register_class<kv::KvShard>();
  rpc::register_class<dsm::CoherentDevice>();
  rpc::register_class<dsm::PageCache>();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <machine-id> <endpoints-file>\n",
                 argv[0]);
    return 2;
  }
  const auto machine =
      static_cast<oopp::net::MachineId>(std::strtoul(argv[1], nullptr, 10));
  const std::string endpoints_file = argv[2];

  try {
    register_shipped_classes();

    oopp::Cluster::Options opts;
    opts.mesh_endpoints = oopp::net::load_endpoints(endpoints_file);
    opts.local_machine = machine;
    oopp::Cluster cluster(opts);

    std::printf("oopp_noded: machine %u of %zu serving on port %u\n",
                machine, cluster.size(),
                opts.mesh_endpoints[machine].port);
    std::fflush(stdout);

    cluster.node(machine).wait_for_shutdown_request();
    std::printf("oopp_noded: machine %u shutting down\n", machine);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oopp_noded: fatal: %s\n", e.what());
    return 1;
  }
}
