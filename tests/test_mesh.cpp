// Multi-OS-process deployment test: the driver (this test) is machine 0;
// machines 1 and 2 are real separate processes running the oopp_noded
// daemon, reached over TCP.  Remote construction, method execution,
// process groups and cross-process passivation/activation must all work
// exactly as in the single-process fabrics.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/fft_worker.hpp"
#include "storage/page_device.hpp"
#include "util/prng.hpp"

#ifndef OOPP_NODED_PATH
#error "OOPP_NODED_PATH must be defined by the build"
#endif

using namespace oopp;

namespace {

std::uint16_t grab_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const auto port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

class MeshDeployment : public ::testing::Test {
 protected:
  static constexpr int kMachines = 3;  // 0 = driver, 1..2 = daemons

  void SetUp() override {
    endpoints_file_ = "/tmp/oopp-mesh-" + std::to_string(::getpid()) +
                      "-" + std::to_string(counter_++) + ".endpoints";
    std::ofstream out(endpoints_file_);
    for (int m = 0; m < kMachines; ++m) {
      ports_.push_back(grab_free_port());
      out << "127.0.0.1 " << ports_.back() << "\n";
    }
    out.close();

    for (int m = 1; m < kMachines; ++m) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        const std::string id = std::to_string(m);
        ::execl(OOPP_NODED_PATH, "oopp_noded", id.c_str(),
                endpoints_file_.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);  // exec failed
      }
      daemons_.push_back(pid);
    }

    Cluster::Options opts;
    opts.mesh_endpoints = net::load_endpoints(endpoints_file_);
    opts.local_machine = 0;
    cluster_ = std::make_unique<Cluster>(opts);
  }

  void TearDown() override {
    if (cluster_) {
      for (int m = 1; m < kMachines; ++m) cluster_->request_shutdown(m);
      cluster_.reset();
    }
    for (pid_t pid : daemons_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      EXPECT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    ::unlink(endpoints_file_.c_str());
  }

  static inline int counter_ = 0;
  std::string endpoints_file_;
  std::vector<std::uint16_t> ports_;
  std::vector<pid_t> daemons_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(MeshDeployment, RemoteObjectsAcrossOsProcesses) {
  EXPECT_EQ(cluster_->size(), 3u);
  EXPECT_TRUE(cluster_->is_local(0));
  EXPECT_FALSE(cluster_->is_local(1));

  // Remote data block in another OS process.
  auto data = cluster_->make_remote_array<double>(1, 256);
  data[7] = 3.1415;
  EXPECT_DOUBLE_EQ(data[7], 3.1415);
  std::vector<double> bulk(256, 2.0);
  data.assign(0, bulk);
  EXPECT_DOUBLE_EQ(data.sum(), 512.0);

  // Exceptions cross process boundaries.
  EXPECT_THROW(data[999] = 0.0, rpc::RemoteError);

  // Destruction terminates the object in the daemon.
  data.destroy();
}

TEST_F(MeshDeployment, StorageDeviceInDaemon) {
  const std::string file =
      "/tmp/oopp-mesh-dev-" + std::to_string(::getpid());
  auto dev = cluster_->make_remote<storage::PageDevice>(2, file, 4, 512);
  storage::Page page(512);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::uint8_t>(i * 7);
  dev.call<&storage::PageDevice::write>(page, 1);
  EXPECT_EQ(dev.call<&storage::PageDevice::read>(1), page);
  dev.destroy();
  ::unlink(file.c_str());
}

TEST_F(MeshDeployment, PassivateInOneProcessActivateInAnother) {
  auto v = cluster_->make_remote_array<double>(1, 16);
  v[3] = 42.5;
  cluster_->passivate(v.ptr(), "oopp://mesh/mover");
  auto revived =
      cluster_->lookup<RemoteVector<double>>("oopp://mesh/mover", 2);
  EXPECT_EQ(revived.machine(), 2u);
  EXPECT_DOUBLE_EQ(revived.call<&RemoteVector<double>::get>(3), 42.5);
  revived.destroy();
}

TEST_F(MeshDeployment, CollectivesSpanProcesses) {
  // A Communicator with members in both daemons: every algorithm's
  // segments travel member-to-member across real process boundaries.
  namespace coll = oopp::coll;
  auto comm = coll::Communicator::on_machines({1, 2, 1, 2});
  // Small integers, so every combination order gives the exact same sum;
  // each column's maximum sits in a different member.
  std::vector<std::vector<double>> data(4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j)
      data[static_cast<std::size_t>(i)].push_back((i * 7 + j * 3) % 11 - 5);
  const auto model = [&](coll::ReduceKind kind) {
    std::vector<double> acc = data[0];
    for (std::size_t i = 1; i < data.size(); ++i)
      for (std::size_t j = 0; j < acc.size(); ++j)
        acc[j] = coll::combine_one(kind, acc[j], data[i][j]);
    return acc;
  };

  for (const auto algo :
       {coll::Algo::kTwoPass, coll::Algo::kRing, coll::Algo::kHalving}) {
    comm.set_member_data(data);
    EXPECT_EQ(comm.allreduce_members(coll::ReduceKind::kSum, algo), algo);
    for (const auto& got : comm.member_data())
      EXPECT_EQ(got, model(coll::ReduceKind::kSum));
  }

  comm.set_member_data(data);
  comm.bcast_members(5);
  for (const auto& got : comm.member_data()) EXPECT_EQ(got, data[0]);

  comm.set_member_data(data);
  comm.reduce_members(coll::ReduceKind::kMax, 5);
  EXPECT_EQ(comm.member_data()[0], model(coll::ReduceKind::kMax));
  comm.destroy();
}

TEST_F(MeshDeployment, WatchdogProbesAcrossProcesses) {
  auto dog = cluster_->make_remote<Watchdog>(1, std::uint32_t{15});
  auto victim = cluster_->make_remote_array<double>(2, 8);
  dog.call<&Watchdog::watch>(victim.ptr().ref());
  // Count the target's own probes: Watchdog::rounds() also counts rounds
  // that ran before watch() registered it.
  const auto probes = [&] {
    const auto reports = dog.call<&Watchdog::status>();
    return reports.empty() ? std::uint64_t{0} : reports[0].probes;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (probes() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto reports = dog.call<&Watchdog::status>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, WatchState::kAlive);
  victim.destroy();
  const auto p0 = probes();
  while (probes() < p0 + 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.call<&Watchdog::status>()[0].state, WatchState::kDead);
  dog.destroy();
}

TEST_F(MeshDeployment, FftGroupSpansProcesses) {
  // Workers in two daemon processes compute a distributed transform; the
  // all-to-all transpose crosses real process boundaries.
  const Extents3 e{8, 8, 8};
  fft::DistributedFFT3D dfft(e, 2, [](int w) {
    return static_cast<net::MachineId>(1 + (w % 2));
  });
  Xoshiro256 rng(3);
  std::vector<fft::cplx> x(static_cast<std::size_t>(e.volume()));
  for (auto& c : x) c = fft::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto expect = x;
  fft::fft3d_inplace(expect, e, -1);

  dfft.scatter(x);
  dfft.forward();
  auto got = dfft.gather();
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    err = std::max(err, std::abs(got[i] - expect[i]));
  EXPECT_LT(err, 1e-9);
  dfft.shutdown();
}

}  // namespace
