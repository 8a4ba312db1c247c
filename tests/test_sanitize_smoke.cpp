// Sanitizer smoke tests: short, hot concurrent workloads over the
// primitives where a data race or lifetime bug would hide — fabric
// delivery racing detach(), ElasticPool submit-during-shutdown, Watchdog
// construct/destroy under probing.  They assert functional properties
// (counts, exceptions) and exist chiefly so the TSan/ASan CI lanes have
// racy-by-construction traffic to inspect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/oopp.hpp"
#include "core/watchdog.hpp"
#include "net/inproc_fabric.hpp"
#include "util/thread_pool.hpp"

using namespace std::chrono_literals;
using oopp::net::Message;

namespace {

/// Counts deliveries, any that start after the test saw detach() return,
/// and whether each producer's messages arrive in its send order.
class CountingSink final : public oopp::net::Sink {
 public:
  void deliver(Message m) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (detached_) ++late_;
    ++delivered_;
    const auto producer = m.header.object;
    auto [it, fresh] = last_.emplace(producer, m.header.seq);
    if (!fresh) {
      if (m.header.seq <= it->second) ++reordered_;
      it->second = m.header.seq;
    }
  }
  void mark_detached() {
    std::lock_guard<std::mutex> lk(mu_);
    detached_ = true;
  }
  int delivered() const {
    std::lock_guard<std::mutex> lk(mu_);
    return delivered_;
  }
  int late() const {
    std::lock_guard<std::mutex> lk(mu_);
    return late_;
  }
  int reordered() const {
    std::lock_guard<std::mutex> lk(mu_);
    return reordered_;
  }

 private:
  mutable std::mutex mu_;
  bool detached_ = false;
  int delivered_ = 0;
  int late_ = 0;
  int reordered_ = 0;
  std::map<std::uint64_t, std::uint64_t> last_;  // producer -> last seq
};

// Producers hammer one machine while detach() lands mid-stream, over both
// delivery paths: the senders' own threads (free network) and the delay
// timer (a cost model; every 7th message is big, so the queue holds a
// backlog when detach() collapses it).  Nothing is delivered twice or
// after detach() returns, and each producer's messages stay in order.
TEST(SanitizeSmoke, ConcurrentSendDetach) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  const oopp::net::CostModel slow_link{.bytes_per_us = 1.0};
  for (const auto& cost : {oopp::net::CostModel::zero(), slow_link}) {
    CountingSink source, target;
    oopp::net::InProcFabric fabric(2, cost);
    fabric.attach(0, &source);
    fabric.attach(1, &target);

    std::vector<std::thread> threads;
    threads.reserve(kProducers + 1);
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          fabric.send(oopp::net::make_request(
              0, 1, static_cast<std::uint64_t>(i),
              /*object=*/static_cast<std::uint64_t>(p), /*method=*/0,
              std::vector<std::byte>(i % 7 == 0 ? 2000 : 8),
              /*checksum=*/false));
        }
      });
    }
    threads.emplace_back([&] {
      std::this_thread::sleep_for(5ms);
      fabric.detach(1);
      target.mark_detached();
    });
    for (auto& t : threads) t.join();
    fabric.shutdown();

    EXPECT_LE(target.delivered(), kProducers * kPerProducer);
    EXPECT_EQ(target.late(), 0);
    EXPECT_EQ(target.reordered(), 0);
  }
}

// Submitters race shutdown(): each submit either runs (the pool accepted
// it) or throws std::runtime_error (it was shut down) — never a hang, a
// lost task, or a crash.
TEST(SanitizeSmoke, PoolSubmitDuringShutdown) {
  for (int round = 0; round < 8; ++round) {
    oopp::ElasticPool pool(
        oopp::ElasticPool::Options{.min_threads = 2, .max_threads = 16});
    std::atomic<int> ran{0};
    std::atomic<int> rejected{0};

    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          try {
            pool.submit([&ran] { ran.fetch_add(1); });
          } catch (const std::runtime_error&) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    std::thread stopper([&] { pool.shutdown(); });
    for (auto& t : submitters) t.join();
    stopper.join();

    // Accepted tasks all ran (shutdown drains the queue).
    EXPECT_EQ(ran.load() + rejected.load(), 4 * 200);
    EXPECT_EQ(static_cast<std::uint64_t>(ran.load()), pool.tasks_run());
  }
}

// Construct/destroy watchdogs while their prober threads are mid-probe,
// with targets vanishing underneath them.
TEST(SanitizeSmoke, WatchdogStartStopRaces) {
  oopp::Cluster cluster(2);
  auto ctx = cluster.use(0);
  for (int round = 0; round < 10; ++round) {
    auto victim = cluster.make_remote<oopp::RemoteVector<double>>(
        1, std::uint64_t{8});
    {
      oopp::Watchdog dog(1 /*ms*/);
      dog.watch(victim.ref());
      std::this_thread::sleep_for(2ms);
      if (round % 2 == 0) victim.destroy();  // dies while being probed
      std::this_thread::sleep_for(2ms);
    }  // destructor races the in-flight probe
    if (round % 2 != 0) victim.destroy();
  }
}

}  // namespace
