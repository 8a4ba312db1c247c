// Test-only delivery sink: queues whatever a fabric delivers so a test can
// take the messages out in arrival order.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "net/sink.hpp"

class CollectSink final : public oopp::net::Sink {
 public:
  void deliver(oopp::net::Message m) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(m));
    }
    cv_.notify_all();
  }

  /// The oldest undelivered-to-the-test message, waiting up to `patience`
  /// for one; a timeout fails the test and returns an empty message.
  oopp::net::Message pop(
      std::chrono::milliseconds patience = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, patience, [&] { return !queue_.empty(); })) {
      ADD_FAILURE() << "no message delivered within " << patience.count()
                    << " ms";
      return {};
    }
    oopp::net::Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<oopp::net::Message> queue_;
};
