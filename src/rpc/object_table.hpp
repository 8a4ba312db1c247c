// Per-machine table of live servant objects.
//
// The paper equates one remote object with one server process that accepts
// commands sequentially.  Each table entry therefore carries a FIFO command
// queue: non-reentrant method invocations are appended and drained one at a
// time, which gives every object the paper's process semantics (including
// a well-defined point for the group barrier of §4), while different
// objects on the same machine execute concurrently.
//
// The table is sharded by object id (shard = id & (kShards - 1)) so
// lookups from the delivering threads and from servant code do not all
// serialize on one map mutex.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "rpc/class_info.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::rpc {

class ObjectTable {
 public:
  struct Entry {
    std::unique_ptr<ServantBase> servant;
    const ClassInfo* info = nullptr;

    // Command queue state (managed by Node).
    util::CheckedMutex queue_mu{"rpc.ObjectTable.Entry.queue"};
    std::deque<std::function<void()>> queue;
    bool draining = false;
    bool destroyed = false;
  };

  /// Register a servant; returns its fresh object id (ids are never
  /// reused, so a stale remote pointer can only miss, never alias).
  net::ObjectId insert(std::unique_ptr<ServantBase> servant,
                       const ClassInfo* info);

  /// Shared ownership so an in-flight call keeps the entry alive even if
  /// the object is concurrently destroyed.
  [[nodiscard]] std::shared_ptr<Entry> find(net::ObjectId id) const;

  /// Remove from the table.  Returns false if absent.
  bool erase(net::ObjectId id);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<net::ObjectId> ids() const;

 private:
  static constexpr std::size_t kShards = 8;  // a power of two: shard_of masks

  struct Shard {
    mutable util::CheckedMutex mu{"rpc.ObjectTable.shard"};
    std::unordered_map<net::ObjectId, std::shared_ptr<Entry>> map;
  };

  static std::size_t shard_of(net::ObjectId id) { return id & (kShards - 1); }

  std::array<Shard, kShards> shards_;
  std::atomic<net::ObjectId> next_{1};  // 0 is kNodeObject
};

}  // namespace oopp::rpc
