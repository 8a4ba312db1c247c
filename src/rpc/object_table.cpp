#include "rpc/object_table.hpp"

namespace oopp::rpc {

net::ObjectId ObjectTable::insert(std::unique_ptr<ServantBase> servant,
                                  const ClassInfo* info) {
  auto entry = std::make_shared<Entry>();
  entry->servant = std::move(servant);
  entry->info = info;
  const net::ObjectId id = next_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shards_[shard_of(id)];
  std::lock_guard lock(shard.mu);
  shard.map.emplace(id, std::move(entry));
  return id;
}

std::shared_ptr<ObjectTable::Entry> ObjectTable::find(
    net::ObjectId id) const {
  const Shard& shard = shards_[shard_of(id)];
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : it->second;
}

bool ObjectTable::erase(net::ObjectId id) {
  Shard& shard = shards_[shard_of(id)];
  std::lock_guard lock(shard.mu);
  return shard.map.erase(id) > 0;
}

std::size_t ObjectTable::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

std::vector<net::ObjectId> ObjectTable::ids() const {
  std::vector<net::ObjectId> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    out.reserve(out.size() + shard.map.size());
    for (const auto& [id, _] : shard.map) out.push_back(id);
  }
  return out;
}

}  // namespace oopp::rpc
