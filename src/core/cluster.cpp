#include "core/cluster.hpp"

#include <atomic>
#include <fstream>
#include <span>
#include <unistd.h>

#include "kv/kv_store.hpp"
#include "net/inproc_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "rpc/errors.hpp"
#include "telemetry/metrics.hpp"
#include "util/assert.hpp"
#include "util/checked_mutex.hpp"

namespace oopp {

namespace {

std::filesystem::path fresh_state_dir() {
  static std::atomic<unsigned> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-state-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir;
}

std::string sanitize_uri(const std::string& uri) {
  std::string out;
  out.reserve(uri.size());
  for (char c : uri) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    out.push_back(keep ? c : '_');
  }
  // Distinguish URIs that collide after sanitization.
  out += "-" + std::to_string(std::hash<std::string>()(uri));
  return out;
}

std::vector<std::byte> read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  OOPP_CHECK_MSG(in.good(), "cannot open state image " << p);
  std::vector<std::byte> bytes(std::filesystem::file_size(p));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  OOPP_CHECK_MSG(in.good(), "short read on state image " << p);
  return bytes;
}

void write_file(const std::filesystem::path& p,
                const std::vector<std::byte>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  OOPP_CHECK_MSG(out.good(), "cannot create state image " << p);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  OOPP_CHECK_MSG(out.good(), "short write on state image " << p);
}

// The replicated registry stores each PersistRecord as the archive bytes
// of the record, keyed by the URI string.
std::string encode_record(const PersistRecord& rec) {
  serial::OArchive oa;
  PersistRecord copy = rec;
  oa(copy);
  const auto bytes = oa.take();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

PersistRecord decode_record(const std::string& value) {
  serial::IArchive ia(
      std::as_bytes(std::span(value.data(), value.size())));
  PersistRecord rec;
  ia(rec);
  return rec;
}

}  // namespace

// The symbolic-address directory behind the reg_* helpers: either the
// paper's single NameService process (ns) or, when Options::replica asks
// for durability, a chain-replicated KvStore (kv) whose shard backups live
// one machine over — never both.
struct Cluster::RegistryBackend {
  remote_ptr<NameService> ns;
  std::optional<kv::KvStore> kv;
};

Cluster::Cluster(Options opts) {
  // lockcheck -> telemetry bridge.  util sits below telemetry in the
  // layering, so the checker reports through a hook; install it once per
  // process here, where both layers are visible.
  static const bool lockcheck_hook = [] {
    util::lockcheck::set_event_hook([](util::lockcheck::Event e) {
      static auto& scope = telemetry::Metrics::scope_for("lockcheck");
      static auto& cross_edges = scope.counter("cross_edges_recorded");
      static auto& hazards = scope.counter("hazards_flagged");
      (e == util::lockcheck::Event::kCrossEdgeRecorded ? cross_edges
                                                       : hazards)
          .add(1);
    });
    return true;
  }();
  (void)lockcheck_hook;

  if (!opts.mesh_endpoints.empty()) {
    // Multi-process deployment: this process hosts one machine of the
    // mesh; everything else is reached over real sockets.
    OOPP_CHECK_MSG(opts.local_machine < opts.mesh_endpoints.size(),
                   "local_machine outside the endpoint table");
    local_ = opts.local_machine;
    fabric_ = std::make_unique<net::TcpFabric>(opts.mesh_endpoints,
                                               opts.transport);
    nodes_.resize(opts.mesh_endpoints.size());
    nodes_[local_] =
        std::make_unique<rpc::Node>(local_, *fabric_, opts.node);
    nodes_[local_]->start();
  } else {
    OOPP_CHECK_MSG(opts.machines >= 1,
                   "a cluster needs at least one machine");
    if (opts.fabric_factory) {
      fabric_ = opts.fabric_factory(opts.machines);
      OOPP_CHECK_MSG(fabric_ != nullptr, "fabric_factory returned null");
    } else {
      switch (opts.fabric) {
        case FabricKind::kInProc:
          fabric_ =
              std::make_unique<net::InProcFabric>(opts.machines, opts.cost);
          break;
        case FabricKind::kTcp:
          fabric_ = std::make_unique<net::TcpFabric>(opts.machines,
                                                     opts.transport);
          break;
      }
    }
    nodes_.reserve(opts.machines);
    for (std::size_t m = 0; m < opts.machines; ++m) {
      nodes_.push_back(std::make_unique<rpc::Node>(
          static_cast<net::MachineId>(m), *fabric_, opts.node));
    }
    for (auto& n : nodes_) n->start();
  }

  if (opts.state_dir.empty()) {
    OOPP_CHECK_MSG(!opts.persistent_registry,
                   "persistent_registry requires an explicit state_dir");
    state_dir_ = fresh_state_dir();
    own_state_dir_ = true;
  } else {
    state_dir_ = opts.state_dir;
    std::filesystem::create_directories(state_dir_);
  }
  persistent_registry_ = opts.persistent_registry;
  replica_ = opts.replica;
  replica_.validate();
  // The replicated registry needs a second machine for the shard backups;
  // with one machine — or a mesh deployment, where peer processes come and
  // go — it falls back to the single NameService.
  replicated_registry_ = replica_.replicas > 1 && nodes_.size() > 1 &&
                         opts.mesh_endpoints.empty();

  // The constructing thread drives the computation from the local driver
  // machine, like the code in the paper's examples runs on machine 0.
  driver_guard_.emplace(nodes_[local_].get());
}

Cluster::~Cluster() {
  if (persistent_registry_ && registry_) {
    try {
      save_registry();
    } catch (...) {
      // Registry checkpointing is best-effort during teardown.
    }
  }
  driver_guard_.reset();

  // Staged shutdown across all machines: first stop accepting traffic,
  // then unblock every caller (a servant blocked on a nested remote call
  // can only finish once its pending future fails), then drain the pools.
  for (auto& n : nodes_)
    if (n) n->stop_receiving();
  for (auto& n : nodes_)
    if (n) n->fail_pending();
  for (auto& n : nodes_)
    if (n) n->stop_pool();
  fabric_->shutdown();

  if (own_state_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(state_dir_, ec);  // best-effort cleanup
  }
}

ClusterStats Cluster::stats() const {
  ClusterStats s;
  s.per_node.reserve(nodes_.size());
  // Remote machines of a mesh deployment report all-zero here; query them
  // with the kStatsMethod control call if needed.
  for (const auto& n : nodes_)
    s.per_node.push_back(n ? n->stats() : rpc::NodeStats{});
  s.messages_sent = fabric_->messages_sent();
  s.bytes_sent = fabric_->bytes_sent();
  return s;
}

std::string Cluster::metrics_report() const {
  return telemetry::Metrics::instance().json();
}

std::size_t Cluster::dump_trace(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (net::MachineId m = 0; m < nodes_.size(); ++m) {
    if (!nodes_[m]) continue;  // hosted by another process
    std::ofstream out(dir / ("trace_node" + std::to_string(m) + ".json"));
    out << nodes_[m]->span_sink().json(m) << '\n';
    if (out.good()) ++written;
  }
  return written;
}

std::size_t Cluster::dump_lockgraph(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir /
                    ("lockgraph_node" + std::to_string(local_) + ".json"));
  out << util::lockcheck::dump_graph_json(local_);
  return out.good() ? 1 : 0;
}

rpc::Node& Cluster::node(net::MachineId m) {
  OOPP_CHECK_MSG(m < nodes_.size(),
                 "machine " << m << " out of range (cluster has "
                            << nodes_.size() << ")");
  OOPP_CHECK_MSG(nodes_[m] != nullptr,
                 "machine " << m << " is hosted by another process");
  return *nodes_[m];
}

void Cluster::request_shutdown(net::MachineId m) {
  MaybeContext ctx(this);
  rpc::Node::current()->call_raw(m, net::kNodeObject,
                                 net::method_id(rpc::kShutdownMethod), {});
}

Cluster::RegistryBackend& Cluster::registry() {
  // Creation takes blocking remote calls, so it must not run under
  // ns_mu_: the first caller becomes the initializer and works unlocked;
  // concurrent callers wait on ns_cv_ for the published backend.
  std::unique_lock lock(ns_mu_);
  ns_cv_.wait(lock, [this] { return !ns_initializing_; });
  if (registry_) return *registry_;
  ns_initializing_ = true;
  lock.unlock();

  auto fresh = std::make_unique<RegistryBackend>();
  try {
    const auto registry_img = state_dir_ / "registry.img";
    const bool have_image =
        persistent_registry_ && std::filesystem::exists(registry_img);
    if (replicated_registry_) {
      const auto machines = nodes_.size();
      kv::KvStore::Config cfg;
      cfg.shards = static_cast<int>(std::min<std::size_t>(4, machines));
      cfg.replicate = true;
      // Primaries round-robin across machines, each backup one machine
      // over, so no single machine loss takes both copies of a shard.
      fresh->kv = kv::KvStore::create(
          cfg,
          [machines](int s) {
            return static_cast<net::MachineId>(
                static_cast<std::size_t>(s) % machines);
          },
          [machines](int s) {
            return static_cast<net::MachineId>(
                (static_cast<std::size_t>(s) + 1) % machines);
          });
      if (have_image) {
        // Records of a previous incarnation refer to processes that died
        // with it — mark them passive *before* they enter the store, so a
        // lookup can never claim a stale live object id (it re-activates
        // from the on-disk image instead).
        const auto state = read_file(registry_img);
        serial::IArchive ia(state);
        std::map<std::string, PersistRecord> records;
        ia(records);
        std::vector<std::pair<std::string, std::string>> pairs;
        pairs.reserve(records.size());
        for (auto& [uri, rec] : records) {
          rec.live_machine = -1;
          rec.object_id = 0;
          pairs.emplace_back(uri, encode_record(rec));
        }
        fresh->kv->multi_put(pairs);
      }
    } else if (have_image) {
      // Re-activate the registry of a previous cluster incarnation.  Its
      // live records refer to processes that died with that cluster, but
      // their checkpoints survive — mark them passive so lookup()
      // re-activates from the images.
      const auto state = read_file(registry_img);
      rpc::ensure_registered<NameService>();
      serial::OArchive req;
      req(rpc::class_def<NameService>::name(), state);
      net::Message resp = rpc::Node::current()->call_raw(
          0, net::kNodeObject, net::method_id(rpc::kRestoreMethod),
          req.take());
      serial::IArchive ia(resp.payload);
      fresh->ns = remote_ptr<NameService>(0, ia.read<std::uint64_t>());
      fresh->ns.call<&NameService::mark_all_passive>();
    } else {
      fresh->ns = oopp::make_remote<NameService>(0);
    }
  } catch (...) {
    {
      std::lock_guard relock(ns_mu_);
      ns_initializing_ = false;
    }
    ns_cv_.notify_all();
    throw;
  }

  lock.lock();
  registry_ = std::move(fresh);
  ns_initializing_ = false;
  lock.unlock();
  ns_cv_.notify_all();
  return *registry_;
}

// Heal-and-retry wrapper for replicated-registry calls: a shard primary
// dying mid-call surfaces as an oopp::Error; promote the backups of every
// dead primary, then retry exactly once (the retry's failure is final).
template <class F>
auto Cluster::registry_op(F&& f) {
  try {
    return f();
  } catch (const Error&) {
    heal_registry();
    return f();
  }
}

void Cluster::heal_registry() {
  auto& reg = registry();
  if (!reg.kv) return;
  static auto& failovers = telemetry::Metrics::scope_for("storage.replica")
                               .counter("registry_failovers");
  for (int s = 0; s < reg.kv->shards(); ++s) {
    try {
      (void)reg.kv->primary(s).call<&kv::KvShard::version>();
    } catch (const Error&) {
      if (!reg.kv->backup(s).valid()) continue;  // nothing left to promote
      reg.kv->promote_backup(s);
      failovers.add(1);
    }
  }
}

void Cluster::reg_bind(const std::string& uri, const PersistRecord& rec) {
  auto& reg = registry();
  if (reg.kv) {
    registry_op([&] { reg.kv->put(uri, encode_record(rec)); });
  } else {
    reg.ns.call<&NameService::bind>(uri, rec);
  }
}

std::optional<PersistRecord> Cluster::reg_resolve(const std::string& uri) {
  auto& reg = registry();
  if (reg.kv) {
    auto value = registry_op([&] { return reg.kv->get(uri); });
    if (!value) return std::nullopt;
    return decode_record(*value);
  }
  return reg.ns.call<&NameService::resolve>(uri);
}

bool Cluster::reg_unbind(const std::string& uri) {
  auto& reg = registry();
  if (reg.kv) return registry_op([&] { return reg.kv->erase(uri); });
  return reg.ns.call<&NameService::unbind>(uri);
}

std::vector<std::string> Cluster::reg_list() {
  auto& reg = registry();
  if (reg.kv) {
    auto pairs = registry_op([&] { return reg.kv->scan(""); });
    std::vector<std::string> uris;
    uris.reserve(pairs.size());
    for (auto& [uri, value] : pairs) uris.push_back(uri);
    return uris;
  }
  return reg.ns.call<&NameService::list>();
}

kv::KvStore* Cluster::registry_store() {
  MaybeContext ctx(this);
  auto& reg = registry();
  return reg.kv ? &*reg.kv : nullptr;
}

void Cluster::save_registry() {
  MaybeContext ctx(this);
  auto& reg = registry();
  if (reg.kv) {
    // Write the same archive format as the NameService image (a map of
    // URI to record), so either backend can restore the other's image.
    std::map<std::string, PersistRecord> records;
    for (auto& [uri, value] : registry_op([&] { return reg.kv->scan(""); }))
      records[uri] = decode_record(value);
    serial::OArchive oa;
    oa(records);
    write_file(state_dir_ / "registry.img", oa.take());
    return;
  }
  serial::OArchive req;
  req(static_cast<std::uint64_t>(reg.ns.id()), std::uint8_t{0});
  net::Message resp = rpc::Node::current()->call_raw(
      reg.ns.machine(), net::kNodeObject,
      net::method_id(rpc::kPassivateMethod), req.take());
  serial::IArchive ia(resp.payload);
  (void)ia.read<std::string>();  // class name
  write_file(state_dir_ / "registry.img", ia.read<std::vector<std::byte>>());
}

std::filesystem::path Cluster::image_path(const std::string& uri) const {
  return state_dir_ / (sanitize_uri(uri) + ".img");
}

void Cluster::checkpoint_impl(RemoteRef ref, const std::string& uri,
                              bool destroy_after,
                              const std::string& expected_class) {
  OOPP_CHECK_MSG(ref.valid(), "persist of null remote pointer");

  serial::OArchive req;
  req(static_cast<std::uint64_t>(ref.object),
      static_cast<std::uint8_t>(destroy_after ? 1 : 0));
  net::Message resp = rpc::Node::current()->call_raw(
      ref.machine, net::kNodeObject, net::method_id(rpc::kPassivateMethod),
      req.take());

  serial::IArchive ia(resp.payload);
  auto class_name = ia.read<std::string>();
  auto state = ia.read<std::vector<std::byte>>();
  if (class_name != expected_class)
    throw Error("persist type mismatch: object is a '" + class_name +
                         "', caller expected '" + expected_class + "'");

  const auto path = image_path(uri);
  write_file(path, state);

  PersistRecord rec;
  rec.class_name = class_name;
  rec.live_machine =
      destroy_after ? -1 : static_cast<std::int32_t>(ref.machine);
  rec.object_id = destroy_after ? 0 : ref.object;
  rec.home_machine = static_cast<std::int32_t>(ref.machine);
  rec.state_file = path.string();
  reg_bind(uri, rec);

  if (destroy_after)
    note_gone(uri);
  else
    note_live(uri);
}

RemoteRef Cluster::lookup_impl(const std::string& uri,
                               const std::string& expected_class,
                               std::optional<net::MachineId> activate_on) {
  auto rec = reg_resolve(uri);
  if (!rec)
    throw Error("unknown symbolic address '" + uri + "'");
  if (rec->class_name != expected_class)
    throw Error("lookup type mismatch at '" + uri + "': record is '" +
                         rec->class_name + "', caller expected '" +
                         expected_class + "'");

  if (rec->live_machine >= 0) {
    note_live(uri);
    return RemoteRef{static_cast<net::MachineId>(rec->live_machine),
                     rec->object_id};
  }

  // Passive: re-activate from the on-disk image.
  const auto target = activate_on.value_or(
      static_cast<net::MachineId>(rec->home_machine));
  OOPP_CHECK_MSG(target < nodes_.size(),
                 "activation target machine " << target << " out of range");
  const auto state = read_file(rec->state_file);

  serial::OArchive req;
  req(rec->class_name, state);
  net::Message resp = rpc::Node::current()->call_raw(
      target, net::kNodeObject, net::method_id(rpc::kRestoreMethod),
      req.take());
  serial::IArchive ia(resp.payload);
  const auto object = ia.read<std::uint64_t>();

  rec->live_machine = static_cast<std::int32_t>(target);
  rec->object_id = object;
  rec->home_machine = static_cast<std::int32_t>(target);
  reg_bind(uri, *rec);

  note_live(uri);
  return RemoteRef{target, object};
}

void Cluster::set_active_limit(std::size_t limit) {
  {
    std::lock_guard lock(lru_mu_);
    active_limit_ = limit;
  }
  // A lowered limit evicts immediately.
  MaybeContext ctx(this);
  note_live(std::string());
}

std::size_t Cluster::active_registered() {
  std::lock_guard lock(lru_mu_);
  return lru_.size();
}

void Cluster::note_live(const std::string& uri) {
  std::vector<std::string> victims;
  {
    std::lock_guard lock(lru_mu_);
    if (!uri.empty()) {
      auto it = lru_pos_.find(uri);
      if (it != lru_pos_.end()) lru_.erase(it->second);
      lru_.push_front(uri);
      lru_pos_[uri] = lru_.begin();
    }
    if (active_limit_ > 0) {
      while (lru_.size() > active_limit_) {
        victims.push_back(lru_.back());
        lru_pos_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  // De-activate the evicted processes outside the LRU lock ("the runtime
  // system is responsible for ... de-activating processes, as needed").
  for (const auto& victim : victims) passivate_registered(victim);
}

void Cluster::note_gone(const std::string& uri) {
  std::lock_guard lock(lru_mu_);
  auto it = lru_pos_.find(uri);
  if (it == lru_pos_.end()) return;
  lru_.erase(it->second);
  lru_pos_.erase(it);
}

void Cluster::passivate_registered(const std::string& uri) {
  auto rec = reg_resolve(uri);
  if (!rec || rec->live_machine < 0) return;  // raced with explicit passivate

  serial::OArchive req;
  req(static_cast<std::uint64_t>(rec->object_id), std::uint8_t{1});
  net::Message resp = rpc::Node::current()->call_raw(
      static_cast<net::MachineId>(rec->live_machine), net::kNodeObject,
      net::method_id(rpc::kPassivateMethod), req.take());
  serial::IArchive ia(resp.payload);
  (void)ia.read<std::string>();
  write_file(image_path(uri), ia.read<std::vector<std::byte>>());

  rec->home_machine = rec->live_machine;
  rec->live_machine = -1;
  rec->object_id = 0;
  rec->state_file = image_path(uri).string();
  reg_bind(uri, *rec);
}

RemoteRef Cluster::migrate_impl(RemoteRef ref, net::MachineId target,
                                const std::string& expected_class) {
  OOPP_CHECK_MSG(ref.valid(), "migrate of null remote pointer");
  OOPP_CHECK_MSG(target < nodes_.size(), "migration target out of range");
  auto* node = rpc::Node::current();

  // Checkpoint + terminate the source process (its queue drains first).
  serial::OArchive req;
  req(static_cast<std::uint64_t>(ref.object), std::uint8_t{1});
  net::Message resp =
      node->call_raw(ref.machine, net::kNodeObject,
                     net::method_id(rpc::kPassivateMethod), req.take());
  serial::IArchive ia(resp.payload);
  auto class_name = ia.read<std::string>();
  auto state = ia.read<std::vector<std::byte>>();
  if (class_name != expected_class)
    throw Error("migrate type mismatch: object is a '" + class_name +
                         "', caller expected '" + expected_class + "'");

  // Re-activate on the target machine.
  serial::OArchive restore;
  restore(class_name, state);
  net::Message born =
      node->call_raw(target, net::kNodeObject,
                     net::method_id(rpc::kRestoreMethod), restore.take());
  serial::IArchive ba(born.payload);
  const RemoteRef fresh{target, ba.read<std::uint64_t>()};

  // If the process was registered, point its record at the new identity.
  for (const auto& uri : reg_list()) {
    auto rec = reg_resolve(uri);
    if (rec && rec->live_machine == static_cast<std::int32_t>(ref.machine) &&
        rec->object_id == ref.object) {
      rec->live_machine = static_cast<std::int32_t>(target);
      rec->home_machine = static_cast<std::int32_t>(target);
      rec->object_id = fresh.object;
      reg_bind(uri, *rec);
    }
  }
  return fresh;
}

std::size_t Cluster::checkpoint_all() {
  MaybeContext ctx(this);
  std::size_t checkpointed = 0;
  for (const auto& uri : reg_list()) {
    auto rec = reg_resolve(uri);
    if (!rec || rec->live_machine < 0) continue;

    serial::OArchive req;
    req(static_cast<std::uint64_t>(rec->object_id), std::uint8_t{0});
    net::Message resp = rpc::Node::current()->call_raw(
        static_cast<net::MachineId>(rec->live_machine), net::kNodeObject,
        net::method_id(rpc::kPassivateMethod), req.take());
    serial::IArchive ia(resp.payload);
    (void)ia.read<std::string>();
    write_file(image_path(uri), ia.read<std::vector<std::byte>>());
    rec->state_file = image_path(uri).string();
    reg_bind(uri, *rec);
    ++checkpointed;
  }
  return checkpointed;
}

bool Cluster::forget(const Uri& uri) {
  MaybeContext ctx(this);
  auto rec = reg_resolve(uri.str());
  if (!rec) return false;
  std::error_code ec;
  std::filesystem::remove(rec->state_file, ec);
  note_gone(uri.str());
  return reg_unbind(uri.str());
}

std::vector<std::string> Cluster::persisted_uris() {
  MaybeContext ctx(this);
  return reg_list();
}

}  // namespace oopp
