// Cluster: the collection of machines a program runs across.
//
// Owns the fabric and one Node per machine.  The thread that constructs
// the Cluster becomes the driver, running "on machine 0" exactly like the
// code in the paper's examples; other threads can enter a machine context
// with use().
//
// The Cluster is also the persistence runtime of §5: persist() checkpoints
// a process under a symbolic address, passivate() additionally terminates
// the live process, and lookup() re-activates it (on its home machine or a
// machine of your choice).  The name service backing the symbolic address
// space is itself a remotable object living on machine 0.
#pragma once

#include <algorithm>
#include <filesystem>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/name_service.hpp"
#include "core/remote_data.hpp"
#include "core/remote_ptr.hpp"
#include "core/uri.hpp"
#include "net/cost_model.hpp"
#include "net/fabric.hpp"
#include "net/fabric_options.hpp"
#include "net/tcp_fabric.hpp"
#include "rpc/node.hpp"
#include "storage/replica_options.hpp"
#include "util/checked_mutex.hpp"

namespace oopp {

namespace kv {
class KvStore;
}

/// Aggregated cluster metrics (per-node counters + fabric traffic).
struct ClusterStats {
  std::vector<rpc::NodeStats> per_node;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] rpc::NodeStats totals() const {
    rpc::NodeStats t;
    for (const auto& n : per_node) {
      t.objects_live += n.objects_live;
      t.requests_served += n.requests_served;
      t.control_requests += n.control_requests;
      t.remote_exceptions += n.remote_exceptions;
      t.objects_spawned += n.objects_spawned;
      t.objects_destroyed += n.objects_destroyed;
      t.pool_threads += n.pool_threads;
      t.pool_tasks_run += n.pool_tasks_run;
      t.queue_depth_hwm = std::max(t.queue_depth_hwm, n.queue_depth_hwm);
      t.pool_busy += n.pool_busy;
    }
    return t;
  }
};

class Cluster {
 public:
  enum class FabricKind {
    kInProc,  // simulated interconnect with CostModel (default)
    kTcp,     // real loopback sockets
  };

  struct Options {
    std::size_t machines = 4;
    FabricKind fabric = FabricKind::kInProc;
    net::CostModel cost = net::CostModel::zero();
    rpc::Node::Options node{};
    /// The unified transport surface (net/fabric_options.hpp): batching
    /// and the connect deadline.  Applies to the TCP fabric (kTcp and
    /// mesh deployments); kInProc ignores it — it has no sockets.
    net::FabricOptions transport{};
    /// Directory for passivated process images.  Empty → a fresh temp
    /// directory owned (and removed) by this Cluster.
    std::filesystem::path state_dir{};
    /// Make the symbolic-address registry itself survive cluster
    /// shutdown: the name service is re-activated from
    /// state_dir/registry.img on startup (records from the previous
    /// incarnation become passive) and checkpointed there on shutdown.
    /// Requires an explicit state_dir.
    bool persistent_registry = false;
    /// The unified durability surface (storage/replica_options.hpp): how
    /// many replicas each persistent page device keeps, the write/read
    /// quorum sizes, and the primary-lease length.  `replicas > 1` also
    /// switches the symbolic-address registry itself from the single
    /// NameService process to a chain-replicated kv::KvStore, so
    /// `oopp://` records survive the death of any one machine.
    storage::ReplicaOptions replica{};
    /// Custom interconnect: when set, overrides `fabric`/`cost`.  Used to
    /// wrap the transport (e.g. net::FaultyFabric for fault injection).
    std::function<std::unique_ptr<net::Fabric>(std::size_t machines)>
        fabric_factory{};
    /// Multi-process deployment: when non-empty, this OS process hosts
    /// only `local_machine`; the other machine ids are separate processes
    /// (oopp_noded) reachable at these endpoints.  Overrides `machines`,
    /// `fabric` and `fabric_factory`.
    std::vector<net::Endpoint> mesh_endpoints{};
    net::MachineId local_machine = 0;
  };

  explicit Cluster(Options opts);
  explicit Cluster(std::size_t machines)
      : Cluster(Options{.machines = machines}) {}
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] rpc::Node& node(net::MachineId m);
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] ClusterStats stats() const;

  /// One JSON document with every telemetry scope's counters and
  /// latency-histogram percentiles (see docs/TELEMETRY.md for the schema).
  [[nodiscard]] std::string metrics_report() const;

  /// Write one trace dump per locally hosted node into `dir` as
  /// trace_node<N>.json; tools/oopp_trace.py merges them into a single
  /// causally ordered timeline.  Returns the number of files written.
  std::size_t dump_trace(const std::filesystem::path& dir) const;

  /// Write this process's lock-order graph (local edges + the cross-node
  /// edges recorded while serving RPCs under OOPP_DIST_LOCK_CHECK) into
  /// `dir` as lockgraph_node<local>.json; tools/oopp_graph.py merges the
  /// per-process dumps and reports distributed deadlock cycles.  One file
  /// per process — the lockcheck graph is process-wide, so a single-
  /// process multi-machine cluster dumps everything in one file.
  /// Returns the number of files written (1).
  std::size_t dump_lockgraph(const std::filesystem::path& dir) const;
  [[nodiscard]] const std::filesystem::path& state_dir() const {
    return state_dir_;
  }

  /// Enter machine m's context on the current thread (RAII).  The
  /// machine must be hosted by this process.
  [[nodiscard]] rpc::Node::ContextGuard use(net::MachineId m) {
    return rpc::Node::ContextGuard(&node(m));
  }

  /// The machine this process hosts (0 except in mesh deployments).
  [[nodiscard]] net::MachineId local_machine() const { return local_; }
  /// True if machine m is hosted by this OS process.
  [[nodiscard]] bool is_local(net::MachineId m) const {
    return m < nodes_.size() && nodes_[m] != nullptr;
  }

  /// Ask a peer process of a mesh deployment to shut down (its
  /// wait_for_shutdown_request() returns).
  void request_shutdown(net::MachineId m);

  /// The paper's `new(machine i) T(args...)`.
  template <class T, class... A>
  remote_ptr<T> make_remote(net::MachineId machine, A&&... args) {
    MaybeContext ctx(this);
    return oopp::make_remote<T>(machine, std::forward<A>(args)...);
  }

  /// The paper's `new(machine i) T[n]` for plain data.
  template <class T>
  remote_data<T> make_remote_array(net::MachineId machine, std::uint64_t n) {
    MaybeContext ctx(this);
    auto p = oopp::make_remote<RemoteVector<T>>(machine, n);
    return remote_data<T>(p, n);
  }

  template <class T>
  remote_data<T> make_remote_array(net::MachineId machine,
                                   std::vector<T> init) {
    MaybeContext ctx(this);
    const std::uint64_t n = init.size();
    auto p = oopp::make_remote<RemoteVector<T>>(machine, std::move(init));
    return remote_data<T>(p, n);
  }

  // -- persistent processes (§5) --------------------------------------------

  /// Checkpoint a live process under a symbolic address.  The process
  /// keeps running; the image on disk reflects its state at the point
  /// where its command queue was drained.  The Uri parameter validates at
  /// the boundary: malformed addresses throw InvalidUri before any
  /// registry state is touched.
  template <class T>
  void persist(const remote_ptr<T>& p, const Uri& uri) {
    MaybeContext ctx(this);
    checkpoint_impl(p.ref(), uri.str(), /*destroy_after=*/false,
                    rpc::class_def<T>::name());
  }

  /// Checkpoint and terminate: the process becomes passive — reachable
  /// only through its symbolic address until lookup()/activate()
  /// re-activates it.
  template <class T>
  void passivate(const remote_ptr<T>& p, const Uri& uri) {
    MaybeContext ctx(this);
    checkpoint_impl(p.ref(), uri.str(), /*destroy_after=*/true,
                    rpc::class_def<T>::name());
  }

  /// Resolve a symbolic address.  A live process is returned as-is; a
  /// passive one is re-activated from its image on `activate_on`
  /// (defaulting to its home machine).  Throws oopp::Error for unknown
  /// addresses and class mismatches.
  template <class T>
  remote_ptr<T> lookup(const Uri& uri,
                       std::optional<net::MachineId> activate_on = {}) {
    MaybeContext ctx(this);
    rpc::ensure_registered<T>();
    return remote_ptr<T>(
        lookup_impl(uri.str(), rpc::class_def<T>::name(), activate_on));
  }

  /// Re-activate a passive process on an explicit machine.  Same contract
  /// as lookup() with a target: a live process is returned where it runs,
  /// a passive one comes back to life on `on`.
  template <class T>
  remote_ptr<T> activate(const Uri& uri, net::MachineId on) {
    return lookup<T>(uri, on);
  }

  /// Move a persistent process to another machine: checkpoint, terminate,
  /// re-activate from the image on `target`.  Previously held remote
  /// pointers dangle; the returned pointer is the process's new identity.
  /// Registered symbolic addresses keep working (the record is updated
  /// when the process was registered).
  template <class T>
  remote_ptr<T> migrate(const remote_ptr<T>& p, net::MachineId target) {
    MaybeContext ctx(this);
    rpc::ensure_registered<T>();
    return remote_ptr<T>(
        migrate_impl(p.ref(), target, rpc::class_def<T>::name()));
  }

  /// Drop a symbolic address and its on-disk image.  Does not touch a live
  /// process.  Returns false if the address was unknown.
  bool forget(const Uri& uri);

  /// All registered symbolic addresses.
  std::vector<std::string> persisted_uris();

  /// The effective durability knobs this cluster was built with.
  [[nodiscard]] const storage::ReplicaOptions& replica_options() const {
    return replica_;
  }

  /// The chain-replicated store backing the symbolic-address registry, or
  /// nullptr when the legacy single-NameService backend is active
  /// (replica.replicas <= 1, single machine, or mesh deployment).  Admin
  /// surface — fault tests use it to kill and heal shard primaries.
  kv::KvStore* registry_store();

  /// Checkpoint the registry to state_dir/registry.img now (also done
  /// automatically on shutdown when Options::persistent_registry is set).
  void save_registry();

  /// Fresh checkpoint of every *live* registered process (their images
  /// catch up to current state), so a subsequent cluster restart with a
  /// persistent registry resumes everything from "now".  Returns the
  /// number of processes checkpointed.
  std::size_t checkpoint_all();

  // -- automatic passivation ("activating and de-activating processes as
  //    needed", §5) ---------------------------------------------------------

  /// Cap the number of *registered* processes live at once.  When an
  /// activation or persist would exceed the cap, the least-recently-used
  /// registered process is passivated automatically (checkpointed and
  /// terminated).  Direct remote pointers to an auto-passivated process
  /// dangle; under a cap, access registered processes through their
  /// symbolic addresses — lookup() re-activates transparently.
  /// 0 (default) = unlimited.
  void set_active_limit(std::size_t limit);

  /// Number of registered processes currently live.
  [[nodiscard]] std::size_t active_registered();

 private:
  struct MaybeContext {
    // Re-entering the current context is a no-op restore, so the guard
    // can be unconditional (and GCC's maybe-uninitialized analysis stays
    // happy, unlike with an optional<ContextGuard>).
    rpc::Node::ContextGuard guard;
    explicit MaybeContext(Cluster* c)
        : guard(rpc::Node::current() != nullptr ? rpc::Node::current()
                                                : &c->node(c->local_)) {}
  };

  // The registry backend is either the paper's single NameService process
  // (legacy) or a chain-replicated kv::KvStore (replica.replicas > 1).
  // reg_* are the only paths the rest of the Cluster uses; they hide the
  // choice and, in kv mode, heal-and-retry once after a shard death.
  struct RegistryBackend;
  RegistryBackend& registry();
  void reg_bind(const std::string& uri, const PersistRecord& rec);
  std::optional<PersistRecord> reg_resolve(const std::string& uri);
  bool reg_unbind(const std::string& uri);
  std::vector<std::string> reg_list();
  /// Probe every shard primary of the replicated registry; promote the
  /// backup of each dead one.  Counted as storage.replica/registry_failovers.
  void heal_registry();
  template <class F>
  auto registry_op(F&& f);  // defined in cluster.cpp (used only there)

  void checkpoint_impl(RemoteRef ref, const std::string& uri,
                       bool destroy_after, const std::string& expected_class);

  /// Passivate the live process behind a registered URI (no LRU upkeep).
  void passivate_registered(const std::string& uri);
  /// Mark a URI live in the LRU and enforce the active limit.
  void note_live(const std::string& uri);
  /// Drop a URI from the LRU (passivated, forgotten, or destroyed).
  void note_gone(const std::string& uri);
  RemoteRef lookup_impl(const std::string& uri,
                        const std::string& expected_class,
                        std::optional<net::MachineId> activate_on);
  RemoteRef migrate_impl(RemoteRef ref, net::MachineId target,
                         const std::string& expected_class);
  [[nodiscard]] std::filesystem::path image_path(const std::string& uri) const;

  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<rpc::Node>> nodes_;  // null = remote process
  net::MachineId local_ = 0;
  std::optional<rpc::Node::ContextGuard> driver_guard_;
  std::filesystem::path state_dir_;
  bool own_state_dir_ = false;
  bool persistent_registry_ = false;
  storage::ReplicaOptions replica_{};
  bool replicated_registry_ = false;

  // Creating the registry backend takes blocking remote calls, which must
  // not run under ns_mu_ (the lock checker enforces this): the first
  // caller flips ns_initializing_ and creates outside the lock while
  // later callers wait on ns_cv_.
  util::CheckedMutex ns_mu_{"core.Cluster.ns"};
  util::CondVar ns_cv_;
  bool ns_initializing_ = false;
  std::unique_ptr<RegistryBackend> registry_;

  // LRU of live registered processes (front = most recently used).
  util::CheckedMutex lru_mu_{"core.Cluster.lru"};
  std::size_t active_limit_ = 0;
  std::list<std::string> lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> lru_pos_;
};

}  // namespace oopp
