// oobench — the repo benchmark's workload runner (see perfbench/README.md).
//
// One process runs one named workload against the runtime's public API:
//
//   call_small   3 client machines call echo objects on machine 0 over TCP
//   page_stream  2 clients stream page-aligned Array slices (256 MiB array)
//   ooc_fft      out-of-core 3-D FFT forward + inverse of a 64^3 field
//   cg_solve     Communicator CG on a dense SPD 2048^2 system
//
// Every workload is a closed loop: each client issues its next op only
// after the previous one returned.  Inputs come from --seed; every op's
// output is checked.  The last stdout line is one JSON record.
//
// --trace 0 reports end-to-end metrics from an untraced timed phase.
// --trace 1 runs an untraced half (counters, rusage) and a traced half
// (runtime telemetry on, benchmark spans recorded) and reports per-layer
// metrics; spans and the runtime's trace dump go under <workdir>/trace/.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "array/page_map.hpp"
#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/out_of_core.hpp"
#include "serial/archive.hpp"
#include "storage/array_page.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/clock.hpp"
#include "util/prng.hpp"

using namespace oopp;
namespace arr = oopp::array;
namespace fs = std::filesystem;

namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : v) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Distinct, reproducible generator per (seed, stream).
Xoshiro256 rng_for(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed * 0x9e3779b97f4a7c15ULL + stream;
  return Xoshiro256(splitmix64(sm));
}

}  // namespace

// The call_small servant: returns a checksum of its argument.
class Echo {
 public:
  std::uint64_t echo(std::vector<std::uint8_t> v) { return fnv1a(v); }
};

template <>
struct oopp::rpc::class_def<Echo> {
  static std::string name() { return "perfbench.Echo"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Echo::echo>("echo");
  }
};

namespace {

// ---------------------------------------------------------------------------
// Benchmark spans: one log per client thread, recorded only in the traced
// phase.  A span's self time is its duration minus its children's.
// ---------------------------------------------------------------------------

enum SpanName : std::uint8_t {
  kOp,
  kCoreCall,
  kCoreIssue,
  kCoreWait,
  kArrayIssue,
  kArrayAssemble,
  kArrayAck,
  kArrayFill,
  kFftForward,
  kFftInverse,
  kCollMatvec,
  kCollDot,
  kCollAxpy,
  kCollScale,
  kSpanNames,
};

constexpr const char* kSpanNameText[kSpanNames] = {
    "op",          "core.call",      "core.issue", "core.wait",
    "array.issue", "array.assemble", "array.ack",  "array.fill",
    "fft.forward", "fft.inverse",    "coll.matvec", "coll.dot",
    "coll.axpy",   "coll.scale"};

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  SpanName name = kOp;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 100'000;

  void enable() {
    on_ = true;
    records_.reserve(kCapacity);
  }
  [[nodiscard]] bool on() const { return on_; }

  /// Totals cover every span; records_ keeps the first kCapacity.
  std::int64_t total_ns[kSpanNames] = {};
  std::uint64_t count[kSpanNames] = {};
  std::vector<SpanRecord> records_;
  std::uint64_t dropped = 0;

 private:
  friend class Span;
  bool on_ = false;
  std::uint32_t next_id_ = 0;
  std::uint32_t current_ = 0;
};

class Span {
 public:
  Span(SpanLog& log, SpanName name) : log_(log.on() ? &log : nullptr) {
    if (log_ == nullptr) return;
    rec_.name = name;
    rec_.id = ++log_->next_id_;
    rec_.parent = log_->current_;
    log_->current_ = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (log_ == nullptr) return;
    rec_.end_ns = now_ns();
    log_->current_ = rec_.parent;
    log_->total_ns[rec_.name] += rec_.end_ns - rec_.start_ns;
    ++log_->count[rec_.name];
    if (log_->records_.size() < SpanLog::kCapacity)
      log_->records_.push_back(rec_);
    else
      ++log_->dropped;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  SpanRecord rec_{};
};

// ---------------------------------------------------------------------------
// Phases, samples and counters
// ---------------------------------------------------------------------------

/// What one timed phase asks of the clients: run until the deadline, or
/// (short mode) exactly `ops` ops each.
struct Phase {
  std::int64_t deadline_ns = 0;  // 0 = count-bounded
  std::int64_t ops = 0;
  std::vector<SpanLog>* logs = nullptr;
  bool inject_wrong = false;  // corrupt the first expected value

  [[nodiscard]] bool more(std::int64_t done) const {
    return deadline_ns != 0 ? now_ns() < deadline_ns : done < ops;
  }
};

/// Op results of one client (merged after the phase).
struct Samples {
  std::vector<std::int64_t> op_ns;
  std::vector<std::int64_t> end_ns;    // completion time of each op
  std::vector<std::int64_t> read_ns;   // page_stream reads
  std::vector<std::int64_t> write_ns;  // page_stream writes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;

  void add(std::int64_t latency_ns) {
    op_ns.push_back(latency_ns);
    end_ns.push_back(now_ns());
  }

  void merge(const Samples& o) {
    op_ns.insert(op_ns.end(), o.op_ns.begin(), o.op_ns.end());
    end_ns.insert(end_ns.end(), o.end_ns.begin(), o.end_ns.end());
    read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
    write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
    attempted += o.attempted;
    failed += o.failed;
    payload_bytes += o.payload_bytes;
  }
};

double percentile_us(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  return static_cast<double>(v[rank]) / 1e3;
}

/// The highest of p99, p90, p80 that leaves at least 10 of `n` samples
/// beyond it under percentile_us's rank; p50 when none does.
double tail_percentile(std::size_t n) {
  for (const double p : {0.99, 0.90, 0.80}) {
    const auto rank = static_cast<std::size_t>(p * static_cast<double>(n));
    if (rank + 1 + 10 <= n) return p;
  }
  return 0.50;
}

/// CPU time of all cores from /proc/stat, in clock ticks: the share
/// stolen by the hypervisor tells a run on a contended host apart.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  static CpuTicks read() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
    for (int i = 0; i < 8 && in; ++i) {
      std::uint64_t v = 0;
      in >> v;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }

  /// Stolen share of all cores' time since `t0`, in percent.
  [[nodiscard]] double steal_pct_since(const CpuTicks& t0) const {
    const double dt = static_cast<double>(total - t0.total);
    return dt > 0 ? 100.0 * static_cast<double>(steal - t0.steal) / dt : 0.0;
  }
};

std::uint64_t counter(const char* scope, const char* name) {
  return telemetry::Metrics::scope_for(scope).counter(name).value();
}

/// Always-on runtime counters plus process rusage, read around a phase.
struct Counters {
  std::uint64_t msgs = 0, bytes = 0;
  std::uint64_t reactor_frames = 0, reactor_wakeups = 0;
  std::uint64_t pool_tasks = 0, resends = 0;
  std::uint64_t batches = 0, batch_pages = 0;
  std::uint64_t coll_bytes = 0, coll_hops = 0, coll_reuse = 0;
  double cpu_s = 0.0;
  std::uint64_t minflt = 0;

  static Counters read(const Cluster& cluster) {
    Counters c;
    c.msgs = counter("net", "messages_sent");
    c.bytes = counter("net", "bytes_sent");
    c.reactor_frames = counter("net.reactor", "frames");
    c.reactor_wakeups = counter("net.reactor", "wakeups");
    c.pool_tasks = cluster.stats().totals().pool_tasks_run;
    c.resends = counter("rpc.retry", "resends");
    c.batches = counter("storage.batch_io", "batch_reads") +
                counter("storage.batch_io", "batch_writes");
    c.batch_pages = counter("storage.batch_io", "pages_read") +
                    counter("storage.batch_io", "pages_written");
    c.coll_bytes = counter("coll", "bytes_moved");
    c.coll_hops = counter("coll", "hops");
    c.coll_reuse = counter("coll", "matvec_reuse_hits");
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    c.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    return c;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Encode/decode cost of the archives on a workload's payload shape.
struct SerialCost {
  double encode_us_per_mib = 0.0;
  double decode_us_per_mib = 0.0;
};

template <class T>
SerialCost serial_cost(const std::vector<T>& payloads,
                       std::size_t target_bytes) {
  std::int64_t enc_ns = 0, dec_ns = 0;
  std::size_t bytes = 0;
  std::size_t sink = 0;
  while (bytes < target_bytes) {
    for (const T& p : payloads) {
      const std::int64_t t0 = now_ns();
      serial::OArchive oa;
      oa(p);
      std::vector<std::byte> wire = oa.take();
      const std::int64_t t1 = now_ns();
      serial::IArchive ia{std::span<const std::byte>(wire)};
      T back = ia.read<T>();
      const std::int64_t t2 = now_ns();
      enc_ns += t1 - t0;
      dec_ns += t2 - t1;
      bytes += wire.size();
      sink += back.size();
    }
  }
  if (sink == 0) throw std::runtime_error("serial round trip lost data");
  const double mib = static_cast<double>(bytes) / (1 << 20);
  return {static_cast<double>(enc_ns) / 1e3 / mib,
          static_cast<double>(dec_ns) / 1e3 / mib};
}

/// Per-layer values a workload contributes beyond the shared counters.
struct LayerExtras {
  double fft_compute_ms = 0.0;
  double fft_stall_read_ms = 0.0;
  double fft_stall_write_ms = 0.0;
  double fft_slabs = 0.0;
  double fft_elements_moved = 0.0;
  double coll_iters_per_op = 0.0;
  double array_pages_per_op = 0.0;
  SerialCost serial{};
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Cluster, objects, data load and warm-up; timed as setup_s.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  virtual Samples run(const Phase& phase) = 0;
  [[nodiscard]] virtual int clients() const = 0;
  /// Exact per-op counts and workload-specific layer costs, measured
  /// after the timed phases (the traced run only).
  virtual LayerExtras extras() = 0;
  [[nodiscard]] virtual Cluster& cluster() = 0;
};

/// One op, counted as attempted, and as failed when its output check
/// fails or it throws: a remote error fails the op, not the run.
template <class Op>
void attempt(Samples& s, Op&& op) {
  ++s.attempted;
  bool ok = false;
  try {
    ok = op();
  } catch (const std::exception& e) {
    if (s.failed == 0) std::fprintf(stderr, "oobench: op failed: %s\n", e.what());
  }
  if (!ok) ++s.failed;
}

/// Run `n` client loops on their own threads and merge their samples.
template <class Fn>
Samples run_clients(int n, Fn&& client) {
  std::vector<Samples> per(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::string err;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        client(c, per[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        std::lock_guard lock(err_mu);
        err = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!err.empty()) throw std::runtime_error("client failed: " + err);
  Samples all;
  for (const auto& s : per) all.merge(s);
  return all;
}

// -- call_small --------------------------------------------------------------

class CallSmall final : public Workload {
 public:
  static constexpr int kClients = 3;
  static constexpr int kBurst = 8;

  explicit CallSmall(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    Cluster::Options opts;
    opts.machines = kClients + 1;
    opts.fabric = Cluster::FabricKind::kTcp;
    cluster_ = std::make_unique<Cluster>(opts);
    objs_.clear();
    for (int c = 0; c < kClients; ++c)
      objs_.push_back(cluster_->make_remote<Echo>(0));
    rngs_.clear();
    for (int c = 0; c < kClients; ++c)
      rngs_.push_back(rng_for(seed_, 100 + static_cast<std::uint64_t>(c)));
    // Warm-up: links, dispatch paths and the pool reach steady state.
    Xoshiro256 warm = rng_for(seed_, 99);
    for (int c = 0; c < kClients; ++c) {
      auto guard = cluster_->use(static_cast<net::MachineId>(c + 1));
      for (int i = 0; i < 300; ++i) {
        const auto arg = draw_arg(warm);
        if (objs_[static_cast<std::size_t>(c)].call<&Echo::echo>(arg) !=
            fnv1a(arg))
          throw std::runtime_error("call_small warm-up echo mismatch");
      }
    }
  }

  void teardown() override {
    for (auto& o : objs_) o.destroy();
    objs_.clear();
    cluster_.reset();
  }

  Samples run(const Phase& ph) override {
    return run_clients(kClients, [&](int c, Samples& s) {
      auto guard = cluster_->use(static_cast<net::MachineId>(c + 1));
      auto& obj = objs_[static_cast<std::size_t>(c)];
      auto& rng = rngs_[static_cast<std::size_t>(c)];
      SpanLog& log = (*ph.logs)[static_cast<std::size_t>(c)];
      bool corrupt = ph.inject_wrong && c == 0;
      std::vector<std::vector<std::uint8_t>> args;
      std::vector<Future<std::uint64_t>> futs;
      std::vector<std::uint64_t> got;
      for (std::int64_t done = 0; ph.more(done); ++done) {
        const bool burst = rng.below(10) >= 7;
        args.clear();
        for (int i = 0; i < (burst ? kBurst : 1); ++i)
          args.push_back(draw_arg(rng));
        for (const auto& a : args) s.payload_bytes += a.size();
        attempt(s, [&] {
          got.clear();
          const std::int64_t t0 = now_ns();
          {
            Span op(log, kOp);
            if (!burst) {
              Span sp(log, kCoreCall);
              got.push_back(obj.call<&Echo::echo>(args[0]));
            } else {
              futs.clear();
              for (const auto& a : args) {
                Span sp(log, kCoreIssue);
                futs.push_back(obj.async<&Echo::echo>(a));
              }
              for (auto& f : futs) {
                Span sp(log, kCoreWait);
                got.push_back(f.get());
              }
            }
          }
          s.add(now_ns() - t0);
          bool ok = true;
          for (std::size_t i = 0; i < args.size(); ++i) {
            std::uint64_t want = fnv1a(args[i]);
            if (corrupt) {
              want ^= 1;
              corrupt = false;
            }
            ok = ok && got[i] == want;
          }
          return ok;
        });
      }
    });
  }

  [[nodiscard]] int clients() const override { return kClients; }

  LayerExtras extras() override {
    LayerExtras x;
    Xoshiro256 rng = rng_for(seed_, 7);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 4096; ++i) payloads.push_back(draw_arg(rng));
    x.serial = serial_cost(payloads, std::size_t{8} << 20);
    return x;
  }

  Cluster& cluster() override { return *cluster_; }

 private:
  /// An 8–256 B argument.
  static std::vector<std::uint8_t> draw_arg(Xoshiro256& rng) {
    std::vector<std::uint8_t> v(8 + rng.below(249));
    for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    return v;
  }

  std::uint64_t seed_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<remote_ptr<Echo>> objs_;
  std::vector<Xoshiro256> rngs_;
};

// -- page_stream -------------------------------------------------------------

class PageStream final : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kDevices = 4;
  static constexpr index_t kPageDoubles = 8192;  // 64 KiB pages
  static constexpr index_t kPages = 4096;        // 256 MiB array
  static constexpr index_t kMaxSlicePages = 64;  // 4 MiB slices
  static constexpr index_t kPagesPerClient = kPages / kClients;
  /// Ops per client over which array.pages_per_op is counted exactly.
  static constexpr std::int64_t kExactOps = 64;

  PageStream(std::uint64_t seed, fs::path scratch)
      : seed_(seed), scratch_(std::move(scratch)) {}

  void setup() override {
    cluster_ = std::make_unique<Cluster>(Cluster::Options{.machines = 4});
    const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (scratch_ / "stream").string();
    cfg.devices = kDevices;
    cfg.pages_per_device = static_cast<std::int32_t>(
        spec.pages_per_device(Extents3{kPages, 1, 1}, kDevices));
    cfg.n1 = static_cast<int>(kPageDoubles);
    storage_ = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster_->size());
    });
    array_ = std::make_unique<arr::Array>(kPages * kPageDoubles, 1, 1,
                                          kPageDoubles, 1, 1, storage_, spec);
    // Load version 0 everywhere, 4 MiB at a time.
    for (index_t p = 0; p < kPages; p += kMaxSlicePages)
      array_->write(fill(p, kMaxSlicePages, 0), domain(p, kMaxSlicePages));
    clients_.clear();
    versions_.assign(static_cast<std::size_t>(kPages), 0);
    next_version_.assign(kClients, 1);
    exact_pages_.assign(kClients, 0);
    done_.assign(kClients, 0);
    rngs_.clear();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(*array_);
      rngs_.push_back(rng_for(seed_, 200 + static_cast<std::uint64_t>(c)));
    }
    // Warm-up: a read of every slice size on each half.
    for (int c = 0; c < kClients; ++c) {
      const index_t base = c * kPagesPerClient;
      for (index_t k = 1; k <= kMaxSlicePages; k *= 2) {
        if (!check(array_->read(domain(base, k)), base, k))
          throw std::runtime_error("page_stream warm-up read mismatch");
      }
    }
    base_pages_.clear();
    for (const auto& a : clients_)
      base_pages_.push_back(a.pages_read() + a.pages_written());
  }

  void teardown() override {
    clients_.clear();
    array_.reset();
    arr::destroy_block_storage(storage_);
    cluster_.reset();
  }

  Samples run(const Phase& ph) override {
    return run_clients(kClients, [&](int c, Samples& s) {
      auto guard = cluster_->use(0);
      const auto uc = static_cast<std::size_t>(c);
      arr::Array& a = clients_[uc];
      auto& rng = rngs_[uc];
      SpanLog& log = (*ph.logs)[uc];
      bool corrupt = ph.inject_wrong && c == 0;
      const index_t base = c * kPagesPerClient;
      for (std::int64_t n = 0; ph.more(n); ++n) {
        const bool is_read = rng.below(2) == 0;
        const index_t k = index_t{1} << rng.below(7);  // 1..64 pages
        const index_t p0 =
            base + static_cast<index_t>(rng.below(
                       static_cast<std::uint64_t>(kPagesPerClient - k + 1)));
        const arr::Domain dom = domain(p0, k);
        s.payload_bytes +=
            static_cast<std::uint64_t>(k * kPageDoubles) * sizeof(double);
        attempt(s, [&] {
          if (is_read) {
            std::vector<double> got;
            const std::int64_t t0 = now_ns();
            {
              Span op(log, kOp);
              arr::SliceReadFuture f;
              {
                Span sp(log, kArrayIssue);
                f = a.async_read_slice(dom);
              }
              Span sp(log, kArrayAssemble);
              got = f.get();
            }
            const std::int64_t dt = now_ns() - t0;
            s.add(dt);
            s.read_ns.push_back(dt);
            if (corrupt) {
              got[0] += 1.0;
              corrupt = false;
            }
            return check(got, p0, k);
          }
          const std::uint32_t v = next_version_[uc]++;
          std::vector<double> data = fill(p0, k, v);
          const std::int64_t t0 = now_ns();
          {
            Span op(log, kOp);
            arr::SliceWriteFuture f;
            {
              Span sp(log, kArrayIssue);
              f = a.async_write_slice(std::move(data), dom);
            }
            Span sp(log, kArrayAck);
            f.get();
          }
          const std::int64_t dt = now_ns() - t0;
          s.add(dt);
          s.write_ns.push_back(dt);
          for (index_t p = p0; p < p0 + k; ++p)
            versions_[static_cast<std::size_t>(p)] = v;
          return true;
        });
        if (++done_[uc] == kExactOps)
          exact_pages_[uc] =
              a.pages_read() + a.pages_written() - base_pages_[uc];
      }
    });
  }

  [[nodiscard]] int clients() const override { return kClients; }

  LayerExtras extras() override {
    LayerExtras x;
    std::uint64_t pages = 0;
    std::int64_t ops = 0;
    for (int c = 0; c < kClients; ++c) {
      const auto uc = static_cast<std::size_t>(c);
      const bool reached = done_[uc] >= kExactOps;
      pages += reached ? exact_pages_[uc]
                       : clients_[uc].pages_read() +
                             clients_[uc].pages_written() - base_pages_[uc];
      ops += std::min(done_[uc], kExactOps);
    }
    x.array_pages_per_op =
        ratio(static_cast<double>(pages), static_cast<double>(ops));
    // Per-device messages: 1..16 pages of 64 KiB.
    std::vector<std::vector<storage::ArrayPage>> payloads;
    for (int k = 1; k <= 16; k *= 2) {
      std::vector<storage::ArrayPage> msg;
      const auto data = fill(0, k, 1);
      for (int i = 0; i < k; ++i)
        msg.emplace_back(static_cast<int>(kPageDoubles), 1, 1,
                         data.data() + i * kPageDoubles);
      payloads.push_back(std::move(msg));
    }
    x.serial = serial_cost(payloads, std::size_t{128} << 20);
    return x;
  }

  Cluster& cluster() override { return *cluster_; }

 private:
  static arr::Domain domain(index_t p0, index_t k) {
    return arr::Domain(p0 * kPageDoubles, (p0 + k) * kPageDoubles, 0, 1, 0,
                       1);
  }

  /// Element j of page p at version v: exact in a double (< 2^53).
  static double value(index_t p, index_t j, std::uint64_t v) {
    return static_cast<double>((v << 25) |
                               (static_cast<std::uint64_t>(p) << 13) |
                               static_cast<std::uint64_t>(j));
  }

  /// Pages [p0, p0+k) at version v.
  static std::vector<double> fill(index_t p0, index_t k, std::uint64_t v) {
    std::vector<double> out(static_cast<std::size_t>(k * kPageDoubles));
    for (index_t i = 0; i < k; ++i)
      for (index_t j = 0; j < kPageDoubles; ++j)
        out[static_cast<std::size_t>(i * kPageDoubles + j)] =
            value(p0 + i, j, v);
    return out;
  }

  /// Compare a read of [p0, p0+k) against the shadow versions.
  bool check(const std::vector<double>& got, index_t p0, index_t k) const {
    if (got.size() != static_cast<std::size_t>(k * kPageDoubles)) return false;
    for (index_t i = 0; i < k; ++i) {
      const std::uint64_t v = versions_[static_cast<std::size_t>(p0 + i)];
      for (index_t j = 0; j < kPageDoubles; ++j)
        if (got[static_cast<std::size_t>(i * kPageDoubles + j)] !=
            value(p0 + i, j, v))
          return false;
    }
    return true;
  }

  std::uint64_t seed_;
  fs::path scratch_;
  std::unique_ptr<Cluster> cluster_;
  arr::BlockStorage storage_;
  std::unique_ptr<arr::Array> array_;
  std::vector<arr::Array> clients_;  // one Array client per thread
  std::vector<Xoshiro256> rngs_;
  // Shadow: the version each page was last written at.  Clients own
  // disjoint halves, so each entry has one writer.
  std::vector<std::uint32_t> versions_;
  std::vector<std::uint32_t> next_version_;
  std::vector<std::uint64_t> base_pages_;
  std::vector<std::uint64_t> exact_pages_;
  std::vector<std::int64_t> done_;
};

// -- ooc_fft -----------------------------------------------------------------

class OocFft final : public Workload {
 public:
  static constexpr index_t kN = 64;
  static constexpr index_t kB = 8;  // 8^3 doubles = 4 KiB pages
  static constexpr int kDevices = 4;
  /// Three live slabs of 8 rows (512 KiB each): 8 slabs per pass.
  static constexpr std::size_t kBudget =
      std::size_t{3} * (std::size_t{512} << 10);

  OocFft(std::uint64_t seed, fs::path scratch)
      : seed_(seed), scratch_(std::move(scratch)) {}

  void setup() override {
    cluster_ = std::make_unique<Cluster>(Cluster::Options{.machines = 4});
    re_ = make_array("re");
    im_ = make_array("im");
    Xoshiro256 rng = rng_for(seed_, 300);
    const auto n = static_cast<std::size_t>(ext().volume());
    re0_.resize(n);
    im0_.resize(n);
    for (auto& x : re0_) x = rng.uniform(-1, 1);
    for (auto& x : im0_) x = rng.uniform(-1, 1);
    re_->write(re0_, whole());
    im_->write(im0_, whole());
    std::vector<SpanLog> logs(1);
    Phase warm{.ops = 1, .logs = &logs};
    if (run(warm).failed != 0)
      throw std::runtime_error("ooc_fft warm-up round trip mismatch");
    stats_ = {};
  }

  void teardown() override {
    for (auto* a : {re_.get(), im_.get()})
      arr::destroy_block_storage(const_cast<arr::BlockStorage&>(a->storage()));
    re_.reset();
    im_.reset();
    cluster_.reset();
  }

  Samples run(const Phase& ph) override {
    Samples s;
    SpanLog& log = (*ph.logs)[0];
    bool corrupt = ph.inject_wrong;
    const fft::OutOfCoreOptions opts{.max_bytes = kBudget, .pipeline = true};
    const double inv_n = 1.0 / static_cast<double>(ext().volume());
    for (std::int64_t n = 0; ph.more(n); ++n) {
      attempt(s, [&] {
        fft::OutOfCoreStats fwd, inv;
        const std::int64_t t0 = now_ns();
        {
          Span op(log, kOp);
          {
            Span sp(log, kFftForward);
            fwd = fft::fft3d_out_of_core(*re_, *im_, -1, opts);
          }
          Span sp(log, kFftInverse);
          inv = fft::fft3d_out_of_core(*re_, *im_, +1, opts);
        }
        s.add(now_ns() - t0);
        s.payload_bytes +=
            (fwd.elements_moved() + inv.elements_moved()) * sizeof(fft::cplx);
        stats_.ops += 1;
        stats_.slabs = fwd.pass1.slabs + fwd.pass2.slabs + inv.pass1.slabs +
                       inv.pass2.slabs;
        stats_.elements = fwd.elements_moved() + inv.elements_moved();
        stats_.stall_read_ns +=
            fwd.pass1.stall_read_ns + fwd.pass2.stall_read_ns +
            inv.pass1.stall_read_ns + inv.pass2.stall_read_ns;
        stats_.stall_write_ns +=
            fwd.pass1.stall_write_ns + fwd.pass2.stall_write_ns +
            inv.pass1.stall_write_ns + inv.pass2.stall_write_ns;
        // Normalize and compare against the input.
        re_->scale(inv_n, whole());
        im_->scale(inv_n, whole());
        const auto re = re_->read(whole());
        const auto im = im_->read(whole());
        double err = corrupt ? 1.0 : 0.0;
        corrupt = false;
        for (std::size_t i = 0; i < re.size(); ++i)
          err = std::max(err, std::abs(fft::cplx(re[i], im[i]) -
                                       fft::cplx(re0_[i], im0_[i])));
        return err <= 1e-9;
      });
    }
    return s;
  }

  [[nodiscard]] int clients() const override { return 1; }

  LayerExtras extras() override {
    LayerExtras x;
    const auto ops =
        static_cast<double>(std::max<std::uint64_t>(stats_.ops, 1));
    x.fft_slabs = static_cast<double>(stats_.slabs);
    x.fft_elements_moved = static_cast<double>(stats_.elements);
    x.fft_stall_read_ms =
        static_cast<double>(stats_.stall_read_ns) / 1e6 / ops;
    x.fft_stall_write_ms =
        static_cast<double>(stats_.stall_write_ns) / 1e6 / ops;
    // In-memory forward + inverse of the same field: the compute share.
    std::vector<fft::cplx> field(re0_.size());
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      for (std::size_t i = 0; i < field.size(); ++i)
        field[i] = fft::cplx(re0_[i], im0_[i]);
      const std::int64_t t0 = now_ns();
      fft::fft3d_inplace(field, ext(), -1);
      fft::fft3d_inplace(field, ext(), +1);
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    std::sort(ms.begin(), ms.end());
    x.fft_compute_ms = ms[ms.size() / 2];
    // Per-device slab messages: 32 pages of 4 KiB.
    std::vector<std::vector<storage::ArrayPage>> payloads(1);
    for (int i = 0; i < 32; ++i)
      payloads[0].emplace_back(static_cast<int>(kB), static_cast<int>(kB),
                               static_cast<int>(kB), re0_.data() + i * 512);
    x.serial = serial_cost(payloads, std::size_t{64} << 20);
    return x;
  }

  Cluster& cluster() override { return *cluster_; }

 private:
  static Extents3 ext() { return {kN, kN, kN}; }
  static arr::Domain whole() { return arr::Domain::whole(ext()); }

  std::unique_ptr<arr::Array> make_array(const std::string& tag) {
    const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};
    const Extents3 grid{kN / kB, kN / kB, kN / kB};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (scratch_ / ("fft-" + tag)).string();
    cfg.devices = kDevices;
    cfg.pages_per_device =
        static_cast<std::int32_t>(spec.pages_per_device(grid, kDevices));
    cfg.n1 = cfg.n2 = cfg.n3 = static_cast<int>(kB);
    cfg.device_options.service_us = 0;
    auto storage = arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster_->size());
    });
    return std::make_unique<arr::Array>(kN, kN, kN, kB, kB, kB, storage, spec);
  }

  struct Totals {
    std::uint64_t ops = 0;
    index_t slabs = 0;           // per op (identical every op)
    std::uint64_t elements = 0;  // per op (identical every op)
    std::uint64_t stall_read_ns = 0;
    std::uint64_t stall_write_ns = 0;
  };

  std::uint64_t seed_;
  fs::path scratch_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<arr::Array> re_, im_;
  std::vector<double> re0_, im0_;
  Totals stats_;
};

// -- cg_solve ----------------------------------------------------------------

class CgSolve final : public Workload {
 public:
  static constexpr index_t kN = 2048;
  static constexpr index_t kRows = kN / 16;  // 16 row-slab pages
  static constexpr int kDevices = 4;
  static constexpr double kTol = 1e-10;

  CgSolve(std::uint64_t seed, fs::path scratch)
      : seed_(seed), scratch_(std::move(scratch)) {}

  void setup() override {
    cluster_ = std::make_unique<Cluster>(Cluster::Options{.machines = 4});
    storages_.clear();
    A_ = make_blocked("A", kN);
    b_ = make_blocked("b", 1);
    x_ = make_blocked("x", 1);
    r_ = make_blocked("r", 1);
    p_ = make_blocked("p", 1);
    ap_ = make_blocked("ap", 1);
    // SPD: A = n*I + S, S symmetric uniform [0, 1) drawn per (min, max)
    // index pair, written one row slab at a time.
    std::vector<double> slab(static_cast<std::size_t>(kRows * kN));
    for (index_t r0 = 0; r0 < kN; r0 += kRows) {
      for (index_t i = r0; i < r0 + kRows; ++i)
        for (index_t j = 0; j < kN; ++j) {
          std::uint64_t key = seed_ * 0x9e3779b97f4a7c15ULL +
                              static_cast<std::uint64_t>(
                                  std::min(i, j) * kN + std::max(i, j));
          const double s =
              static_cast<double>(splitmix64(key) >> 11) * 0x1.0p-53;
          slab[static_cast<std::size_t>((i - r0) * kN + j)] =
              s + (i == j ? static_cast<double>(kN) : 0.0);
        }
      A_->write(slab, arr::Domain(r0, r0 + kRows, 0, kN, 0, 1));
    }
    comm_ = coll::Communicator::over(A_->storage());
    rng_ = rng_for(seed_, 401);
    // Warm-up solve: loads the resident matrix slabs and fixes the
    // reference iteration count every later solve must match.
    ref_iters_ = -1;
    Xoshiro256 warm = rng_for(seed_, 402);
    SpanLog quiet;
    if (!solve_checked(warm, quiet, false, nullptr))
      throw std::runtime_error("cg_solve warm-up solve failed its checks");
  }

  void teardown() override {
    comm_.destroy();
    A_.reset();
    b_.reset();
    x_.reset();
    r_.reset();
    p_.reset();
    ap_.reset();
    for (auto& s : storages_) arr::destroy_block_storage(s);
    storages_.clear();
    cluster_.reset();
  }

  Samples run(const Phase& ph) override {
    Samples s;
    bool corrupt = ph.inject_wrong;
    for (std::int64_t n = 0; ph.more(n); ++n)
      attempt(s, [&] {
        return solve_checked(rng_, (*ph.logs)[0], std::exchange(corrupt, false),
                             &s);
      });
    return s;
  }

  [[nodiscard]] int clients() const override { return 1; }

  LayerExtras extras() override {
    LayerExtras x;
    x.coll_iters_per_op = static_cast<double>(ref_iters_);
    // Ring-allgather slabs of x: 512 doubles per member.
    Xoshiro256 rng = rng_for(seed_, 403);
    std::vector<std::vector<double>> payloads(1, std::vector<double>(512));
    for (auto& v : payloads[0]) v = rng.uniform();
    x.serial = serial_cost(payloads, std::size_t{32} << 20);
    return x;
  }

  Cluster& cluster() override { return *cluster_; }

 private:
  std::unique_ptr<arr::Array> make_blocked(const std::string& tag,
                                           index_t cols) {
    const Extents3 grid{kN / kRows, 1, 1};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (scratch_ / ("cg-" + tag)).string();
    cfg.devices = kDevices;
    cfg.pages_per_device = static_cast<std::int32_t>(
        arr::PageMapSpec{arr::PageMapKind::kBlocked}.pages_per_device(
            grid, kDevices));
    cfg.n1 = static_cast<int>(kRows);
    cfg.n2 = static_cast<int>(cols);
    storages_.push_back(arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster_->size());
    }));
    return std::make_unique<arr::Array>(
        kN, cols, 1, kRows, cols, 1, storages_.back(),
        arr::PageMapSpec{arr::PageMapKind::kBlocked});
  }

  /// One solve from x = 0 for a fresh right-hand side, then its checks:
  /// true relative residual <= kTol and the reference iteration count.
  bool solve_checked(Xoshiro256& rng, SpanLog& log, bool corrupt,
                     Samples* s) {
    std::vector<double> rhs(static_cast<std::size_t>(kN));
    for (auto& v : rhs) v = rng.uniform(-1, 1);
    const arr::Domain whole(0, kN, 0, 1, 0, 1);
    b_->write(rhs, whole);
    const std::int64_t t0 = now_ns();
    int iters = 0;
    {
      Span op(log, kOp);
      iters = solve(log);
    }
    if (s != nullptr) s->add(now_ns() - t0);
    comm_.matvec(*A_, *x_, *ap_, /*reuse_matrix=*/true);
    comm_.axpy(-1.0, *b_, *ap_);
    const double rel = comm_.norm2(*ap_) / comm_.norm2(*b_);
    if (ref_iters_ < 0) ref_iters_ = iters;
    const int want = corrupt ? ref_iters_ + 1 : ref_iters_;
    return rel <= kTol && iters == want;
  }

  int solve(SpanLog& log) {
    const arr::Domain whole(0, kN, 0, 1, 0, 1);
    {
      Span sp(log, kArrayFill);
      x_->fill(0.0, whole);
      r_->fill(0.0, whole);
      p_->fill(0.0, whole);
    }
    {
      Span sp(log, kCollAxpy);
      comm_.axpy(1.0, *b_, *r_);
      comm_.axpy(1.0, *r_, *p_);
    }
    double rs = 0.0;
    {
      Span sp(log, kCollDot);
      rs = comm_.dot(*r_, *r_);
    }
    // Stop at half the tolerance so the recomputed residual clears it.
    const double stop = 0.25 * kTol * kTol * rs;
    int it = 0;
    while (rs > stop && it < 1000) {
      {
        Span sp(log, kCollMatvec);
        comm_.matvec(*A_, *p_, *ap_, /*reuse_matrix=*/true);
      }
      double pap = 0.0;
      {
        Span sp(log, kCollDot);
        pap = comm_.dot(*p_, *ap_);
      }
      const double alpha = rs / pap;
      {
        Span sp(log, kCollAxpy);
        comm_.axpy(alpha, *p_, *x_);
        comm_.axpy(-alpha, *ap_, *r_);
      }
      double rs_new = 0.0;
      {
        Span sp(log, kCollDot);
        rs_new = comm_.dot(*r_, *r_);
      }
      {
        Span sp(log, kCollScale);
        comm_.scale(rs_new / rs, *p_);
      }
      {
        Span sp(log, kCollAxpy);
        comm_.axpy(1.0, *r_, *p_);
      }
      rs = rs_new;
      ++it;
    }
    return it;
  }

  std::uint64_t seed_;
  fs::path scratch_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<arr::BlockStorage> storages_;
  std::unique_ptr<arr::Array> A_, b_, x_, r_, p_, ap_;
  coll::Communicator comm_;
  Xoshiro256 rng_;
  int ref_iters_ = -1;
};

// ---------------------------------------------------------------------------
// Host calibration, output
// ---------------------------------------------------------------------------

double condvar_wake_us() {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  constexpr int kRounds = 5000;
  std::thread peer([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
  });
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kRounds; ++i) {
    std::unique_lock lock(mu);
    turn = 1;
    cv.notify_one();
    cv.wait(lock, [&] { return turn == 0; });
  }
  const std::int64_t dt = now_ns() - t0;
  peer.join();
  return static_cast<double>(dt) / 1e3 / (2.0 * kRounds);
}

double memcpy_gb_s(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), bytes);
    const auto dt = static_cast<double>(now_ns() - t0);
    best = std::max(best, static_cast<double>(bytes) / dt);
    src[static_cast<std::size_t>(r)] = dst[bytes - 1];
  }
  return best;  // bytes per ns == GB/s
}

class Json {
 public:
  void key(const std::string& k) {
    if (!first_) out_ += ",";
    first_ = false;
    out_ += "\"" + k + "\":";
  }
  void num(const std::string& k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    out_ += "\"" + v + "\"";
  }
  void boolean(const std::string& k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
  }
  void open(const std::string& k) {
    key(k);
    out_ += "{";
    first_ = true;
  }
  void close() {
    out_ += "}";
    first_ = false;
  }
  void metric(const std::string& name, double v, const std::string& unit) {
    open(name);
    num("value", v);
    str("unit", unit);
    close();
  }
  [[nodiscard]] std::string done() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
  bool first_ = true;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir = ".";
  std::int64_t ops = 0;  // > 0: short mode, exactly this many ops per client
  bool inject_wrong = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--workdir") a.workdir = val();
    else if (k == "--ops") a.ops = std::stoll(val());
    else if (k == "--inject-wrong") a.inject_wrong = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a,
                                        const fs::path& scratch) {
  if (a.workload == "call_small") return std::make_unique<CallSmall>(a.seed);
  if (a.workload == "page_stream")
    return std::make_unique<PageStream>(a.seed, scratch);
  if (a.workload == "ooc_fft") return std::make_unique<OocFft>(a.seed, scratch);
  if (a.workload == "cg_solve")
    return std::make_unique<CgSolve>(a.seed, scratch);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

Phase make_phase(const Args& a, double seconds, std::vector<SpanLog>* logs) {
  Phase ph;
  if (a.ops > 0)
    ph.ops = a.ops;
  else
    ph.deadline_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  ph.logs = logs;
  ph.inject_wrong = a.inject_wrong;
  return ph;
}

/// Benchmark spans of the traced phase, for breakdown.py.
void write_spans(const fs::path& file, const std::string& workload,
                 const std::vector<SpanLog>& logs, double overhead_pct) {
  std::ofstream out(file);
  out << "{\"workload\":\"" << workload
      << "\",\"overhead_pct\":" << overhead_pct << ",\"names\":[";
  for (int i = 0; i < kSpanNames; ++i)
    out << (i ? "," : "") << "\"" << kSpanNameText[i] << "\"";
  out << "],\"threads\":[";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& log = logs[t];
    out << (t ? "," : "") << "{\"dropped\":" << log.dropped << ",\"spans\":[";
    for (std::size_t i = 0; i < log.records_.size(); ++i) {
      const auto& r = log.records_[i];
      out << (i ? "," : "") << "[" << r.id << "," << r.parent << ","
          << static_cast<int>(r.name) << "," << r.start_ns << "," << r.end_ns
          << "]";
    }
    out << "]}";
  }
  out << "]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Throughput and median latency as medians over an odd number (3 to 9)
/// of equal time windows of the phase, with about 50 ops or more each:
/// host interference (CPU stolen by other tenants) comes in bursts, and a
/// burst then moves a few windows rather than the result.
struct Steady {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
};

Steady steady(const Samples& s, std::int64_t t0, double secs) {
  auto n = std::clamp<std::size_t>(s.op_ns.size() / 50, 3, 9);
  if (n % 2 == 0) --n;
  const double len_ns = secs * 1e9 / static_cast<double>(n);
  std::vector<std::vector<std::int64_t>> lat(n);
  for (std::size_t i = 0; i < s.op_ns.size(); ++i) {
    const auto w = std::min(
        n - 1, static_cast<std::size_t>(
                   static_cast<double>(s.end_ns[i] - t0) / len_ns));
    lat[w].push_back(s.op_ns[i]);
  }
  std::vector<double> rate, p50;
  for (const auto& l : lat) {
    rate.push_back(static_cast<double>(l.size()) / (len_ns / 1e9));
    p50.push_back(percentile_us(l, 0.50));
  }
  return {median(rate), median(p50)};
}

/// End-to-end metrics of one untraced phase.
void end_to_end(Json& j, const Args& a, Workload& w, double setup_s,
                Samples& result, double& steal_pct) {
  std::vector<SpanLog> logs(static_cast<std::size_t>(w.clients()));
  const Counters c0 = Counters::read(w.cluster());
  const CpuTicks cpu0 = CpuTicks::read();
  const std::int64_t t0 = now_ns();
  result = w.run(make_phase(a, a.seconds, &logs));
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  steal_pct = CpuTicks::read().steal_pct_since(cpu0);
  const Counters c1 = Counters::read(w.cluster());
  // cg_solve moves its payload through the collectives.
  const double payload =
      a.workload == "cg_solve"
          ? static_cast<double>(c1.coll_bytes - c0.coll_bytes)
          : static_cast<double>(result.payload_bytes);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const Steady st = steady(result, t0, secs);
  const double ops = static_cast<double>(result.attempted);
  j.metric("setup_s", setup_s, "s");
  j.metric("ops_per_s", st.ops_per_s, "1/s");
  j.metric("op_p50_us", st.p50_us, "us");
  j.metric("payload_mib_s", payload / ops * st.ops_per_s / (1 << 20),
           "MiB/s");
  j.metric("rss_peak_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

/// Per-layer metrics: an untraced half for counters and the baseline p50,
/// then a traced half for spans and the telemetry overhead.
LayerExtras per_layer(Json& j, const Args& a, Workload& w, Samples& result,
                      double& steal_pct) {
  const auto nclients = static_cast<std::size_t>(w.clients());
  std::vector<SpanLog> quiet(nclients);
  const Counters c0 = Counters::read(w.cluster());
  const CpuTicks cpu0 = CpuTicks::read();
  const Samples base = w.run(make_phase(a, a.seconds / 2, &quiet));
  const Counters c1 = Counters::read(w.cluster());

  std::vector<SpanLog> logs(nclients);
  for (auto& l : logs) l.enable();
  telemetry::set_enabled(true);
  const Samples traced = w.run(make_phase(a, a.seconds / 2, &logs));
  telemetry::set_enabled(false);
  steal_pct = CpuTicks::read().steal_pct_since(cpu0);
  result = base;
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  const bool reads = a.workload == "page_stream";
  const double p50_base =
      percentile_us(reads ? base.read_ns : base.op_ns, 0.50);
  const double p50_traced =
      percentile_us(reads ? traced.read_ns : traced.op_ns, 0.50);
  const double overhead_pct = ratio(p50_traced - p50_base, p50_base) * 100.0;

  const fs::path tdir = a.workdir / "trace" / a.workload;
  fs::remove_all(tdir);
  fs::create_directories(tdir);
  w.cluster().dump_trace(tdir);
  write_spans(tdir / "spans.json", a.workload, logs, overhead_pct);

  std::int64_t span_ns[kSpanNames] = {};
  std::uint64_t span_n[kSpanNames] = {};
  for (const auto& l : logs)
    for (int i = 0; i < kSpanNames; ++i) {
      span_ns[i] += l.total_ns[i];
      span_n[i] += l.count[i];
    }
  const auto mean_us = [&](std::initializer_list<SpanName> names) {
    double ns = 0, n = 0;
    for (const SpanName s : names) {
      ns += static_cast<double>(span_ns[s]);
      n += static_cast<double>(span_n[s]);
    }
    return ratio(ns, n) / 1e3;
  };

  const LayerExtras x = w.extras();
  const auto ops = static_cast<double>(base.attempted);
  const auto per_op = [&](std::uint64_t d) {
    return ratio(static_cast<double>(d), ops);
  };
  j.metric("op.tail_us",
           percentile_us(base.op_ns, tail_percentile(base.op_ns.size())),
           "us");
  j.metric("net.msgs_per_op", per_op(c1.msgs - c0.msgs), "count");
  j.metric("net.bytes_per_op", per_op(c1.bytes - c0.bytes), "B");
  j.metric("net.frames_per_wakeup",
           ratio(static_cast<double>(c1.reactor_frames - c0.reactor_frames),
                 static_cast<double>(c1.reactor_wakeups - c0.reactor_wakeups)),
           "count");
  j.metric("rpc.pool_tasks_per_op", per_op(c1.pool_tasks - c0.pool_tasks),
           "count");
  j.metric("rpc.queue_depth_hwm",
           static_cast<double>(w.cluster().stats().totals().queue_depth_hwm),
           "count");
  j.metric("rpc.resends_per_op", per_op(c1.resends - c0.resends), "count");
  j.metric("core.issue_us", mean_us({kCoreIssue}), "us");
  j.metric("core.wait_us", mean_us({kCoreWait}), "us");
  j.metric("serial.encode_us_per_mib", x.serial.encode_us_per_mib, "us/MiB");
  j.metric("serial.decode_us_per_mib", x.serial.decode_us_per_mib, "us/MiB");
  j.metric("array.issue_us", mean_us({kArrayIssue}), "us");
  j.metric("array.assemble_us", mean_us({kArrayAssemble}), "us");
  j.metric("array.pages_per_op", x.array_pages_per_op, "count");
  j.metric("array.read_p50_us", percentile_us(base.read_ns, 0.50), "us");
  j.metric("array.write_p50_us", percentile_us(base.write_ns, 0.50), "us");
  j.metric("storage.pages_per_batch",
           ratio(static_cast<double>(c1.batch_pages - c0.batch_pages),
                 static_cast<double>(c1.batches - c0.batches)),
           "count");
  j.metric("storage.batches_per_op", per_op(c1.batches - c0.batches), "count");
  j.metric("fft.compute_ms", x.fft_compute_ms, "ms");
  j.metric("fft.stall_read_ms", x.fft_stall_read_ms, "ms");
  j.metric("fft.stall_write_ms", x.fft_stall_write_ms, "ms");
  j.metric("fft.slabs", x.fft_slabs, "count");
  j.metric("fft.elements_moved", x.fft_elements_moved, "count");
  j.metric("coll.matvec_us", mean_us({kCollMatvec}), "us");
  j.metric("coll.dot_us", mean_us({kCollDot}), "us");
  j.metric("coll.axpy_us", mean_us({kCollAxpy, kCollScale}), "us");
  j.metric("coll.iters_per_op", x.coll_iters_per_op, "count");
  j.metric("coll.bytes_per_op", per_op(c1.coll_bytes - c0.coll_bytes), "B");
  j.metric("coll.hops_per_op", per_op(c1.coll_hops - c0.coll_hops), "count");
  j.metric("coll.matvec_reuse_hits_per_op",
           per_op(c1.coll_reuse - c0.coll_reuse), "count");
  j.metric("process.cpu_s_per_op", ratio(c1.cpu_s - c0.cpu_s, ops), "s");
  j.metric("process.minflt_per_op", per_op(c1.minflt - c0.minflt), "count");
  j.metric("telemetry.overhead_pct", overhead_pct, "%");
  return x;
}

/// The host record; `steal_pct` is the CPU share stolen from all cores
/// over the timed phases.
void host_calibration(Json& j, double steal_pct) {
  j.open("host");
  j.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  j.num("llc_bytes", static_cast<double>(::sysconf(_SC_LEVEL3_CACHE_SIZE)));
  j.num("condvar_wake_us", condvar_wake_us());
  j.num("memcpy_gb_s", memcpy_gb_s(std::size_t{128} << 20));
  j.str("build_type", OOBENCH_BUILD_TYPE);
  const char* env = std::getenv("OOPP_LOCK_CHECK");
  j.boolean("lock_check", env == nullptr || std::strcmp(env, "0") != 0);
  j.num("steal_pct", steal_pct);
  j.close();
}

int run(const Args& a) {
  telemetry::set_enabled(false);
  const fs::path scratch =
      a.workdir / ("scratch-" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{scratch};

  // Set up three times and keep the last: setup_s is their median.
  constexpr int kSetups = 3;
  auto w = make_workload(a, scratch);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i + 1 < kSetups) w->teardown();
  }

  Json j;
  j.str("workload", a.workload);
  j.num("seed", static_cast<double>(a.seed));
  j.num("trace", a.trace ? 1 : 0);
  Samples result;
  double steal_pct = 0.0;
  j.open("metrics");
  if (a.trace) {
    const LayerExtras x = per_layer(j, a, *w, result, steal_pct);
    j.close();
    // Counts that repeat exactly for a given seed.
    j.open("exact");
    j.num("array.pages_per_op", x.array_pages_per_op);
    j.num("fft.slabs", x.fft_slabs);
    j.num("fft.elements_moved", x.fft_elements_moved);
    j.num("coll.iters_per_op", x.coll_iters_per_op);
  } else {
    end_to_end(j, a, *w, median(setup_s), result, steal_pct);
  }
  j.close();
  w->teardown();
  w.reset();

  const bool correct = result.failed == 0 && result.attempted > 0;
  // op.tail_us's percentile (the untraced phase's samples).
  j.num("tail_percentile", tail_percentile(result.op_ns.size()) * 100);
  j.num("attempted", static_cast<double>(result.attempted));
  j.num("failed", static_cast<double>(result.failed));
  j.num("payload_bytes", static_cast<double>(result.payload_bytes));
  j.boolean("correct", correct);
  host_calibration(j, steal_pct);
  std::printf("%s\n", j.done().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oobench: %s\n", e.what());
    return 2;
  }
}
