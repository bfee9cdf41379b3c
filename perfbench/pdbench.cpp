// pdbench — one workload of the repository benchmark, in one process, driven
// by one closed-loop client: each operation starts after the previous one
// returned. README.md describes the workloads, the metrics and which layer
// metric should move which end-to-end metric.
//
//   pdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --dir <scratch dir> [--size full|tiny]
//
// Every answer is checked against a std::unordered_map reference model, and
// every operation's parallel I/O count against the paper's worst case where
// the workload names one. The program prints one JSON object on stdout: the
// host/config stamp, the operation tallies and every metric as
// [value, unit, kind]. perfbench/run.py builds this program and turns that
// object into the benchmark's result line.
//
// Untraced runs (--trace 0) call the dictionaries' own operations with no
// sink, collector or span attached. Traced runs (--trace 1) measure an
// untraced phase and then a traced phase on a fresh structure built from the
// same seed; the traced phase times the layers from here, around public
// calls: the BasicDict workloads replay every operation through
// probe_addrs -> read_batch -> inspect / plan_insert / plan_erase ->
// write_batch, the other structures get a span around each operation, an
// obs::CostConformance collector splits DiskArray batches into phases, and a
// timing decorator around the block backend measures the device layer.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/basic_dict.hpp"
#include "core/full_dynamic_dict.hpp"
#include "core/static_dict.hpp"
#include "obs/cost_conformance.hpp"
#include "obs/json.hpp"
#include "pdm/backend.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/file_backend.hpp"
#include "util/prng.hpp"
#include "util/simd/simd.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pddict;
using core::Key;

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 40;
constexpr std::size_t kKeyBytes = 8;
constexpr std::size_t kValueBytes = 8;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kChunkOps = 256;  // ops generated ahead, untimed
constexpr int kSetupReps = 5;
/// A window is in the slower host state when its mean probe time is within
/// this factor of the run's slow-state reference (see slow_state_windows).
constexpr double kHostStateFactor = 1.25;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- workloads

enum class Structure { kBasic, kFullDynamic, kStatic };

struct Workload {
  std::string name;
  Structure structure = Structure::kBasic;
  pdm::Geometry geom;
  std::uint32_t degree = 0;
  std::uint64_t n = 0;           // keys preloaded (built, for static)
  std::uint64_t capacity = 0;    // BasicDict N; the generator stays below it
  std::uint64_t prefix_ops = 0;  // counted metrics cover ops [0, prefix_ops)
  std::uint64_t window_ops = 0;  // ops per timing window (see Window)
  /// Whether the op mix and the structure's behaviour are the same over the
  /// whole run. Stationary workloads report the median of their windows'
  /// time metrics, which shrugs off bursts of host noise. The others pool
  /// the windows of the op prefix, so that every run times the same ops and
  /// every phase (a rebuild) keeps its share.
  bool stationary = true;
  double hit = 0, miss = 0, insert = 0, erase = 0;  // op mix
  bool file_backend = false;
  std::uint32_t seek_latency_us = 0;
  std::size_t io_threads = 0;
  bool cache = false;  // BufferPool with 1/4 of the preloaded blocks
  std::uint64_t lookup_pio_bound = 0;  // paper worst case; 0 = unchecked
  std::uint64_t update_pio_bound = 0;
};

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "basic_read") {
    // Section 4.1 in memory: the op path is hashing, block copies and scans.
    w.structure = Structure::kBasic;
    w.geom = pdm::Geometry{16, 64, 16, 0};
    w.degree = 16;
    w.n = tiny ? 2000 : 100000;
    w.capacity = tiny ? 4096 : 131072;
    w.prefix_ops = tiny ? 4096 : 262144;
    w.window_ops = tiny ? 1024 : 32768;
    w.hit = 0.80, w.miss = 0.10, w.insert = 0.05, w.erase = 0.05;
    w.lookup_pio_bound = 1, w.update_pio_bound = 2;
  } else if (name == "dyn_churn") {
    // Theorem 7 under write-heavy churn, working set 4x the buffer pool.
    w.structure = Structure::kFullDynamic;
    w.geom = pdm::Geometry{96, 64, 16, 0};
    w.degree = 24;
    w.n = tiny ? 512 : 16384;
    // 6n ops: a growth rebuild comes first, an erase-triggered one after
    // ~n/0.45 more.
    w.prefix_ops = 6 * w.n;
    w.window_ops = tiny ? 256 : 1024;
    w.stationary = false;
    w.hit = 0.10, w.insert = 0.45, w.erase = 0.45;
    w.cache = true;
  } else if (name == "basic_file") {
    // Section 4.1 on files with simulated seeks: device and executor bound.
    w.structure = Structure::kBasic;
    w.geom = pdm::Geometry{16, 64, 16, 0};
    w.degree = 16;
    w.n = tiny ? 128 : 2048;
    w.capacity = tiny ? 1024 : 16384;
    w.prefix_ops = tiny ? 256 : 4096;
    // ~1280 lookups a window: a window's p99 has at least 10 beyond it.
    w.window_ops = tiny ? 256 : 2560;
    w.hit = 0.45, w.miss = 0.05, w.insert = 0.50;
    w.file_backend = true;
    w.seek_latency_us = 100;
    w.io_threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    w.lookup_pio_bound = 1, w.update_pio_bound = 2;
  } else if (name == "static_build") {
    // Theorem 6 sort-based build, then one-probe lookups.
    w.structure = Structure::kStatic;
    w.geom = pdm::Geometry{32, 64, 16, 0};
    w.degree = 16;
    w.n = tiny ? 2000 : 100000;
    w.prefix_ops = tiny ? 2048 : 65536;
    w.window_ops = tiny ? 1024 : 16384;
    w.hit = 0.90, w.miss = 0.10;
    w.lookup_pio_bound = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------ reference model + op stream

enum class OpKind : std::uint8_t { kLookup = 0, kInsert = 1, kErase = 2 };
constexpr std::size_t kKinds = 3;

struct Op {
  OpKind kind = OpKind::kLookup;
  bool expect = false;     // lookup: found; insert/erase: return value
  Key key = 0;
  std::uint64_t value = 0; // value to insert, or the value a hit must return
};

std::array<std::byte, kValueBytes> value_bytes(std::uint64_t v) {
  std::array<std::byte, kValueBytes> b;
  std::memcpy(b.data(), &v, kValueBytes);
  return b;
}

/// The value stored under `key` in a run with `seed`.
std::uint64_t value_of(std::uint64_t seed, Key key) {
  return util::mix64(key ^ util::mix64(seed ^ 0x7a1eULL));
}

/// The reference model: the live key set with its values, plus a dense
/// vector of the live keys so random and Zipf-ranked picks are O(1).
class Oracle {
 public:
  bool contains(Key k) const { return map_.count(k) != 0; }
  std::uint64_t value(Key k) const { return map_.at(k).value; }
  std::size_t size() const { return live_.size(); }
  Key at(std::size_t i) const { return live_[i]; }

  void insert(Key k, std::uint64_t v) {
    map_.emplace(k, Entry{v, live_.size()});
    live_.push_back(k);
  }
  void erase(Key k) {
    auto it = map_.find(k);
    std::size_t i = it->second.index;
    map_.erase(it);
    if (i + 1 != live_.size()) {
      live_[i] = live_.back();
      map_.at(live_[i]).index = i;
    }
    live_.pop_back();
  }

 private:
  struct Entry {
    std::uint64_t value;
    std::size_t index;
  };
  std::unordered_map<Key, Entry> map_;
  std::vector<Key> live_;
};

/// Seeded op stream. Generates ops a chunk ahead of execution and records,
/// per op, the answer the reference model gives.
class OpGenerator {
 public:
  OpGenerator(const Workload& w, std::uint64_t seed,
              std::span<const Key> preload)
      : w_(w),
        rng_(util::mix64(seed ^ 0x0b5e7a7e5eedULL)),
        zipf_(std::max<std::uint64_t>(preload.size(), 1), kZipfTheta,
              util::mix64(seed ^ 0x21bfULL)),
        seed_(seed) {
    for (Key k : preload) oracle_.insert(k, value_of(seed, k));
  }

  const Oracle& oracle() const { return oracle_; }

  void next_chunk(std::vector<Op>& out) {
    out.clear();
    for (std::size_t i = 0; i < kChunkOps; ++i) out.push_back(next());
  }

 private:
  Op next() {
    double u = rng_.next_double();
    if (u < w_.hit) return hit();
    if (u < w_.hit + w_.miss) return miss();
    if (u < w_.hit + w_.miss + w_.insert) return insert();
    return erase();
  }

  Op hit() {
    if (oracle_.size() == 0) return miss();
    Op op;
    op.kind = OpKind::kLookup;
    op.key = oracle_.at(zipf_.next() % oracle_.size());
    op.expect = true;
    op.value = oracle_.value(op.key);
    return op;
  }

  Op miss() {
    Op op;
    op.kind = OpKind::kLookup;
    op.key = absent_key();
    op.expect = false;
    return op;
  }

  /// A fresh key; a lookup instead while the set is at the capacity N the
  /// structure was sized for.
  Op insert() {
    if (w_.capacity != 0 && oracle_.size() >= w_.capacity) return hit();
    Op op;
    op.kind = OpKind::kInsert;
    op.key = absent_key();
    op.expect = true;
    op.value = value_of(seed_, op.key);
    oracle_.insert(op.key, op.value);
    return op;
  }

  Op erase() {
    if (oracle_.size() == 0) return insert();
    Op op;
    op.kind = OpKind::kErase;
    op.key = oracle_.at(rng_.next_below(oracle_.size()));
    op.expect = true;
    oracle_.erase(op.key);
    return op;
  }

  Key absent_key() {
    for (;;) {
      Key k = rng_.next_below(kUniverse);
      if (!oracle_.contains(k)) return k;
    }
  }

  const Workload& w_;
  Oracle oracle_;
  util::SplitMix64 rng_;
  workload::ZipfSampler zipf_;
  std::uint64_t seed_;
};

// ------------------------------------------------------------ the structures

/// Block-backend decorator for traced runs: time inside the device layer
/// and blocks moved. Per-disk workers call it concurrently, hence atomics.
class TimingBackend final : public pdm::BlockBackend {
 public:
  explicit TimingBackend(std::unique_ptr<pdm::BlockBackend> inner)
      : inner_(std::move(inner)) {}

  pdm::Block load(const pdm::BlockAddr& addr) override {
    std::uint64_t t0 = now_ns();
    pdm::Block b = inner_->load(addr);
    charge(t0, 1);
    return b;
  }
  void store(const pdm::BlockAddr& addr, const pdm::Block& block) override {
    std::uint64_t t0 = now_ns();
    inner_->store(addr, block);
    charge(t0, 1);
  }
  void load_batch(std::span<pdm::BlockRead> reads) override {
    std::uint64_t t0 = now_ns();
    inner_->load_batch(reads);
    charge(t0, reads.size());
  }
  void store_batch(std::span<pdm::BlockWrite> writes) override {
    std::uint64_t t0 = now_ns();
    inner_->store_batch(writes);
    charge(t0, writes.size());
  }
  void erase_range(std::uint32_t first_disk, std::uint32_t num_disks,
                   std::uint64_t base, std::uint64_t count) override {
    inner_->erase_range(first_disk, num_disks, base, count);
  }
  std::uint64_t blocks_in_use() const override {
    return inner_->blocks_in_use();
  }

  std::uint64_t busy_ns() const { return busy_ns_.load(); }
  std::uint64_t blocks() const { return blocks_.load(); }

 private:
  void charge(std::uint64_t t0, std::size_t blocks) {
    busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    blocks_.fetch_add(blocks, std::memory_order_relaxed);
  }

  std::unique_ptr<pdm::BlockBackend> inner_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> blocks_{0};
};

/// StaticDict behind the Dictionary interface (lookups only).
class StaticAdapter final : public core::Dictionary {
 public:
  explicit StaticAdapter(core::StaticDict& d) : d_(&d) {}
  bool insert(Key, std::span<const std::byte>) override {
    throw std::logic_error("static dictionary: no inserts");
  }
  core::LookupResult lookup(Key key) override { return d_->lookup(key); }
  std::uint64_t size() const override { return d_->size(); }
  std::size_t value_bytes() const override { return d_->value_bytes(); }

 private:
  core::StaticDict* d_;
};

/// Removes a scratch directory (FileBackend disk files) when dropped.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// One built structure. Members are declared in dependency order, so the
/// dictionaries go before the array and the files go last.
struct Instance {
  ScratchDir dir;
  std::unique_ptr<pdm::DiskArray> disks;
  pdm::DiskAllocator alloc;
  std::unique_ptr<core::BasicDict> basic;
  std::unique_ptr<core::FullDynamicDict> dyn;
  std::unique_ptr<core::StaticDict> stat;
  std::unique_ptr<StaticAdapter> stat_adapter;
  core::Dictionary* dict = nullptr;
  TimingBackend* timing = nullptr;  // traced instances only
  std::size_t cache_frames = 0;

  ~Instance() {
    // A deferred write-back error has nowhere left to go; the answers were
    // already checked op by op.
    try {
      if (basic) basic->join_pending();
    } catch (const std::exception&) {
    }
  }
};

struct Input {
  std::vector<Key> keys;          // preloaded / built key set
  std::vector<std::byte> values;  // packed, aligned with keys
};

Input make_input(const Workload& w, std::uint64_t seed) {
  Input in;
  in.keys = workload::generate_keys(workload::KeyPattern::kSparseRandom, w.n,
                                    kUniverse, seed);
  in.values.reserve(in.keys.size() * kValueBytes);
  for (Key k : in.keys) {
    auto v = value_bytes(value_of(seed, k));
    in.values.insert(in.values.end(), v.begin(), v.end());
  }
  return in;
}

std::unique_ptr<Instance> build_instance(
    const Workload& w, const Input& in, const std::filesystem::path& dir,
    bool traced, std::shared_ptr<obs::CostConformance> build_cc) {
  auto inst = std::make_unique<Instance>();
  std::unique_ptr<pdm::BlockBackend> backend;
  if (w.file_backend) {
    inst->dir.path = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    backend = std::make_unique<pdm::FileBackend>(w.geom, dir.string(),
                                                 w.seek_latency_us);
  } else {
    backend = std::make_unique<pdm::MemoryBackend>(w.geom);
  }
  if (traced) {
    auto timing = std::make_unique<TimingBackend>(std::move(backend));
    inst->timing = timing.get();
    backend = std::move(timing);
  }
  inst->disks = std::make_unique<pdm::DiskArray>(
      w.geom, pdm::Model::kParallelDisks, std::move(backend));
  if (build_cc) inst->disks->set_cost_conformance(build_cc);
  inst->disks->set_io_threads(w.io_threads);

  auto value_at = [&](std::size_t i) {
    return std::span<const std::byte>(in.values).subspan(i * kValueBytes,
                                                         kValueBytes);
  };
  switch (w.structure) {
    case Structure::kBasic: {
      core::BasicDictParams p;
      p.universe_size = kUniverse;
      p.capacity = w.capacity;
      p.value_bytes = kValueBytes;
      p.degree = w.degree;
      inst->basic = std::make_unique<core::BasicDict>(*inst->disks, 0, 0, p);
      for (std::size_t i = 0; i < in.keys.size(); ++i)
        inst->basic->insert(in.keys[i], value_at(i));
      inst->basic->join_pending();
      inst->dict = inst->basic.get();
      break;
    }
    case Structure::kFullDynamic: {
      core::FullDynamicParams p;
      p.universe_size = kUniverse;
      p.value_bytes = kValueBytes;
      p.degree = w.degree;
      inst->dyn = std::make_unique<core::FullDynamicDict>(*inst->disks, 0,
                                                          inst->alloc, p);
      for (std::size_t i = 0; i < in.keys.size(); ++i)
        inst->dyn->insert(in.keys[i], value_at(i));
      inst->dict = inst->dyn.get();
      break;
    }
    case Structure::kStatic: {
      core::StaticDictParams p;
      p.universe_size = kUniverse;
      p.capacity = w.n;
      p.value_bytes = kValueBytes;
      p.degree = w.degree;
      p.layout = core::StaticLayout::kIdentifiers;
      p.algorithm = core::BuildAlgorithm::kSortBased;
      inst->stat = std::make_unique<core::StaticDict>(
          *inst->disks, 0, inst->alloc, p, in.keys, in.values);
      inst->stat_adapter = std::make_unique<StaticAdapter>(*inst->stat);
      inst->dict = inst->stat_adapter.get();
      break;
    }
  }
  if (w.cache) {
    // A quarter of the preloaded structure's blocks: the working set does
    // not fit, so the run exercises eviction and write-back.
    inst->cache_frames = std::max<std::uint64_t>(
        inst->disks->blocks_in_use() / 4, pdm::BufferPool::kMinFramesPerShard);
    inst->disks->enable_cache(inst->cache_frames);
  }
  if (build_cc) inst->disks->set_cost_conformance(nullptr);
  return inst;
}

// ------------------------------------------------------------------ phases

/// Counters read at the start of a phase and after its first prefix_ops ops.
struct Counters {
  pdm::IoStats io;
  pdm::CacheStats cache;
  std::vector<std::uint64_t> round_hist;
  std::uint64_t backend_blocks = 0;
  std::uint64_t rebuilds = 0;
  pdm::IoExecutor::Stats exec;
};

Counters read_counters(const Instance& inst) {
  Counters c;
  c.io = inst.disks->stats_snapshot();
  c.cache = inst.disks->cache_stats();
  c.round_hist = inst.disks->round_utilization();
  c.backend_blocks = inst.timing ? inst.timing->blocks() : 0;
  c.rebuilds = inst.dyn ? inst.dyn->rebuilds() : 0;
  c.exec = inst.disks->exec_stats();
  return c;
}

/// Wall time per traced layer, summed over the phase.
struct LayerTimes {
  std::uint64_t probe = 0, read = 0, write = 0, inspect = 0, plan_insert = 0,
                plan_erase = 0;
};

/// A fixed piece of CPU work shaped like the in-memory op path: 1 KiB
/// copies inside an L1-sized buffer plus 64-bit mixing, timed. On hosts
/// whose cores are shared with other tenants the same code runs in one of
/// two states about 1.4-1.6x apart, for stretches of 0.1 s to a minute; the
/// probe's time tells the states apart whatever the workload is doing.
std::uint64_t host_probe_ns() {
  static std::vector<std::byte> src(std::size_t{1} << 13, std::byte{1});
  static std::vector<std::byte> dst(std::size_t{1} << 12);
  std::uint64_t t0 = now_ns();
  std::uint64_t x = 1, acc = 0;
  for (std::size_t i = 0; i < 1024; ++i) {
    x = util::mix64(x + i);
    std::memcpy(dst.data() + (i & 3) * 1024, src.data() + (x >> 61) * 1024,
                1024);
    acc += x;
  }
  dst[0] = static_cast<std::byte>(acc);
  return now_ns() - t0;
}

/// One timing window: window_ops consecutive ops (the last window of a
/// phase may hold up to 1.5x that), with a host probe before each chunk.
struct Window {
  std::array<std::size_t, kKinds> lat_end{};  // PhaseResult::lat sizes
  std::uint64_t ops = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t probe_ns = 0;  // host probe time, one probe per chunk
  std::uint64_t probes = 0;
  double mean_probe_ns() const {
    return static_cast<double>(probe_ns) / static_cast<double>(probes);
  }
};

struct PhaseResult {
  std::uint64_t ops = 0;
  std::uint64_t exec_ns = 0;  // summed chunk execution time
  std::array<std::vector<std::uint32_t>, kKinds> lat;  // ns, per kind
  std::vector<Window> windows;
  std::size_t prefix_windows = 0;  // windows covering ops [0, prefix_ops)
  std::vector<std::uint32_t> migrating_lat;  // dyn_churn, traced only
  std::uint64_t wrong = 0, exceptions = 0, bound_violations = 0;

  // Over ops [0, prefix_ops): deterministic for a seed.
  std::array<std::uint64_t, kKinds> prefix_count{}, pio_sum{}, pio_worst{};
  std::uint64_t prefix_migrating_ops = 0;
  Counters start, prefix;
  double space_amp = 0;
  /// High-water RSS after set-up and the first prefix_ops ops: later ops
  /// only grow the latency sample buffers, whose size depends on how many
  /// ops the run fits in its time.
  double peak_rss_mb = 0;

  LayerTimes layers;
  obs::Json cost;  // pddict-cost-report at phase end (traced phases)
  pdm::IoExecutor::Stats exec_end;
  std::uint64_t backend_ns = 0;  // TimingBackend time in the phase
};

struct Answer {
  bool flag = false;
  std::vector<std::byte> value;
};

/// Replays one op through BasicDict's composable API with a span around
/// each layer call. The same reads, plans and writes as BasicDict's own
/// insert/lookup/erase, executed synchronously.
Answer replay_basic(Instance& inst, const Op& op, LayerTimes& t) {
  core::BasicDict& d = *inst.basic;
  std::uint64_t t0 = now_ns();
  auto addrs = d.probe_addrs(op.key);
  std::uint64_t t1 = now_ns();
  std::vector<pdm::Block> blocks;
  inst.disks->read_batch(addrs, blocks);
  std::uint64_t t2 = now_ns();
  t.probe += t1 - t0;
  t.read += t2 - t1;
  Answer a;
  if (op.kind == OpKind::kLookup) {
    auto probe = d.inspect(op.key, blocks);
    t.inspect += now_ns() - t2;
    a.flag = probe.found;
    a.value = std::move(probe.value);
    return a;
  }
  std::optional<std::vector<std::pair<pdm::BlockAddr, pdm::Block>>> writes;
  if (op.kind == OpKind::kInsert) {
    auto v = value_bytes(op.value);
    writes = d.plan_insert(op.key, v, blocks);
    t.plan_insert += now_ns() - t2;
  } else {
    writes = d.plan_erase(op.key, blocks);
    t.plan_erase += now_ns() - t2;
  }
  a.flag = writes.has_value();
  if (writes) {
    std::uint64_t t3 = now_ns();
    inst.disks->write_batch(*writes);
    t.write += now_ns() - t3;
  }
  return a;
}

Answer call_dict(core::Dictionary& d, const Op& op) {
  Answer a;
  switch (op.kind) {
    case OpKind::kLookup: {
      auto r = d.lookup(op.key);
      a.flag = r.found;
      a.value = std::move(r.value);
      break;
    }
    case OpKind::kInsert: {
      auto v = value_bytes(op.value);
      a.flag = d.insert(op.key, v);
      break;
    }
    case OpKind::kErase:
      a.flag = d.erase(op.key);
      break;
  }
  return a;
}

bool answer_matches(const Op& op, const Answer& a) {
  if (a.flag != op.expect) return false;
  if (op.kind != OpKind::kLookup || !op.expect) return true;
  auto v = value_bytes(op.value);
  return a.value.size() == kValueBytes &&
         std::memcmp(a.value.data(), v.data(), kValueBytes) == 0;
}

std::uint64_t pio_bound(const Workload& w, OpKind k) {
  return k == OpKind::kLookup ? w.lookup_pio_bound : w.update_pio_bound;
}

/// Runs ops until `seconds` have passed and at least prefix_ops ran.
PhaseResult run_phase(const Workload& w, Instance& inst, OpGenerator& gen,
                      double seconds, bool traced) {
  PhaseResult r;
  std::shared_ptr<obs::CostConformance> cc;
  if (traced) {
    cc = std::make_shared<obs::CostConformance>();
    inst.disks->set_cost_conformance(cc);
  }
  r.start = read_counters(inst);
  const std::uint64_t backend_ns0 = inst.timing ? inst.timing->busy_ns() : 0;
  const bool replay = traced && inst.basic != nullptr;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last_pio = r.start.io.parallel_ios;
  std::vector<Op> chunk;
  chunk.reserve(kChunkOps);

  Window win;
  auto close_window = [&] {
    for (std::size_t k = 0; k < kKinds; ++k) win.lat_end[k] = r.lat[k].size();
    r.windows.push_back(win);
    win = Window{};
  };

  while (r.ops < w.prefix_ops || now_ns() < deadline) {
    if (win.ops >= w.window_ops) close_window();
    gen.next_chunk(chunk);
    win.probe_ns += host_probe_ns();
    ++win.probes;
    std::uint64_t c0 = now_ns();
    for (const Op& op : chunk) {
      bool was_migrating = inst.dyn && inst.dyn->migrating();
      Answer a;
      bool threw = false;
      std::uint64_t t0 = now_ns();
      try {
        a = replay ? replay_basic(inst, op, r.layers)
                   : call_dict(*inst.dict, op);
      } catch (const std::exception& e) {
        threw = true;
        if (r.exceptions++ == 0)
          std::fprintf(stderr, "pdbench: op threw: %s\n", e.what());
      }
      std::uint64_t lat = now_ns() - t0;
      std::uint64_t pio = inst.disks->stats_snapshot().parallel_ios;
      std::uint64_t op_pio = pio - last_pio;
      last_pio = pio;

      auto k = static_cast<std::size_t>(op.kind);
      auto lat32 = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(lat, UINT32_MAX));
      r.lat[k].push_back(lat32);
      bool migrating = inst.dyn && (was_migrating || inst.dyn->migrating());
      if (traced && migrating) r.migrating_lat.push_back(lat32);
      if (!threw && !answer_matches(op, a)) ++r.wrong;
      std::uint64_t bound = pio_bound(w, op.kind);
      if (bound != 0 && op_pio > bound) ++r.bound_violations;
      if (r.ops < w.prefix_ops) {
        ++r.prefix_count[k];
        r.pio_sum[k] += op_pio;
        r.pio_worst[k] = std::max(r.pio_worst[k], op_pio);
        if (migrating) ++r.prefix_migrating_ops;
      }
      ++r.ops;
    }
    // The chunk's last write-back is part of the chunk's time.
    if (inst.basic) inst.basic->join_pending();
    std::uint64_t chunk_ns = now_ns() - c0;
    r.exec_ns += chunk_ns;
    win.exec_ns += chunk_ns;
    win.ops += chunk.size();
    if (r.ops == w.prefix_ops) {
      close_window();
      r.prefix_windows = r.windows.size();
      r.prefix = read_counters(inst);
      double live_bytes = static_cast<double>(gen.oracle().size()) *
                          static_cast<double>(kKeyBytes + kValueBytes);
      r.space_amp = static_cast<double>(inst.disks->blocks_in_use()) *
                    static_cast<double>(w.geom.block_bytes()) / live_bytes;
      r.peak_rss_mb = peak_rss_mb();
    }
  }
  if (win.ops * 2 >= w.window_ops || r.windows.empty()) {
    close_window();
  } else {  // a short tail joins the previous window
    Window& last = r.windows.back();
    for (std::size_t k = 0; k < kKinds; ++k) last.lat_end[k] = r.lat[k].size();
    last.ops += win.ops;
    last.exec_ns += win.exec_ns;
    last.probe_ns += win.probe_ns;
    last.probes += win.probes;
  }
  r.exec_end = inst.disks->exec_stats();
  r.backend_ns = (inst.timing ? inst.timing->busy_ns() : 0) - backend_ns0;
  if (cc) {
    r.cost = cc->report();
    inst.disks->set_cost_conformance(nullptr);
  }
  return r;
}

// ------------------------------------------------------------------ metrics

double percentile_us(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank] / 1e3;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  double value;
  const char* unit;
  const char* kind;  // "end_to_end", "per_layer" or "report"
};
using Metrics = std::map<std::string, Metric>;

/// Sum of one phase from a pddict-cost-report (0 when no collector ran).
std::uint64_t phase_sum(const obs::Json& report, const char* phase) {
  const obs::Json* phases = report.find("phases");
  const obs::Json* p = phases ? phases->find(phase) : nullptr;
  const obs::Json* sum = p ? p->find("sum") : nullptr;
  return sum ? static_cast<std::uint64_t>(sum->as_double()) : 0;
}

/// Measured exec time of the report's round classes in one direction
/// ("read/..." or "write/..." plus "flush/...").
std::uint64_t class_exec_sum(const obs::Json& report, bool write) {
  const obs::Json* classes = report.find("classes");
  if (!classes) return 0;
  std::uint64_t sum = 0;
  for (const obs::Json& c : classes->as_array()) {
    const std::string& name = c.find("name")->as_string();
    bool is_write = name.rfind("read/", 0) != 0;
    if (is_write == write)
      sum += static_cast<std::uint64_t>(c.find("measured_ns")->as_double());
  }
  return sum;
}

/// Latency samples and op throughput of a set of windows.
struct Pooled {
  std::array<std::vector<std::uint32_t>, kKinds> lat;
  std::uint64_t ops = 0, exec_ns = 0;

  void add(const PhaseResult& r, std::size_t i) {
    const Window& w = r.windows[i];
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::size_t begin = i == 0 ? 0 : r.windows[i - 1].lat_end[k];
      lat[k].insert(lat[k].end(), r.lat[k].begin() + begin,
                    r.lat[k].begin() + w.lat_end[k]);
    }
    ops += w.ops;
    exec_ns += w.exec_ns;
  }
};

/// The windows whose host probe shows the slower host state. Time metrics
/// are taken over these only, so that every run reports the same state: the
/// slower one is present in nearly every run on a shared host, the faster
/// one often not at all. Windows are chosen by the probe, never by how fast
/// the workload ran in them. A run that never left the faster state keeps
/// all its windows.
/// Considers the first `count` windows.
std::vector<std::size_t> slow_state_windows(const PhaseResult& r,
                                            std::size_t count) {
  std::vector<double> probes;
  for (std::size_t i = 0; i < count; ++i)
    probes.push_back(r.windows[i].mean_probe_ns());
  std::sort(probes.begin(), probes.end());
  // 90th percentile as the slow-state reference: robust to a few outliers.
  const double ref = probes[probes.size() * 9 / 10];
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < count; ++i)
    if (r.windows[i].mean_probe_ns() * kHostStateFactor >= ref)
      keep.push_back(i);
  return keep;
}

const char* const kKindNames[kKinds] = {"lookup", "insert", "erase"};

/// ops_per_s and the latency percentiles of one pool of samples.
std::map<std::string, double> pool_time_metrics(const Pooled& p) {
  std::map<std::string, double> t;
  t["ops_per_s"] = ratio(static_cast<double>(p.ops), p.exec_ns / 1e9);
  std::vector<std::uint32_t> all;
  for (std::size_t k = 0; k < kKinds; ++k) {
    all.insert(all.end(), p.lat[k].begin(), p.lat[k].end());
    if (p.lat[k].empty()) continue;
    std::string n = kKindNames[k];
    t[n + "_p50_us"] = percentile_us(p.lat[k], 0.50);
    t[n + "_p99_us"] = percentile_us(p.lat[k], 0.99);
  }
  t["op_p99_us"] = percentile_us(all, 0.99);
  return t;
}

/// The windows a phase's time metrics are taken over.
std::vector<std::size_t> timed_windows(const Workload& w,
                                       const PhaseResult& r) {
  return slow_state_windows(
      r, w.stationary ? r.windows.size() : r.prefix_windows);
}

/// The phase's time metrics over its timed windows: the median over those
/// windows for a stationary workload, else one pool of all of them.
std::map<std::string, double> time_metrics(const Workload& w,
                                           const PhaseResult& r) {
  const std::vector<std::size_t> keep = timed_windows(w, r);
  if (!w.stationary) {
    Pooled p;
    for (std::size_t i : keep) p.add(r, i);
    return pool_time_metrics(p);
  }
  std::map<std::string, std::vector<double>> per_window;
  for (std::size_t i : keep) {
    Pooled p;
    p.add(r, i);
    for (const auto& [name, v] : pool_time_metrics(p))
      per_window[name].push_back(v);
  }
  std::map<std::string, double> t;
  for (auto& [name, v] : per_window) {
    std::sort(v.begin(), v.end());
    t[name] = v[(v.size() - 1) / 2];
  }
  return t;
}

void add_end_to_end(Metrics& m, const Workload& w, const PhaseResult& r,
                    double setup_s) {
  std::map<std::string, double> t = time_metrics(w, r);
  auto sum = [](const auto& a) {
    std::uint64_t s = 0;
    for (auto x : a) s += x;
    return s;
  };
  std::uint64_t prefix_ops = sum(r.prefix_count);
  std::uint64_t prefix_updates = r.prefix_count[1] + r.prefix_count[2];

  m["setup_s"] = {setup_s, "s", "end_to_end"};
  for (const char* name :
       {"ops_per_s", "lookup_p50_us", "lookup_p99_us", "op_p99_us"})
    m[name] = {t.at(name), std::string(name) == "ops_per_s" ? "ops/s" : "us",
               "end_to_end"};
  m["pio_per_op"] = {ratio(static_cast<double>(sum(r.pio_sum)),
                           static_cast<double>(prefix_ops)),
                     "parallel_ios", "end_to_end"};
  m["pio_per_lookup"] = {ratio(static_cast<double>(r.pio_sum[0]),
                               static_cast<double>(r.prefix_count[0])),
                         "parallel_ios", "end_to_end"};
  m["pio_worst_op"] = {static_cast<double>(*std::max_element(
                           r.pio_worst.begin(), r.pio_worst.end())),
                       "parallel_ios", "end_to_end"};
  m["pio_worst_lookup"] = {static_cast<double>(r.pio_worst[0]),
                           "parallel_ios", "end_to_end"};
  m["space_amp"] = {r.space_amp, "ratio", "end_to_end"};
  m["peak_rss_mb"] = {r.peak_rss_mb, "MiB", "end_to_end"};

  // Shown in the report only: absent for workloads without these ops (the
  // benchmark's end-to-end set must exist on every workload).
  m["slow_state_window_frac"] = {
      ratio(static_cast<double>(timed_windows(w, r).size()),
            static_cast<double>(w.stationary ? r.windows.size()
                                             : r.prefix_windows)),
      "ratio", "report"};
  m["window_ops"] = {static_cast<double>(w.window_ops), "count", "report"};
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (r.lat[k].empty()) continue;
    std::string n = kKindNames[k];
    m[n + "_samples"] = {static_cast<double>(r.lat[k].size()), "count",
                         "report"};
    if (k == 0) continue;
    m[n + "_p50_us"] = {t.at(n + "_p50_us"), "us", "report"};
    m[n + "_p99_us"] = {t.at(n + "_p99_us"), "us", "report"};
  }
  if (prefix_updates != 0) {
    m["pio_per_update"] = {ratio(static_cast<double>(r.pio_sum[1] +
                                                     r.pio_sum[2]),
                                 static_cast<double>(prefix_updates)),
                           "parallel_ios", "report"};
    m["pio_worst_update"] = {
        static_cast<double>(std::max(r.pio_worst[1], r.pio_worst[2])),
        "parallel_ios", "report"};
  }
  double failed = static_cast<double>(r.wrong + r.exceptions +
                                      r.bound_violations);
  m["failed_op_frac"] = {ratio(failed, static_cast<double>(r.ops)), "ratio",
                         "report"};
}

void add_per_layer(Metrics& m, const Workload& w, const Instance& inst,
                   const PhaseResult& untraced, const PhaseResult& r) {
  const double ops = static_cast<double>(r.ops);
  const double kops = static_cast<double>(w.prefix_ops);
  auto per_op = [&](double ns) { return ratio(ns, ops); };
  auto L = [&](const char* name, double v, const char* unit) {
    m[name] = {v, unit, "per_layer"};
  };
  std::uint64_t op_ns = 0;
  for (const auto& v : r.lat)
    for (auto x : v) op_ns += x;
  const LayerTimes& t = r.layers;
  const std::uint64_t plan = phase_sum(r.cost, "plan");
  const std::uint64_t exec = phase_sum(r.cost, "exec");
  const std::uint64_t reconcile = phase_sum(r.cost, "reconcile");
  const std::uint64_t total = phase_sum(r.cost, "total");
  const bool replay = inst.basic != nullptr;

  // DiskArray call time: the spans around read_batch/write_batch when the
  // op is replayed. The other structures have no composable API, so their
  // DiskArray time is the collector's per-batch total, split by direction
  // from the executed batches' exec time (buffer-pool hits execute no
  // batch, so their copies stay in core.op_self_ns).
  const std::uint64_t disk_ns = replay ? t.read + t.write : total;
  const std::uint64_t read_ns = replay ? t.read : class_exec_sum(r.cost, false);
  const std::uint64_t write_ns =
      replay ? t.write : class_exec_sum(r.cost, true);
  const std::uint64_t covered =
      disk_ns + t.probe + t.inspect + t.plan_insert + t.plan_erase;

  L("op.traced_ns", per_op(static_cast<double>(op_ns)), "ns/op");
  L("op.unattributed_ns",
    per_op(static_cast<double>(op_ns > covered ? op_ns - covered : 0)),
    "ns/op");
  L("expander.probe_addrs_ns", per_op(static_cast<double>(t.probe)), "ns/op");
  L("core.inspect_ns", per_op(static_cast<double>(t.inspect)), "ns/op");
  L("core.plan_insert_ns", per_op(static_cast<double>(t.plan_insert)),
    "ns/op");
  L("core.plan_erase_ns", per_op(static_cast<double>(t.plan_erase)), "ns/op");
  std::uint64_t self = disk_ns + t.probe;
  L("core.op_self_ns",
    per_op(static_cast<double>(op_ns > self ? op_ns - self : 0)), "ns/op");
  L("disk_array.read_batch_ns", per_op(static_cast<double>(read_ns)),
    "ns/op");
  L("disk_array.write_batch_ns", per_op(static_cast<double>(write_ns)),
    "ns/op");
  L("disk_array.plan_ns", per_op(static_cast<double>(plan)), "ns/op");
  L("disk_array.exec_ns", per_op(static_cast<double>(exec)), "ns/op");
  L("disk_array.reconcile_ns", per_op(static_cast<double>(reconcile)),
    "ns/op");
  std::uint64_t phased = plan + exec + reconcile;
  L("disk_array.unattributed_ns",
    per_op(static_cast<double>(disk_ns > phased ? disk_ns - phased : 0)),
    "ns/op");

  const Counters& a = r.start;
  const Counters& b = r.prefix;
  pdm::IoStats io = b.io - a.io;
  L("disk_array.parallel_ios", ratio(io.parallel_ios, kops), "parallel_ios/op");
  L("disk_array.blocks_read", ratio(io.blocks_read, kops), "blocks/op");
  L("disk_array.blocks_written", ratio(io.blocks_written, kops), "blocks/op");
  double rounds = 0, slots = 0;
  for (std::size_t k = 1; k < b.round_hist.size(); ++k) {
    double h = static_cast<double>(b.round_hist[k] - a.round_hist[k]);
    rounds += h;
    slots += h * static_cast<double>(k);
  }
  L("disk_array.round_utilization",
    ratio(slots, rounds * w.geom.num_disks), "ratio");

  double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  L("buffer_pool.hit_rate", ratio(hits, hits + misses), "ratio");
  L("buffer_pool.evictions_per_op",
    ratio(static_cast<double>(b.cache.evictions - a.cache.evictions), kops),
    "frames/op");
  L("buffer_pool.dirty_evictions_per_op",
    ratio(static_cast<double>(b.cache.dirty_evictions -
                              a.cache.dirty_evictions),
          kops),
    "frames/op");
  L("buffer_pool.flush_rounds",
    static_cast<double>(b.cache.flush_rounds - a.cache.flush_rounds),
    "count");

  const auto& e0 = r.start.exec;
  const auto& e1 = r.exec_end;
  L("io_executor.queue_wait_ns",
    per_op(static_cast<double>(e1.queue_wait_ns - e0.queue_wait_ns)), "ns/op");
  // Caller time blocked on batch joins, from the collector: the executor's
  // own join counter only sees its barrier calls, not BatchFuture joins.
  L("io_executor.join_wait_ns",
    per_op(static_cast<double>(phase_sum(r.cost, "join"))), "ns/op");
  L("io_executor.overlap_ns",
    per_op(static_cast<double>(phase_sum(r.cost, "overlap"))), "ns/op");
  double busy = 0;
  for (std::size_t i = 0; i < e1.worker_busy_ns.size(); ++i)
    busy += static_cast<double>(e1.worker_busy_ns[i] -
                                (i < e0.worker_busy_ns.size()
                                     ? e0.worker_busy_ns[i]
                                     : 0));
  L("io_executor.worker_busy_frac",
    ratio(busy, static_cast<double>(e1.worker_busy_ns.size()) *
                    static_cast<double>(r.exec_ns)),
    "ratio");
  L("io_executor.max_queue_depth", static_cast<double>(e1.max_queue_depth),
    "count");

  L("backend.busy_ns_per_block",
    ratio(static_cast<double>(r.backend_ns),
          static_cast<double>(inst.timing ? inst.timing->blocks() : 0) -
              static_cast<double>(a.backend_blocks)),
    "ns/block");
  L("backend.blocks_per_op",
    ratio(static_cast<double>(b.backend_blocks - a.backend_blocks), kops),
    "blocks/op");

  L("rebuild.count", static_cast<double>(b.rebuilds - a.rebuilds), "count");
  L("rebuild.migrating_op_frac",
    ratio(static_cast<double>(r.prefix_migrating_ops), kops), "ratio");
  L("rebuild.migrating_op_p99_us", percentile_us(r.migrating_lat, 0.99),
    "us");

  L("obs.trace_overhead_frac",
    1.0 - ratio(time_metrics(w, r).at("ops_per_s"),
                time_metrics(w, untraced).at("ops_per_s")),
    "ratio");
}

// -------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = "pdbench-scratch";
  bool tiny = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    std::string v = argv[++i];
    if (a == "--workload")
      o.workload = v;
    else if (a == "--seed")
      o.seed = std::stoull(v);
    else if (a == "--seconds")
      o.seconds = std::stod(v);
    else if (a == "--trace")
      o.trace = v == "1";
    else if (a == "--dir")
      o.dir = v;
    else if (a == "--size")
      o.tiny = v == "tiny";
    else
      throw std::invalid_argument("unknown flag " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  return o;
}

obs::Json config_stamp(const Options& o, const Workload& w,
                       const Instance& inst) {
  obs::Json j = obs::Json::object();
  j.set("workload", w.name);
  j.set("seed", o.seed);
  j.set("seconds", o.seconds);
  j.set("size", o.tiny ? "tiny" : "full");
  j.set("trace", o.trace);
  j.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.set("cpu_model", util::simd::cpu_model_string());
  j.set("simd_level", util::simd::isa_name(util::simd::active_level()));
  j.set("build_type", PDBENCH_BUILD_TYPE);
  j.set("num_disks", w.geom.num_disks);
  j.set("block_items", w.geom.block_items);
  j.set("item_bytes", w.geom.item_bytes);
  j.set("degree", w.degree);
  j.set("n", w.n);
  j.set("prefix_ops", w.prefix_ops);
  j.set("io_threads", static_cast<std::uint64_t>(inst.disks->io_threads()));
  j.set("cache_frames", static_cast<std::uint64_t>(inst.cache_frames));
  j.set("seek_latency_us", w.seek_latency_us);
  j.set("backend", w.file_backend ? "file" : "memory");
  j.set("setup_reps", o.trace ? 1 : kSetupReps);
  return j;
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.tiny);
  const std::filesystem::path scratch = o.dir;

  const Input input = make_input(w, o.seed);
  auto fresh_generator = [&] {
    return std::make_unique<OpGenerator>(w, o.seed, input.keys);
  };
  auto gen = fresh_generator();

  // Set-up, repeated; the last instance runs the ops.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    inst.reset();
    std::uint64_t t0 = now_ns();
    inst = build_instance(w, input, scratch / "a", false, nullptr);
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());

  Metrics m;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  PhaseResult a = run_phase(w, *inst, *gen, untraced_s, false);
  obs::Json config = config_stamp(o, w, *inst);
  add_end_to_end(m, w, a, setup_s[setup_s.size() / 2]);
  std::uint64_t attempted = a.ops;
  std::uint64_t failed = a.wrong + a.exceptions + a.bound_violations;
  std::uint64_t wrong = a.wrong, exceptions = a.exceptions,
                violations = a.bound_violations;
  bool io_match = true;

  if (o.trace) {
    inst.reset();
    gen = fresh_generator();
    auto build_cc = std::make_shared<obs::CostConformance>();
    std::uint64_t t0 = now_ns();
    auto traced = build_instance(w, input, scratch / "b", true, build_cc);
    std::uint64_t build_ns = now_ns() - t0;
    PhaseResult b = run_phase(w, *traced, *gen, o.seconds / 2, true);
    add_per_layer(m, w, *traced, a, b);
    const core::StaticBuildStats* st =
        traced->stat ? &traced->stat->build_stats() : nullptr;
    m["static_build.sort_pio"] = {
        st ? static_cast<double>(st->sort_io.parallel_ios) : 0.0, "count",
        "per_layer"};
    m["static_build.total_pio"] = {
        st ? static_cast<double>(st->total_io.parallel_ios) : 0.0, "count",
        "per_layer"};
    m["static_build.levels"] = {st ? static_cast<double>(st->levels) : 0.0,
                                "count", "per_layer"};
    m["static_build.disk_array_ns"] = {
        st ? static_cast<double>(phase_sum(build_cc->report(), "total"))
           : 0.0,
        "ns", "per_layer"};
    m["static_build.build_ns"] = {st ? static_cast<double>(build_ns) : 0.0,
                                  "ns", "report"};
    // The traced phase must charge exactly what the untraced one did over
    // the same op prefix (BasicDict: the replay matches the dictionary's
    // own write-behind path round for round).
    io_match = (a.prefix.io - a.start.io) == (b.prefix.io - b.start.io);
    if (!io_match)
      std::fprintf(stderr,
                   "pdbench: traced replay charged different IoStats than "
                   "the dictionary path\n");
    attempted += b.ops;
    failed += b.wrong + b.exceptions + b.bound_violations;
    wrong += b.wrong, exceptions += b.exceptions,
        violations += b.bound_violations;
  }

  // Written by hand: obs::Json prints doubles with 10 significant digits,
  // and the metrics are reported with all of theirs.
  const bool correct = failed == 0 && io_match;
  std::printf(
      "{\"config\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"wrong_answers\":%llu,\"exceptions\":%llu,"
      "\"pio_bound_violations\":%llu,\"traced_io_match\":%s,\"metrics\":{",
      config.dump().c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(exceptions),
      static_cast<unsigned long long>(violations),
      io_match ? "true" : "false");
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\":[%.17g,\"%s\",\"%s\"]", sep, name.c_str(),
                metric.value, metric.unit, metric.kind);
    sep = ",";
  }
  std::printf("}}\n");
  return failed == 0 && io_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdbench: %s\n", e.what());
    return 2;
  }
}
