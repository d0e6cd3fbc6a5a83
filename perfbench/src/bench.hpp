// Workloads, inputs, online checks and the closed-loop worker of the
// repository benchmark (see ../README.md for the design and the metrics).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <latch>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adapters/idictionary.hpp"
#include "citrus/citrus_tree.hpp"
#include "histogram.hpp"
#include "rcu/counter_flag_rcu.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using citrus::core::UpdateStatus;

// The tree behind make_dictionary("citrus", {.reclaim = true}), built
// directly for the traced run's lane B.
using Rcu = citrus::rcu::CounterFlagRcu;
using Tree = citrus::core::CitrusTree<std::int64_t, std::int64_t, Rcu,
                                      citrus::core::DefaultTraits>;

// Three clients leave one of four CPUs to the kernel and the control thread.
inline constexpr int kThreads = 3;
// Every 32nd key is stable: loaded at setup, never updated by the mix.
inline constexpr std::int64_t kStableStride = 32;
inline constexpr std::int64_t kScanWidth = 100;

struct Workload {
  std::string_view name;
  std::int64_t key_range;  // keys in [0, key_range); a multiple of the stride
  double zipf_theta;       // 0 = uniform; otherwise rank r is key r
  // Operation mix in per-mille: find, range, insert, erase.
  unsigned find_pm, scan_pm, insert_pm, erase_pm;
  double warmup_s;   // untimed mixed load between setup and the window
  int setup_reps;    // setups per run; setup_s is their median
};

// The 1m workloads carry 1% scans (taken from the finds) so that every
// workload reports every end-to-end metric.
inline constexpr Workload kWorkloads[] = {
    {"uniform-1m", 2'000'000, 0.0, 490, 10, 250, 250, 2.0, 3},
    {"scan-16k", 32'768, 0.0, 900, 50, 25, 25, 1.0, 301},
    {"zipf-1m", 2'000'000, 0.99, 490, 10, 250, 250, 2.0, 3},
};

consteval bool workloads_well_formed() {
  for (const Workload& w : kWorkloads) {
    if (w.find_pm + w.scan_pm + w.insert_pm + w.erase_pm != 1000) return false;
    if (w.key_range % kStableStride != 0 || w.key_range < 16 * 1024) return false;
  }
  return true;
}
static_assert(workloads_well_formed());

inline bool is_stable(std::int64_t k) { return k % kStableStride == 0; }

// Stable keys in [lo, hi], for 0 <= lo <= hi.
inline std::int64_t stable_in(std::int64_t lo, std::int64_t hi) {
  return hi / kStableStride - (lo + kStableStride - 1) / kStableStride + 1;
}

inline std::int64_t updatable_count(const Workload& w) {
  return w.key_range / kStableStride * (kStableStride - 1);
}

// The i-th updatable key, ascending in i, so Zipf ranks stay adjacent.
inline std::int64_t updatable_key(std::int64_t i) {
  return i / (kStableStride - 1) * kStableStride + 1 + i % (kStableStride - 1);
}

// The only value ever stored under k, so every returned pair is checkable.
inline std::int64_t value_of(std::int64_t k) {
  auto s = static_cast<std::uint64_t>(k);
  return static_cast<std::int64_t>(citrus::util::splitmix64(s));
}

inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + stream;
  return citrus::util::splitmix64(s);
}

// The initial keys in load order. First every stable key, parents before
// children of a balanced tree over them, so that the upper levels of the
// tree are the same balanced skeleton for every seed: a random load order
// would make the mean depth, and the depth of the Zipf hot spot, a lottery
// drawn anew with each seed. Then a seeded half of the updatable keys (the
// density a 50/50 insert/erase mix holds) in a seeded order; each lands in
// the gap between two stable keys. Loading this list on one thread fixes
// the tree's shape for the seed.
inline std::vector<std::int64_t> initial_keys(const Workload& w,
                                              std::uint64_t seed) {
  std::vector<std::int64_t> keys;
  std::vector<std::pair<std::int64_t, std::int64_t>> todo{
      {0, w.key_range / kStableStride}};  // stable indices [lo, hi)
  while (!todo.empty()) {
    const auto [lo, hi] = todo.back();
    todo.pop_back();
    if (lo >= hi) continue;
    const std::int64_t mid = lo + (hi - lo) / 2;
    keys.push_back(mid * kStableStride);
    todo.push_back({mid + 1, hi});
    todo.push_back({lo, mid});
  }
  const std::size_t skeleton = keys.size();
  citrus::util::Xoshiro256 rng(stream_seed(seed, 0));
  for (std::int64_t i = 0; i < updatable_count(w); ++i) {
    if ((rng() >> 63) != 0) keys.push_back(updatable_key(i));
  }
  for (std::size_t i = keys.size() - skeleton; i > 1; --i) {
    std::swap(keys[skeleton + i - 1], keys[skeleton + rng.bounded(i)]);
  }
  return keys;
}

enum class OpKind : std::uint8_t { kFind, kScan, kInsert, kErase };
enum OpClass : int { kRead = 0, kUpdate = 1, kScan = 2, kClasses = 3 };
inline constexpr const char* kClassNames[kClasses] = {"read", "update", "scan"};

struct Op {
  OpKind kind;
  std::int64_t key;  // the scan's lower bound for kScan
};

// One client's operation sequence: a pure function of (workload, seed,
// thread), so both lanes of a traced run issue the same operations.
class OpStream {
 public:
  OpStream(const Workload& w, std::uint64_t seed, int thread)
      : w_(w),
        rng_(stream_seed(seed, 1 + static_cast<std::uint64_t>(thread))),
        keys_(static_cast<std::uint64_t>(w.key_range), w.zipf_theta),
        updates_(static_cast<std::uint64_t>(updatable_count(w)), w.zipf_theta),
        scans_(static_cast<std::uint64_t>(w.key_range - kScanWidth + 1),
               w.zipf_theta) {}

  Op next() {
    auto u = static_cast<unsigned>(rng_.bounded(1000));
    if (u < w_.find_pm) return {OpKind::kFind, draw(keys_)};
    u -= w_.find_pm;
    if (u < w_.scan_pm) return {OpKind::kScan, draw(scans_)};
    u -= w_.scan_pm;
    const std::int64_t k = updatable_key(draw(updates_));
    return {u < w_.insert_pm ? OpKind::kInsert : OpKind::kErase, k};
  }

 private:
  std::int64_t draw(const citrus::util::ZipfGenerator& z) {
    return static_cast<std::int64_t>(z(rng_));
  }

  const Workload& w_;
  citrus::util::Xoshiro256 rng_;
  citrus::util::ZipfGenerator keys_, updates_, scans_;
};

// Lane A, and every untraced run: the production dictionary through the
// adapters layer.
class DictTarget {
 public:
  explicit DictTarget(citrus::adapters::IDictionary& d) : d_(d) {}
  std::unique_ptr<citrus::adapters::ThreadScope> enter() {
    return d_.enter_thread();
  }
  std::optional<std::int64_t> find(std::int64_t k) const { return d_.find(k); }
  UpdateStatus insert(std::int64_t k, std::int64_t v) {
    return d_.try_insert(k, v);
  }
  UpdateStatus erase(std::int64_t k) { return d_.try_erase(k); }
  template <typename F>
  std::size_t range(std::int64_t lo, std::int64_t hi, F f) const {
    return d_.range(lo, hi, f);  // default ScanOptions, as a caller would
  }

 private:
  citrus::adapters::IDictionary& d_;
};

// Lane B: the same tree type called directly, over a domain the benchmark
// owns, with the chunking the adapter picks for default ScanOptions.
class TreeTarget {
 public:
  TreeTarget(Tree& tree, Rcu& rcu) : tree_(tree), rcu_(rcu) {}
  std::unique_ptr<Rcu::Registration> enter() {
    return std::make_unique<Rcu::Registration>(rcu_);
  }
  std::optional<std::int64_t> find(std::int64_t k) const {
    return tree_.find(k);
  }
  UpdateStatus insert(std::int64_t k, std::int64_t v) {
    return tree_.try_insert(k, v);
  }
  UpdateStatus erase(std::int64_t k) { return tree_.try_erase(k); }
  template <typename F>
  std::size_t range(std::int64_t lo, std::int64_t hi, F f) const {
    return tree_.range(lo, hi, f, 0, Tree::kDefaultScanChunk);
  }
  void read_section() {
    rcu_.read_lock();
    rcu_.read_unlock();
  }

 private:
  Tree& tree_;
  Rcu& rcu_;
};

// The configuration every example and the README quickstart use: Citrus
// over counter+flag RCU with reclamation and statistics on.
inline std::unique_ptr<citrus::adapters::IDictionary> make_production() {
  auto d = citrus::adapters::make_dictionary(
      "citrus", citrus::adapters::Options{.reclaim = true});
  if (!d->traits().reclaiming) {
    throw std::runtime_error("citrus with Options::reclaim is not reclaiming");
  }
  return d;
}

// Inserts every key on the calling thread; false if any insert fails.
template <typename Target>
bool load(Target& target, const std::vector<std::int64_t>& keys) {
  const auto scope = target.enter();
  for (const std::int64_t k : keys) {
    if (target.insert(k, value_of(k)) != UpdateStatus::kSuccess) return false;
  }
  return true;
}

// Traced slices time an empty span and a bare read section after every
// kExtrasEvery-th operation, and keep every kSpanLogEvery-th span for the log.
inline constexpr std::uint64_t kExtrasEvery = 64;
inline constexpr std::uint64_t kSpanLogEvery = 1024;

enum class SpanName : std::uint8_t {
  kFind, kRange, kInsert, kErase, kClockPair, kReadSection, kSynchronize
};
inline constexpr const char* kSpanNames[] = {
    "find", "range", "try_insert", "try_erase", "clock_pair", "read_section",
    "synchronize"};

struct Span {
  std::uint64_t op;  // thread << 48 | sequence number: equal across lanes
  std::int64_t start_ns;
  std::int64_t end_ns;
  SpanName name;
};

inline std::uint64_t nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}
inline std::int64_t since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}

// The run is cut into slices: warm-up slices, then the window. An untraced
// run gives every slice to lane A. The traced run alternates lane A (the
// adapters layer) and lane B (the direct tree) slice by slice, so both see
// the same machine conditions; it traces every B slice and every other A
// slice, and the untraced A slices give bench.trace_overhead.
struct PassControl {
  PassControl(int warmup_slices_, int window_slices_,
              Clock::duration slice_len_, bool interleave_)
      : warmup_slices(warmup_slices_),
        window_slices(window_slices_),
        slice_len(slice_len_),
        interleave(interleave_) {}

  int total() const { return warmup_slices + window_slices; }
  int lane(int s) const { return interleave ? s % 2 : 0; }
  // Index of slice s inside the window, or -1 during the warm-up.
  int window(int s) const { return s < warmup_slices ? -1 : s - warmup_slices; }
  bool traced(int s) const {
    const int w = window(s);
    return interleave && w >= 0 && (lane(s) == 1 || (w / 2) % 2 == 0);
  }

  const int warmup_slices;  // even when interleaved, so lanes keep parity
  const int window_slices;
  const Clock::duration slice_len;
  const bool interleave;
  const Clock::time_point epoch = Clock::now();  // span timestamps origin
  std::atomic<int> slice{0};
  std::latch entered{kThreads};  // every client holds its thread scopes
};

// One client's results; written only by that client until it is joined.
struct alignas(64) WorkerLog {
  WorkerLog(int slices, std::size_t span_capacity)
      : hist(static_cast<std::size_t>(slices) * kClasses),
        ops(static_cast<std::size_t>(slices), 0) {
    spans.reserve(span_capacity);
  }

  Histogram& at(int slice, OpClass c) {
    return hist[static_cast<std::size_t>(slice) * kClasses + c];
  }
  const Histogram& at(int slice, OpClass c) const {
    return hist[static_cast<std::size_t>(slice) * kClasses + c];
  }
  void span(std::uint64_t op, SpanName name, Clock::time_point epoch,
            Clock::time_point a, Clock::time_point b) {
    if (spans.size() == spans.capacity()) {
      ++spans_dropped;
      return;
    }
    spans.push_back({op, since(epoch, a), since(epoch, b), name});
  }
  void fail(const Op& op, const char* what) {
    if (failed++ == 0) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s (key %lld)", what,
                    static_cast<long long>(op.key));
      first_failure = buf;
    }
  }

  std::vector<Histogram> hist;     // [slice][class], window only
  std::vector<std::uint64_t> ops;  // operations started per slice
  Histogram clock_pair;            // traced slices: empty span
  Histogram read_section;          // traced slices, lane B: bare section
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  // Warm-up and window together.
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t updates = 0, inserted = 0, erased = 0;
  std::string first_failure;
};

// Checks a scan's pairs as they arrive: strictly ascending inside [lo, hi],
// each with its key's value; counts the stable keys seen.
struct ScanCheck {
  std::int64_t lo, hi;
  std::int64_t last = 0;
  std::size_t visited = 0;
  std::int64_t stable_seen = 0;
  bool ok = true;

  bool visit(std::int64_t k, std::int64_t v) {
    if (k < lo || k > hi || (visited > 0 && k <= last) || v != value_of(k)) {
      ok = false;
    }
    stable_seen += is_stable(k) ? 1 : 0;
    last = k;
    ++visited;
    return true;
  }
};

// One client's operations against one target. Latency spans cover only the
// call into the target: drawing happens outside them, and so does checking,
// except the scan visitor's per-pair check, which runs inside the scan.
template <typename Target>
class Lane {
 public:
  Lane(Target& target, WorkerLog& log, const Workload& w, std::uint64_t seed,
       int thread)
      : target_(target),
        log_(log),
        stream_(w, seed, thread),
        scope_(target.enter()),
        id_base_(static_cast<std::uint64_t>(thread) << 48) {}

  // Issues and checks the next operation; records it inside the window.
  void step(const PassControl& ctl, int slice) {
    const Op op = stream_.next();
    const std::uint64_t seq = seq_++;
    OpClass cls = kRead;
    SpanName name = SpanName::kFind;
    const char* bad = nullptr;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1;
    switch (op.kind) {
      case OpKind::kFind: {
        const std::optional<std::int64_t> got = target_.find(op.key);
        t1 = Clock::now();
        if (!got) {
          if (is_stable(op.key)) bad = "find missed a stable key";
        } else if (*got != value_of(op.key)) {
          bad = "find returned a wrong value";
        }
        break;
      }
      case OpKind::kScan: {
        cls = kScan;
        name = SpanName::kRange;
        ScanCheck sc{op.key, op.key + kScanWidth - 1};
        const std::size_t n = target_.range(
            sc.lo, sc.hi,
            [&sc](std::int64_t k, std::int64_t v) { return sc.visit(k, v); });
        t1 = Clock::now();
        if (!sc.ok || n != sc.visited) {
          bad = "scan out of order, out of range or with a wrong value";
        } else if (sc.stable_seen != stable_in(sc.lo, sc.hi)) {
          bad = "scan skipped a stable key";
        }
        break;
      }
      case OpKind::kInsert:
      case OpKind::kErase: {
        cls = kUpdate;
        const bool ins = op.kind == OpKind::kInsert;
        name = ins ? SpanName::kInsert : SpanName::kErase;
        const UpdateStatus s = ins ? target_.insert(op.key, value_of(op.key))
                                   : target_.erase(op.key);
        t1 = Clock::now();
        ++log_.updates;
        if (s == UpdateStatus::kNoMemory) bad = "update returned kNoMemory";
        if (s == UpdateStatus::kSuccess) ++(ins ? log_.inserted : log_.erased);
        break;
      }
    }
    ++log_.attempted;
    if (bad != nullptr) log_.fail(op, bad);
    const int w = ctl.window(slice);
    if (w < 0) return;
    log_.at(w, cls).record(nanos(t1 - t0));
    ++log_.ops[static_cast<std::size_t>(w)];
    if (!ctl.traced(slice) || seq % kExtrasEvery != 0) return;

    const bool keep = seq % kSpanLogEvery == 0;
    const std::uint64_t id = id_base_ | seq;
    if (keep) log_.span(id, name, ctl.epoch, t0, t1);
    const Clock::time_point c0 = Clock::now();
    const Clock::time_point c1 = Clock::now();
    log_.clock_pair.record(nanos(c1 - c0));
    if (keep) log_.span(id, SpanName::kClockPair, ctl.epoch, c0, c1);
    if constexpr (requires { target_.read_section(); }) {
      const Clock::time_point r0 = Clock::now();
      target_.read_section();
      const Clock::time_point r1 = Clock::now();
      log_.read_section.record(nanos(r1 - r0));
      if (keep) log_.span(id, SpanName::kReadSection, ctl.epoch, r0, r1);
    }
  }

 private:
  Target& target_;
  WorkerLog& log_;
  OpStream stream_;
  decltype(std::declval<Target&>().enter()) scope_;
  std::uint64_t id_base_;
  std::uint64_t seq_ = 0;
};

// Closed loop: a client issues its next operation as soon as the previous
// one returns, on the lane of the current slice, until the run ends. `b` is
// null when the run has one lane.
template <typename LaneA, typename LaneB>
void run_client(PassControl& ctl, LaneA& a, LaneB* b) {
  ctl.entered.count_down();
  for (;;) {
    const int s = ctl.slice.load(std::memory_order_relaxed);
    if (s >= ctl.total()) return;
    if (b != nullptr && ctl.lane(s) == 1) {
      b->step(ctl, s);
    } else {
      a.step(ctl, s);
    }
  }
}

// The client threads of one run. They exist before the dictionary does, so
// their stacks are outside the resident-set growth charged to it.
class Crew {
 public:
  Crew() {
    for (int t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this, t] {
        go_.wait();
        if (!job_) return;
        try {
          job_(t);
        } catch (...) {
          errors_[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    }
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  ~Crew() {
    if (!started_) go_.count_down();
    for (std::thread& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

  void start(std::function<void(int)> job) {
    job_ = std::move(job);
    started_ = true;
    go_.count_down();
  }

  // Joins every client and rethrows the first exception one of them raised.
  void join() {
    for (std::thread& th : threads_) th.join();
    for (const std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  std::function<void(int)> job_;
  std::latch go_{1};
  bool started_ = false;
  std::vector<std::exception_ptr> errors_ =
      std::vector<std::exception_ptr>(kThreads);
  std::vector<std::thread> threads_;
};

// Control thread: advances the slice every slice_len, calling `wait(s, due)`
// until slice s is due (to sleep, or to issue timed synchronize calls).
// Returns the measured length of each window slice in seconds.
template <typename Wait>
std::vector<double> drive(PassControl& ctl, Wait&& wait) {
  ctl.entered.wait();
  std::vector<double> lengths;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev = start;
  for (int s = 0; s < ctl.total(); ++s) {
    const Clock::time_point due = start + (s + 1) * ctl.slice_len;
    while (Clock::now() < due) wait(s, due);
    const Clock::time_point now = Clock::now();
    ctl.slice.store(s + 1, std::memory_order_relaxed);
    if (ctl.window(s) >= 0) {
      lengths.push_back(std::chrono::duration<double>(now - prev).count());
    }
    prev = now;
  }
  return lengths;
}

inline void sleep_until_due(int /*slice*/, Clock::time_point due) {
  std::this_thread::sleep_until(due);
}

// Starts `client(thread)` on every crew thread, drives the slices and joins.
template <typename Client, typename Wait>
std::vector<double> run_pass(PassControl& ctl, Crew& crew, Client&& client,
                             Wait&& wait) {
  crew.start(std::forward<Client>(client));
  std::vector<double> lengths;
  try {
    lengths = drive(ctl, wait);
  } catch (...) {
    ctl.slice.store(ctl.total(), std::memory_order_relaxed);
    crew.join();
    throw;
  }
  crew.join();
  return lengths;
}

// After the clients are joined: the structure audit, the size balance and
// a sweep over every stable key. Returns an empty string when all hold.
template <typename Target>
std::string verify_quiescent(Target& target,
                             const citrus::core::StructureReport& report,
                             std::size_t size, std::size_t loaded,
                             const std::vector<WorkerLog>& logs,
                             const Workload& w) {
  if (!report.ok) return "check_structure failed: " + report.error;
  std::int64_t expect = static_cast<std::int64_t>(loaded);
  for (const WorkerLog& l : logs) {
    expect += static_cast<std::int64_t>(l.inserted) -
              static_cast<std::int64_t>(l.erased);
  }
  if (static_cast<std::int64_t>(size) != expect) {
    return "size " + std::to_string(size) + " != loaded + inserted - erased = " +
           std::to_string(expect);
  }
  const auto scope = target.enter();
  for (std::int64_t k = 0; k < w.key_range; k += kStableStride) {
    const std::optional<std::int64_t> got = target.find(k);
    if (!got || *got != value_of(k)) {
      return "stable key " + std::to_string(k) + " lost after the window";
    }
  }
  return {};
}

// Shows that the online checks count a hidden stable key and a wrong value
// as failed operations (selftest.cpp). Returns the process exit code.
int run_selftest();

}  // namespace perfbench
