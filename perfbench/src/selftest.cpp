// Self-test of the benchmark's online checks: the closed-loop clients run
// scan-16k for a short window against the production dictionary, then
// against wrappers that hide one stable key or return a wrong value for
// another. The plain run must count no failure; each faulty one must count
// some.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using citrus::adapters::DictionaryTraits;
using citrus::adapters::Entry;
using citrus::adapters::IDictionary;
using citrus::adapters::RangeVisitor;
using citrus::adapters::ScanOptions;
using citrus::adapters::StatsSnapshot;
using citrus::adapters::ThreadScope;

class Forwarding : public IDictionary {
 public:
  explicit Forwarding(std::unique_ptr<IDictionary> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<ThreadScope> enter_thread() override {
    return inner_->enter_thread();
  }
  bool insert(std::int64_t k, std::int64_t v) override {
    return inner_->insert(k, v);
  }
  bool erase(std::int64_t k) override { return inner_->erase(k); }
  std::optional<std::int64_t> find(std::int64_t k) const override {
    return inner_->find(k);
  }
  std::size_t size() const override { return inner_->size(); }
  UpdateStatus try_insert(std::int64_t k, std::int64_t v) override {
    return inner_->try_insert(k, v);
  }
  UpdateStatus try_erase(std::int64_t k) override { return inner_->try_erase(k); }
  std::optional<Entry> succ(std::int64_t k) const override {
    return inner_->succ(k);
  }
  std::optional<Entry> pred(std::int64_t k) const override {
    return inner_->pred(k);
  }
  std::size_t range(std::int64_t lo, std::int64_t hi, const RangeVisitor& visit,
                    const ScanOptions& opts) const override {
    return inner_->range(lo, hi, visit, opts);
  }
  DictionaryTraits traits() const override { return inner_->traits(); }
  citrus::core::StructureReport check_structure() const override {
    return inner_->check_structure();
  }
  StatsSnapshot stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

 protected:
  std::unique_ptr<IDictionary> inner_;
};

// Never reports `key`, neither to find nor to a scan.
class HidesKey final : public Forwarding {
 public:
  HidesKey(std::unique_ptr<IDictionary> inner, std::int64_t key)
      : Forwarding(std::move(inner)), key_(key) {}

  std::optional<std::int64_t> find(std::int64_t k) const override {
    return k == key_ ? std::nullopt : inner_->find(k);
  }
  std::size_t range(std::int64_t lo, std::int64_t hi, const RangeVisitor& visit,
                    const ScanOptions& opts) const override {
    std::size_t hidden = 0;
    const std::size_t n = inner_->range(
        lo, hi,
        [&](std::int64_t k, std::int64_t v) {
          if (k != key_) return visit(k, v);
          ++hidden;
          return true;
        },
        opts);
    return n - hidden;
  }

 private:
  std::int64_t key_;
};

// Returns the value of `key` off by one from find.
class WrongValue final : public Forwarding {
 public:
  WrongValue(std::unique_ptr<IDictionary> inner, std::int64_t key)
      : Forwarding(std::move(inner)), key_(key) {}

  std::optional<std::int64_t> find(std::int64_t k) const override {
    const std::optional<std::int64_t> v = inner_->find(k);
    return k == key_ && v ? std::optional<std::int64_t>(*v + 1) : v;
  }

 private:
  std::int64_t key_;
};

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  std::string first_failure;
};

Outcome exercise(IDictionary& dict) {
  const Workload& w = kWorkloads[1];  // scan-16k: a short window probes every key
  constexpr std::uint64_t kSeed = 1;
  DictTarget target(dict);
  if (!load(target, initial_keys(w, kSeed))) {
    throw std::runtime_error("an insert failed at setup");
  }
  PassControl ctl(0, 1, std::chrono::milliseconds(300), false);
  std::vector<WorkerLog> logs;
  logs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) logs.emplace_back(1, 0);
  Crew crew;
  run_pass(
      ctl, crew,
      [&](int t) {
        Lane<DictTarget> lane(target, logs[static_cast<std::size_t>(t)], w,
                              kSeed, t);
        run_client(ctl, lane, static_cast<Lane<DictTarget>*>(nullptr));
      },
      sleep_until_due);
  Outcome out;
  for (const WorkerLog& l : logs) {
    out.attempted += l.attempted;
    out.failed += l.failed;
    if (out.first_failure.empty()) out.first_failure = l.first_failure;
  }
  return out;
}

bool expect(const char* what, const Outcome& o, bool want_failures) {
  const bool ok = (o.failed > 0) == want_failures;
  std::printf("selftest %-24s %llu attempted, %llu failed%s%s: %s\n", what,
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              o.failed > 0 ? ", first: " : "", o.first_failure.c_str(),
              ok ? "ok" : "WRONG");
  return ok;
}

}  // namespace

int run_selftest() {
  constexpr std::int64_t kHidden = 16 * 1024;
  constexpr std::int64_t kMisvalued = kHidden + kStableStride;
  static_assert(kHidden % kStableStride == 0 && kMisvalued % kStableStride == 0);

  bool ok = true;
  {
    const std::unique_ptr<IDictionary> plain = make_production();
    ok &= expect("production dictionary", exercise(*plain), false);
  }
  {
    HidesKey hides(make_production(), kHidden);
    ok &= expect("hidden stable key", exercise(hides), true);
  }
  {
    WrongValue wrong(make_production(), kMisvalued);
    ok &= expect("wrong stable value", exercise(wrong), true);
  }
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
