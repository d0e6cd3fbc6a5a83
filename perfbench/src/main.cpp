// Repository benchmark program (design and metrics: ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out DIR]
//   perfbench --selftest
//
// Prints a readable report, then one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using citrus::adapters::IDictionary;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool has_seed = false;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {uniform-1m|scan-16k|zipf-1m} "
               "--seed N --seconds 1..60 --trace 0|1 [--trace-out DIR]\n"
               "       perfbench --selftest\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& s,
                         std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || p != end || v > max) {
    usage("bad value for " + flag + ": '" + s + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      a.workload = nullptr;
      for (const Workload& w : kWorkloads) {
        if (w.name == value) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value, std::numeric_limits<std::uint64_t>::max());
      a.has_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_uint(flag, value, 60));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_uint(flag, value, 1));
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.selftest) return a;
  if (a.workload == nullptr || !a.has_seed || a.seconds < 1 || a.trace < 0) {
    usage("--workload, --seed, --seconds (1..60) and --trace are required");
  }
  return a;
}

// Resident set of this process in bytes, read without allocating. Free
// memory the allocator still holds is released first, so the reading
// counts memory in use rather than whatever glibc happened to keep.
double rss_bytes() {
  ::malloc_trim(0);
  char buf[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  const ssize_t n = fd < 0 ? -1 : ::read(fd, buf, sizeof buf - 1);
  if (fd >= 0) ::close(fd);
  unsigned long pages = 0, resident = 0;
  if (n <= 0 || std::sscanf(buf, "%lu %lu", &pages, &resident) != 2) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE));
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Untraced runs measure in one-second slices. The traced run alternates its
// two lanes in half-second slices (at least four, so that lane A has traced
// and untraced ones), and each lane gets the full warm-up.
PassControl make_control(const Workload& w, int seconds, bool traced) {
  const int slices = traced ? std::max(4, 2 * seconds) : seconds;
  const double len = static_cast<double>(seconds) / slices;
  const int lanes = traced ? 2 : 1;
  return PassControl(lanes * static_cast<int>(std::ceil(w.warmup_s / len)),
                     slices,
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(len)),
                     traced);
}

std::vector<WorkerLog> make_logs(int slices, std::size_t span_capacity) {
  std::vector<WorkerLog> logs;
  logs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) logs.emplace_back(slices, span_capacity);
  return logs;
}

Histogram merged(const std::vector<WorkerLog>& logs, int slices, OpClass c) {
  Histogram h;
  for (const WorkerLog& l : logs) {
    for (int s = 0; s < slices; ++s) h.merge(l.at(s, c));
  }
  return h;
}

std::vector<double> slice_throughput(const std::vector<WorkerLog>& logs,
                                     const std::vector<double>& lengths) {
  std::vector<double> out;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    std::uint64_t ops = 0;
    for (const WorkerLog& l : logs) ops += l.ops[s];
    out.push_back(static_cast<double>(ops) / lengths[s]);
  }
  return out;
}

// Median over the window's slices of each slice's p50 and p99, in us.
struct ClassLatency {
  double p50_us = 0, p99_us = 0;
  std::uint64_t samples = 0;       // whole window
  std::uint64_t fewest = 0;        // in any one slice
};

ClassLatency class_latency(const std::vector<WorkerLog>& logs, int slices,
                           OpClass c) {
  std::vector<double> p50, p99;
  ClassLatency out;
  out.fewest = std::numeric_limits<std::uint64_t>::max();
  for (int s = 0; s < slices; ++s) {
    Histogram h;
    for (const WorkerLog& l : logs) h.merge(l.at(s, c));
    out.samples += h.count();
    out.fewest = std::min(out.fewest, h.count());
    if (h.count() == 0) continue;
    p50.push_back(h.percentile(0.50));
    p99.push_back(h.percentile(0.99));
  }
  if (p50.empty()) {
    throw std::runtime_error(std::string("no ") + kClassNames[c] +
                             " operation completed in the window");
  }
  out.p50_us = median(p50) / 1000.0;
  out.p99_us = median(p99) / 1000.0;
  return out;
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0, updates = 0, erased = 0;
  std::string first_failure;
};

Totals totals(const std::vector<WorkerLog>& logs) {
  Totals t;
  for (const WorkerLog& l : logs) {
    t.attempted += l.attempted;
    t.failed += l.failed;
    t.updates += l.updates;
    t.erased += l.erased;
    if (t.first_failure.empty()) t.first_failure = l.first_failure;
  }
  return t;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
  const char* moves = nullptr;  // per-layer: the end-to-end metric it moves
};

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// The result line: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string("\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_checks(const Totals& t, const std::string& problem) {
  std::printf("checks: %llu operations attempted, %llu failed "
              "(failed_ops_ratio %s)%s%s\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              number(ratio(static_cast<double>(t.failed),
                           static_cast<double>(t.attempted)))
                  .c_str(),
              t.failed > 0 ? ", first: " : "", t.first_failure.c_str());
  std::printf("after the window: %s\n",
              problem.empty() ? "structure ok, size balances, stable keys intact"
                              : problem.c_str());
}

// One setup, timed from construction to the last insert. Free memory goes
// back to the system first, so every setup faults its pages in, as the
// first one in a process does.
std::unique_ptr<IDictionary> timed_setup(const std::vector<std::int64_t>& keys,
                                         std::vector<double>& setup_s) {
  ::malloc_trim(0);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<IDictionary> dict = make_production();
  DictTarget target(*dict);
  if (!load(target, keys)) throw std::runtime_error("an insert failed at setup");
  setup_s.push_back(seconds_since(t0));
  return dict;
}

void print_header(const Workload& w, const Args& a, const PassControl& ctl) {
  std::printf("perfbench: %.*s seed %llu, %d closed-loop clients, %d warm-up "
              "and %d window slices of %.3f s, trace %d\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(a.seed), kThreads,
              ctl.warmup_slices, ctl.window_slices,
              std::chrono::duration<double>(ctl.slice_len).count(), a.trace);
}

int run_untraced(const Workload& w, const Args& a) {
  // Every benchmark buffer exists, and the clients are parked, before the
  // first resident-set reading; all of them outlive the second.
  const std::vector<std::int64_t> keys = initial_keys(w, a.seed);
  PassControl ctl = make_control(w, a.seconds, false);
  std::vector<WorkerLog> logs = make_logs(ctl.window_slices, 0);
  std::vector<double> setup_s;
  setup_s.reserve(static_cast<std::size_t>(w.setup_reps));
  Crew crew;
  print_header(w, a, ctl);
  // Half of the extra setups run before the first resident-set reading and
  // half after the last, so that setup_s samples the machine at both ends
  // of the run. The trims release what they free before each reading.
  while (setup_s.size() < static_cast<std::size_t>(w.setup_reps / 2)) {
    timed_setup(keys, setup_s);  // destroyed untimed
  }
  const double rss_before = rss_bytes();

  std::unique_ptr<IDictionary> dict = timed_setup(keys, setup_s);
  DictTarget target(*dict);
  const std::vector<double> lengths = run_pass(
      ctl, crew,
      [&](int t) {
        Lane<DictTarget> lane(target, logs[static_cast<std::size_t>(t)], w,
                              a.seed, t);
        run_client(ctl, lane, static_cast<Lane<DictTarget>*>(nullptr));
      },
      sleep_until_due);
  const double rss_after = rss_bytes();
  const std::size_t size = dict->size();
  const std::string problem = verify_quiescent(
      target, dict->check_structure(), size, keys.size(), logs, w);
  dict.reset();
  while (setup_s.size() < static_cast<std::size_t>(w.setup_reps)) {
    timed_setup(keys, setup_s);  // destroyed untimed
  }

  const std::vector<double> tput = slice_throughput(logs, lengths);
  ClassLatency lat[kClasses];
  for (int c = 0; c < kClasses; ++c) {
    lat[c] = class_latency(logs, ctl.window_slices, static_cast<OpClass>(c));
  }
  const double bytes_per_key =
      (rss_after - rss_before) / static_cast<double>(std::max<std::size_t>(size, 1));
  const Totals t = totals(logs);

  std::printf("setup: %zu keys loaded on one thread; setup_s %.5f, the median "
              "of %d (min %.5f, max %.5f)",
              keys.size(), median(setup_s), w.setup_reps,
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("\nthroughput: median %.0f ops/s over %d slices:", median(tput),
              ctl.window_slices);
  for (const double x : tput) std::printf(" %.0f", x);
  std::printf("\nlatency: median over slices of each slice's percentile\n");
  for (int c = 0; c < kClasses; ++c) {
    std::printf("  %-6s p50 %8.3f us  p99 %8.3f us  samples %llu (fewest in a "
                "slice %llu, beyond its p99 %llu)\n",
                kClassNames[c], lat[c].p50_us, lat[c].p99_us,
                static_cast<unsigned long long>(lat[c].samples),
                static_cast<unsigned long long>(lat[c].fewest),
                static_cast<unsigned long long>(lat[c].fewest / 100));
  }
  std::printf("memory: resident set +%.1f MB for %zu keys = %.2f B/key\n",
              (rss_after - rss_before) / 1e6, size, bytes_per_key);
  print_checks(t, problem);

  const bool correct = t.failed == 0 && problem.empty();
  print_result(correct, t.attempted, t.failed,
               {{"throughput_ops_s", median(tput), "ops/s"},
                {"read_p50_us", lat[kRead].p50_us, "us"},
                {"read_p99_us", lat[kRead].p99_us, "us"},
                {"update_p50_us", lat[kUpdate].p50_us, "us"},
                {"update_p99_us", lat[kUpdate].p99_us, "us"},
                {"scan_p50_us", lat[kScan].p50_us, "us"},
                {"scan_p99_us", lat[kScan].p99_us, "us"},
                {"bytes_per_key", bytes_per_key, "B"},
                {"setup_s", median(setup_s), "s"}});
  return 0;
}

void write_spans(const std::string& dir, const Workload& w, const Args& a,
                 const std::vector<WorkerLog>& lane_a,
                 const std::vector<WorkerLog>& lane_b,
                 const std::vector<Span>& syncs) {
  const std::string path = dir + "/" + std::string(w.name) + "-seed" +
                           std::to_string(a.seed) + ".spans.csv";
  std::ofstream out(path);
  out << "lane,layer,thread,op,name,start_ns,end_ns\n";
  const auto emit = [&out](const char* lane, const char* layer, int thread,
                           const Span& s) {
    out << lane << ',' << layer << ',' << thread << ',' << s.op << ','
        << kSpanNames[static_cast<int>(s.name)] << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  };
  for (int t = 0; t < kThreads; ++t) {
    for (const Span& s : lane_a[static_cast<std::size_t>(t)].spans) {
      emit("A", s.name == SpanName::kClockPair ? "bench" : "adapters", t, s);
    }
    for (const Span& s : lane_b[static_cast<std::size_t>(t)].spans) {
      const char* layer = s.name == SpanName::kClockPair     ? "bench"
                          : s.name == SpanName::kReadSection ? "rcu"
                                                             : "citrus";
      emit("B", layer, t, s);
    }
  }
  for (const Span& s : syncs) emit("B", "rcu", kThreads, s);
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  std::printf("spans: %s\n", path.c_str());
}

int run_traced(const Workload& w, const Args& a) {
  const std::vector<std::int64_t> keys = initial_keys(w, a.seed);
  PassControl ctl = make_control(w, a.seconds, true);
  print_header(w, a, ctl);
  // Enough for 8k logged spans per client-second (about 2.8M ops/s per
  // client); any excess is counted and reported as dropped.
  const auto span_capacity = static_cast<std::size_t>(8192) *
                             static_cast<std::size_t>(a.seconds);
  std::vector<WorkerLog> logs_a = make_logs(ctl.window_slices, span_capacity);
  std::vector<WorkerLog> logs_b = make_logs(ctl.window_slices, span_capacity);
  Histogram sync_wait;
  std::vector<Span> sync_spans;
  std::uint64_t bench_syncs = 0;

  Crew crew;
  // Lane A: the production dictionary through the adapters layer.
  const std::unique_ptr<IDictionary> dict = make_production();
  DictTarget target_a(*dict);
  if (!load(target_a, keys)) throw std::runtime_error("an insert failed at setup");
  const double nodes_per_lookup = dict->check_structure().avg_depth;
  // Lane B: the identical tree built directly over a benchmark-owned domain.
  const auto domain = std::make_unique<Rcu>();
  const auto tree = std::make_unique<Tree>(*domain);
  TreeTarget target_b(*tree, *domain);
  if (!load(target_b, keys)) throw std::runtime_error("an insert failed at setup");

  // During B's window slices the control thread issues a timed synchronize,
  // outside any read section, about once a millisecond.
  const auto wait = [&](int s, Clock::time_point due) {
    if (ctl.lane(s) != 1 || ctl.window(s) < 0) {
      std::this_thread::sleep_until(due);
      return;
    }
    const Clock::time_point s0 = Clock::now();
    domain->synchronize();
    const Clock::time_point s1 = Clock::now();
    sync_wait.record(nanos(s1 - s0));
    if (bench_syncs++ % 16 == 0) {
      sync_spans.push_back({bench_syncs, since(ctl.epoch, s0),
                            since(ctl.epoch, s1), SpanName::kSynchronize});
    }
    std::this_thread::sleep_until(
        std::min(s1 + std::chrono::milliseconds(1), due));
  };
  const std::vector<double> lengths = run_pass(
      ctl, crew,
      [&](int t) {
        const auto i = static_cast<std::size_t>(t);
        Lane<DictTarget> lane_a(target_a, logs_a[i], w, a.seed, t);
        Lane<TreeTarget> lane_b(target_b, logs_b[i], w, a.seed, t);
        run_client(ctl, lane_a, &lane_b);
      },
      wait);

  const citrus::core::CitrusStats stats = tree->stats();
  const std::uint64_t sync_calls = domain->synchronize_calls();
  const auto size_b = static_cast<double>(tree->size());
  const double backlog_per_key =
      ratio(static_cast<double>(tree->live_nodes()) - size_b, size_b);
  std::string problem = verify_quiescent(target_a, dict->check_structure(),
                                         dict->size(), keys.size(), logs_a, w);
  if (problem.empty()) {
    problem = verify_quiescent(target_b, tree->check_structure(), tree->size(),
                               keys.size(), logs_b, w);
  }

  Totals t = totals(logs_a);
  const Totals tb = totals(logs_b);
  t.attempted += tb.attempted;
  t.failed += tb.failed;
  if (t.first_failure.empty()) t.first_failure = tb.first_failure;

  // Lane A's slices, traced and not.
  const std::vector<double> tput = slice_throughput(logs_a, lengths);
  std::vector<double> traced_tput, plain_tput;
  for (int s = ctl.warmup_slices; s < ctl.total(); ++s) {
    if (ctl.lane(s) != 0) continue;
    const double x = tput[static_cast<std::size_t>(ctl.window(s))];
    (ctl.traced(s) ? traced_tput : plain_tput).push_back(x);
  }
  Histogram clock_pair, read_section;
  for (const WorkerLog& l : logs_b) {
    clock_pair.merge(l.clock_pair);
    read_section.merge(l.read_section);
  }
  for (const WorkerLog& l : logs_a) clock_pair.merge(l.clock_pair);
  const double clock_ns = clock_pair.percentile(0.5);
  double p50_a[kClasses], p50_b[kClasses];
  for (int c = 0; c < kClasses; ++c) {
    p50_a[c] = merged(logs_a, ctl.window_slices, static_cast<OpClass>(c)).percentile(0.5);
    p50_b[c] = merged(logs_b, ctl.window_slices, static_cast<OpClass>(c)).percentile(0.5);
  }
  const auto updates = static_cast<double>(tb.updates);
  const auto per_k_updates = [updates](double n) { return ratio(1000.0 * n, updates); };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  const std::vector<Metric> metrics = {
      {"adapters.read_self_ns", p50_a[kRead] - p50_b[kRead], "ns", "read_p50_us on scan-16k"},
      {"adapters.update_self_ns", p50_a[kUpdate] - p50_b[kUpdate], "ns", "update_p50_us"},
      {"adapters.scan_self_ns", p50_a[kScan] - p50_b[kScan], "ns", "scan_p50_us on scan-16k"},
      {"citrus.read_ns", p50_b[kRead] - clock_ns, "ns", "read_p50_us"},
      {"citrus.update_ns", p50_b[kUpdate] - clock_ns, "ns", "update_p50_us"},
      {"citrus.scan_ns", p50_b[kScan] - clock_ns, "ns", "scan_p50_us on scan-16k"},
      {"citrus.nodes_per_lookup", nodes_per_lookup, "nodes", "read_p50_us, throughput_ops_s on uniform-1m"},
      {"citrus.two_child_per_kerase", ratio(1000.0 * u(stats.two_child_erases), u(tb.erased)), "1/kerase", "update_p99_us on uniform-1m"},
      {"citrus.retries_per_kupdate", per_k_updates(u(stats.insert_retries + stats.erase_retries)), "1/kupdate", "update_p99_us on zipf-1m"},
      {"citrus.lock_timeouts", u(stats.lock_timeouts), "count", "update_p99_us on zipf-1m"},
      {"citrus.scan_retry_ratio", ratio(u(stats.scan_retries), u(stats.scans)), "ratio", "scan_p99_us on scan-16k"},
      {"citrus.keys_per_scan", ratio(u(stats.scan_keys_visited), u(stats.scans)), "keys", "scan_p50_us on scan-16k"},
      {"citrus.recycled_per_kupdate", per_k_updates(u(stats.recycled_nodes)), "1/kupdate", "bytes_per_key, update_p50_us on uniform-1m"},
      {"citrus.backlog_per_key", backlog_per_key, "ratio", "bytes_per_key on scan-16k"},
      {"rcu.read_section_ns", read_section.percentile(0.5) - clock_ns, "ns", "read_p50_us on scan-16k"},
      {"rcu.sync_per_kupdate", per_k_updates(u(sync_calls - bench_syncs)), "1/kupdate", "update_p50_us, throughput_ops_s on uniform-1m"},
      {"rcu.sync_wait_p50_us", sync_wait.percentile(0.50) / 1000.0, "us", "update_p99_us on uniform-1m"},
      {"rcu.sync_wait_p99_us", sync_wait.percentile(0.99) / 1000.0, "us", "update_p99_us on uniform-1m"},
      {"rcu.gp_shared_ratio", ratio(u(stats.gp_shared), u(stats.gp_started + stats.gp_shared)), "ratio", "throughput_ops_s on uniform-1m, zipf-1m"},
      {"bench.clock_pair_ns", clock_ns, "ns", "context: share of read_p50_us that is the clock"},
      {"bench.trace_overhead", median(plain_tput) / median(traced_tput), "ratio", "context: untraced / traced throughput"},
  };

  std::printf("lane A (adapters) p50 ns: read %.1f update %.1f scan %.1f; "
              "lane B (direct tree) p50 ns: read %.1f update %.1f scan %.1f\n",
              p50_a[kRead], p50_a[kUpdate], p50_a[kScan], p50_b[kRead],
              p50_b[kUpdate], p50_b[kScan]);
  std::uint64_t dropped = 0;
  for (const std::vector<WorkerLog>* logs : {&logs_a, &logs_b}) {
    for (const WorkerLog& l : *logs) dropped += l.spans_dropped;
  }
  std::printf("samples: clock pairs %llu, read sections %llu, synchronize %llu; "
              "spans dropped %llu\n",
              static_cast<unsigned long long>(clock_pair.count()),
              static_cast<unsigned long long>(read_section.count()),
              static_cast<unsigned long long>(sync_wait.count()),
              static_cast<unsigned long long>(dropped));
  std::printf("%-30s %14s %-10s %s\n", "per-layer metric", "value", "unit",
              "should move");
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.4f %-10s %s\n", m.name, m.value, m.unit, m.moves);
  }
  print_checks(t, problem);
  if (!a.trace_out.empty()) write_spans(a.trace_out, w, a, logs_a, logs_b, sync_spans);

  print_result(t.failed == 0 && problem.empty(), t.attempted, t.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    if (args.selftest) return perfbench::run_selftest();
    return args.trace == 1 ? perfbench::run_traced(*args.workload, args)
                           : perfbench::run_untraced(*args.workload, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
