// starlab end-to-end benchmark binary.
//
//   starlab_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <f>] [--threads <n>] [--stamp key=value]...
//
// --trace 0 times the workload's top-level entry point in a closed loop and
// prints the end-to-end metrics; --trace 1 replays the same slot loop
// through each layer with spans and prints the per-layer metrics. Lines
// starting with '#' describe the run; the last line is the JSON result.
// run.py builds this binary and passes the source stamp.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "analysis/stats.hpp"
#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "obs/config.hpp"

namespace {

using e2e::Metric;
using starlab::analysis::median;
using starlab::analysis::quantile;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Host-wide CPU jiffies (all, stolen) from /proc/stat: on a VM, time the
/// hypervisor ran something else explains wall time that no code spent.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

/// Peak resident memory of this process image: VmHWM, which the kernel
/// resets at exec. (ru_maxrss is not: it keeps the peak of the launcher
/// that exec'd this binary.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "VmHWM: <n> kB"
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  double scale = 1.0;
  int threads = 0;  ///< 0: the workload's own pool size
  std::vector<std::string> stamp;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "starlab_e2ebench: " << why
            << "\nusage: starlab_e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--threads <n>] [--stamp key=value]...\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--scale") a.scale = std::stod(v);
      else if (flag == "--threads") a.threads = std::stoi(v);
      else if (flag == "--stamp") a.stamp.push_back(v);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.scale > 0.0 && a.scale <= 1.0)) usage("--scale must be in (0, 1]");
  return a;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# metric %-46s %16.6f %-6s better=%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js << ", ";
    js << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

/// Closed-loop calls the repetition check makes on a run's first world.
constexpr int kRepeatCalls = 2;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const e2e::WorkloadSpec* spec = e2e::find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);
  // The program's own instrumentation stays at its default (off) in every
  // run; the benchmark's spans live in replay.cpp.
  starlab::obs::set_config(starlab::obs::Config::disabled());

  const int cores = host_cores();
  const int threads = std::min(args.threads > 0 ? args.threads : spec->threads, cores);

  std::printf("# workload %s\n", spec->name);
  std::printf("# host cpu=\"%s\" nproc=%d\n", cpu_model().c_str(), cores);
  std::printf("# build compiler=\"%s\" type=%s flags=\"%s\"\n", E2E_COMPILER,
              E2E_BUILD_TYPE, E2E_CXX_FLAGS);
  for (const std::string& s : args.stamp) std::printf("# source %s\n", s.c_str());
  std::printf("# run seed=%llu seconds=%g trace=%d scale=%g pool_threads=%d "
              "call_minutes=%g\n",
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
              args.scale, threads, e2e::kCallMinutes);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  const std::pair<double, double> jiffies0 = cpu_jiffies();
  const auto print_steal = [&] {
    const std::pair<double, double> j = cpu_jiffies();
    const double total = j.first - jiffies0.first;
    std::printf("# host steal_pct=%.2f over the run\n",
                total > 0.0 ? 100.0 * (j.second - jiffies0.second) / total : 0.0);
  };
  const auto fail = [&](const std::string& why) {
    ++failed;
    correct = false;
    std::printf("# FAIL %s\n", why.c_str());
  };

  try {
    if (args.trace == 0) {
      // Closed loop over fresh worlds: set up, call the entry point once,
      // check its rows. The first world is called again and must reproduce
      // its digest. The first spec->fail_worlds worlds make fail_rate's base,
      // so the base does not depend on speed; later worlds only add timing
      // samples (and are checked the same way).
      std::vector<double> setup_s, slots_per_s, cpu_ms;
      double peak_mb = 0.0;
      e2e::FailCount total;
      const double start = now_s();
      for (int k = 0; k < spec->fail_worlds || now_s() - start < args.seconds; ++k) {
        const double t0 = now_s();
        const e2e::World world = e2e::build_world(*spec, args.seed, k, args.scale, threads);
        setup_s.push_back(now_s() - t0);
        const double ts = static_cast<double>(world.terminal_slots);

        std::uint64_t reference = 0;
        for (int rep = 0; rep < (k == 0 ? kRepeatCalls : 1); ++rep) {
          ++attempted;
          const double w0 = now_s(), c0 = cpu_s();
          const e2e::Rows rows = e2e::call_entry(*spec, world);
          const double w1 = now_s(), c1 = cpu_s();
          slots_per_s.push_back(ts / (w1 - w0));
          cpu_ms.push_back((c1 - c0) * 1e3 / ts);
          const std::uint64_t d = e2e::digest(rows);
          if (rep > 0) {
            if (d != reference) {
              fail("world 0 repetition digest " + hex(d) + " != " + hex(reference));
            }
            continue;
          }
          reference = d;
          const e2e::FailCount fc = e2e::count_failures(
              *spec, world, rows,
              spec->entry == e2e::Entry::kOracleCampaign ? e2e::Truth{}
                                                         : e2e::oracle_truth(world));
          std::printf("# world %d setup_s=%.4f call_s=%.4f digest=%s slots=%zu rows=%zu "
                      "failed=%zu decided=%zu agreed=%zu\n",
                      k, setup_s.back(), w1 - w0, hex(d).c_str(), fc.slots, fc.rows,
                      fc.failed, fc.decided, fc.agreed);
          if (fc.rows == 0) fail("world " + std::to_string(k) + " has no output rows");
          if (fc.agreed * 100 < fc.decided * 97) {
            // The paper reports > 99 % agreement with ground truth; far
            // below that the identifier is broken, not just slower.
            fail("world " + std::to_string(k) + " identification agrees on " +
                 std::to_string(fc.agreed) + " of " + std::to_string(fc.decided) +
                 " decided rows");
          }
          if (k < spec->fail_worlds) {
            total.slots += fc.slots;
            total.rows += fc.rows;
            total.failed += fc.failed;
            total.decided += fc.decided;
            total.agreed += fc.agreed;
          }
        }
        // The high-water mark after world 0's set-up and calls: the same work
        // in every run, where the peak after a speed-dependent number of
        // worlds would also depend on how the heap fragmented on the way.
        if (k == 0) peak_mb = peak_rss_mb();
      }
      // Rule of succession, (failed + 1) / (slots + 2): the failure
      // probability's posterior mean. It is never 0, so its run-to-run
      // spread is defined even on workloads where no terminal-slot fails.
      const double fail_rate = static_cast<double>(total.failed + 1) /
                               static_cast<double>(total.slots + 2);
      std::printf("# worlds=%zu calls=%zu fail_rate base: %zu failed of %zu terminal-slots "
                  "(rows %zu, decided %zu, agreed %zu) over the first %d worlds\n",
                  setup_s.size(), slots_per_s.size(), total.failed, total.slots,
                  total.rows, total.decided, total.agreed, spec->fail_worlds);
      const std::vector<Metric> metrics = {
          {"setup_s", median(setup_s), "s", "lower"},
          {"slots_per_s", median(slots_per_s), "1/s", "higher"},
          {"cpu_ms_per_slot", median(cpu_ms), "ms", "lower"},
          {"fail_rate", fail_rate, "ratio", "lower"},
          {"peak_rss_mb", peak_mb, "MB", "lower"},
      };
      print_steal();
      print_metrics(metrics);
      print_result(correct, attempted, failed, metrics);
      return 0;
    }

    // --trace 1: untraced entry-point calls alternate with traced replays
    // of the same window; every replay must reproduce the timed rows. The
    // two medians give the tracing overhead.
    const e2e::World world = e2e::build_world(*spec, args.seed, 0, args.scale, threads);
    const double ts = static_cast<double>(world.terminal_slots);
    std::uint64_t reference = 0;
    std::vector<double> untraced_ms, traced_ms, slot_ms;
    std::vector<std::vector<Metric>> replays;
    const double start = now_s();
    while (replays.size() < kRepeatCalls || now_s() - start < args.seconds) {
      ++attempted;
      const double w0 = now_s();
      const e2e::Rows rows = e2e::call_entry(*spec, world);
      untraced_ms.push_back((now_s() - w0) * 1e3 / ts);
      const std::uint64_t d = e2e::digest(rows);
      if (untraced_ms.size() == 1) reference = d;
      if (d != reference) fail("repetition digest " + hex(d) + " != " + hex(reference));

      ++attempted;
      const std::uint64_t t0 = e2e::wall_ns();
      const e2e::ReplayResult r = e2e::traced_replay(*spec, world);
      const std::uint64_t t1 = e2e::wall_ns();
      const std::uint64_t rd = e2e::digest(r.rows);
      if (rd != reference) {
        fail("traced replay digest " + hex(rd) + " != timed run digest " + hex(reference));
      }
      traced_ms.push_back(static_cast<double>(t1 - t0) / 1e6 / ts);
      e2e::ReplaySummary summary = e2e::summarize_replay(world, r, t0, t1);
      slot_ms.insert(slot_ms.end(), summary.slot_ms.begin(), summary.slot_ms.end());
      replays.push_back(std::move(summary.metrics));
    }
    // Each per-layer value is the median over the run's replays; slot
    // percentiles pool every replay's slots.
    std::vector<Metric> metrics = replays.front();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::vector<double> v;
      for (const std::vector<Metric>& r : replays) v.push_back(r[i].value);
      metrics[i].value = median(v);
    }
    // The tail is the highest of these percentiles with >= 10 samples beyond.
    double tail_pct = 50.0;
    for (const double p : {90.0, 99.0, 99.9}) {
      if (static_cast<double>(slot_ms.size()) * (1.0 - p / 100.0) >= 10.0) tail_pct = p;
    }
    metrics.push_back({"slot.p50_ms", quantile(slot_ms, 0.5), "ms", "lower"});
    metrics.push_back({"slot.ptail_ms", quantile(slot_ms, tail_pct / 100.0), "ms", "lower"});
    metrics.push_back({"slot.ptail_pct", tail_pct, "%", "higher"});
    metrics.push_back(
        {"slot.samples", static_cast<double>(slot_ms.size()), "count", "higher"});
    metrics.push_back({"trace.overhead_frac",
                       median(traced_ms) / median(untraced_ms) - 1.0, "ratio", "lower"});
    std::printf("# catalogue=%zu terminal_slots_per_call=%zu digest=%s pairs=%zu "
                "untraced_ms_per_slot=%.4f traced_ms_per_slot=%.4f\n",
                world.scenario->catalog().size(), world.terminal_slots,
                hex(reference).c_str(), replays.size(), median(untraced_ms),
                median(traced_ms));
    print_steal();
    print_metrics(metrics);
    print_result(correct, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "starlab_e2ebench: %s\n", e.what());
    return 1;
  }
}
