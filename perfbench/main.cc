// The repository benchmark's measuring program (see NOTES.md). Runs one
// workload in this process and prints one JSON object on stdout:
//
//   paxi_perfbench --workload lan_paxos --seed 1 --seconds 15 --trace 0
//       [--trace-out spans.json]
//
// --trace 0 repeats the seeded workload (or its seeded scenarios in turn),
// untraced, a fixed number of times set by the workload and --seconds
// (PlannedReps), and reports the end-to-end metrics, run times as the best
// of the repetitions slice by slice (SliceBest). --trace 1 runs the
// per-layer measurements instead: traced repetitions, ablations and layer
// microbenchmarks. Either way every repetition's virtual-time results and
// counts must match its scenario's first exactly, and its recorded history
// must pass CheckReadModes.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/sweep.h"
#include "common/pool.h"
#include "micro.h"
#include "trace.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

/// Set-ups timed after each end-to-end repetition. One takes tens of
/// microseconds, so its time is the best of many.
constexpr int kSetupsPerRep = 8;
constexpr std::size_t kMaxReps = 200;
/// Least rounds of repetitions in the per-layer run.
constexpr std::size_t kLayerRounds = 5;
/// A run on a machine much slower than the reference stops early, with
/// fewer repetitions than planned, once this multiple of --seconds of wall
/// time has passed, so its length stays bounded.
constexpr double kWallCap = 1.4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Pins the thread to one CPU, as perf_smoke's single lane does, so the
/// simulation is not migrated mid-repetition; before each repetition it
/// picks the allowed CPU on which the workload's own set-up runs fastest.
/// On a shared machine one CPU can run a third slower than another for
/// minutes at a time, and which one moves: measured on the reference
/// machine, CPU 0 ran lan_paxos at 37k ops per CPU second twice in a row
/// while CPUs 2 and 3 ran 49k, and CPU 1 read 51k, then 34k a minute later.
/// Staying on the CPU the process started on made that the largest part of
/// the spread between runs. The set-up time tracked those speeds closely;
/// a pointer chase did not.
class QuietCpu {
 public:
  QuietCpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
  }

  /// Pins the thread to the allowed CPU where `w`'s set-up ran fastest and
  /// returns it, or -1 when pinning failed (the run goes on unpinned).
  int Pin(const Workload& w) {
    int best_cpu = -1;
    double best_s = 0;
    for (const int cpu : cpus_) {
      if (!PinTo(cpu)) continue;
      double s = SetupOnce(w);
      for (int i = 1; i < kTrials; ++i) s = std::min(s, SetupOnce(w));
      if (best_cpu < 0 || s < best_s) {
        best_cpu = cpu;
        best_s = s;
      }
    }
    if (best_cpu < 0 || !PinTo(best_cpu)) return -1;
    ++uses_[best_cpu];
    return best_cpu;
  }

  std::size_t allowed() const { return cpus_.size(); }

  /// How often each CPU was picked, as "cpu:count cpu:count".
  std::string Uses() const {
    std::string out;
    for (const auto& [cpu, count] : uses_) {
      out += (out.empty() ? "" : " ") + std::to_string(cpu) + ":" +
             std::to_string(count);
    }
    return out;
  }

 private:
  static constexpr int kTrials = 8;

  static bool PinTo(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }

  std::vector<int> cpus_;
  std::map<int, int> uses_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The end-to-end repetitions of a run of `seconds`: fixed for a workload
/// and --seconds, so two builds compared with each other take their
/// slice-best minima over the same number of repetitions however fast each
/// runs. The workload's rep_s sizes it to fill `seconds` on the reference
/// machine; it is a whole number of rounds over the workload's scenarios,
/// at least two.
std::size_t PlannedReps(const Workload& w, double seconds) {
  const auto scenarios = static_cast<std::size_t>(w.scenarios);
  const auto reps = static_cast<std::size_t>(seconds / w.rep_s);
  return std::clamp<std::size_t>(reps / scenarios, 2, kMaxReps / scenarios) *
         scenarios;
}

struct Metric {
  double value;
  const char* unit;
};

/// Accumulates the JSON result; metrics keep insertion order.
struct Output {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::map<std::string, std::string> env;

  void Add(const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                correct ? "true" : "false", attempted, failed);
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.value, metrics[i].second.unit);
    }
    std::printf("}, \"env\": {");
    bool first = true;
    for (const auto& [key, value] : env) {
      std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                  value.c_str());
      first = false;
    }
    std::printf("}}\n");
  }
};

/// Fails the run when a repetition's deterministic results differ from
/// the first repetition's.
void RequireSameCounts(const Counts& first, const Counts& again,
                       const char* what) {
  if (first == again) return;
  const std::string field = FirstDifference(first, again);
  throw std::runtime_error(std::string("nondeterminism: ") + what +
                           " differs from the first repetition in " +
                           (field.empty() ? "a count" : field));
}

void AddOutcome(const Counts& c, Output* out) {
  out->attempted += c.completed + c.errors;
  out->failed += c.errors + c.anomalies;
  out->correct = out->correct && c.anomalies == 0 && c.completed > 0;
}

/// Run times are the best of many repetitions, slice by slice. On a shared
/// machine noise only ever slows the work down, in spells from tens of
/// milliseconds to tens of seconds: one repetition's time swings by a
/// third, and so does the fastest whole repetition of a run. A slice of a
/// few CPU milliseconds finds a quiet moment in some repetition, so the sum
/// of each slice's fastest time moves by a few percent between runs.
class SliceBest {
 public:
  void Add(const std::vector<double>& slice_s) {
    if (best_.empty()) {
      best_ = slice_s;
      return;
    }
    if (slice_s.size() != best_.size()) {
      throw std::runtime_error("nondeterminism: slice count differs");
    }
    for (std::size_t k = 0; k < best_.size(); ++k) {
      best_[k] = std::min(best_[k], slice_s[k]);
    }
  }

  double Total() const {
    double total = 0;
    for (const double s : best_) total += s;
    return total;
  }

 private:
  std::vector<double> best_;
};

/// --trace 0: the end-to-end metrics, untraced. The repetitions take the
/// workload's scenarios in turn; each scenario keeps its own slice-best
/// times and fastest check, and must repeat its own first results.
void RunEndToEnd(const std::vector<Workload>& scenarios, double seconds,
                 QuietCpu* cpu, Output* out) {
  struct Scenario {
    Counts counts;
    paxi::Sampler latency_ms;
    SliceBest run_s;
    double verify_s = 0;
    std::size_t reps = 0;
  };
  std::vector<Scenario> done(scenarios.size());
  const std::size_t planned = PlannedReps(scenarios.front(), seconds);
  std::vector<double> setup;
  const Clock::time_point start = Clock::now();
  std::size_t reps = 0;
  while (reps < planned && (reps < 2 * scenarios.size() ||
                            SecondsSince(start) < kWallCap * seconds)) {
    const Workload& w = scenarios[reps % scenarios.size()];
    Scenario& s = done[reps % scenarios.size()];
    ++reps;
    cpu->Pin(w);
    Rep rep = RunRep(w, RepOptions{.slices = true}, nullptr, -1);
    // Set-ups are timed in a burst after each repetition, so they too are
    // spread over the run.
    for (int i = 0; i < kSetupsPerRep; ++i) setup.push_back(SetupOnce(w));
    s.run_s.Add(rep.slice_s);
    if (s.reps++ == 0) {
      s.counts = rep.counts;
      s.latency_ms = std::move(rep.latency_ms);
      s.verify_s = rep.verify_s;
    } else {
      RequireSameCounts(s.counts, rep.counts, "repetition");
      s.verify_s = std::min(s.verify_s, rep.verify_s);
    }
  }

  double ops = 0;
  double run_s = 0;
  double verify_s = 0;
  double virt_ops_per_s = 0;
  paxi::Sampler latency_ms;
  for (const Scenario& s : done) {
    AddOutcome(s.counts, out);
    ops += static_cast<double>(s.counts.ops_total);
    run_s += s.run_s.Total();
    verify_s += s.verify_s;
    virt_ops_per_s += s.counts.virt_ops_per_s;
    latency_ms.Merge(s.latency_ms);
  }
  out->Add("sim_ops_per_s", Ratio(ops, run_s), "1/s");
  out->Add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
  out->Add("verify_s", verify_s, "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  out->Add("virt_ops_per_s",
           virt_ops_per_s / static_cast<double>(done.size()), "1/s");
  // The median latency is quantized to the simulator's 1 us clock and
  // reads the same on every lan_paxos seed; the mean carries the same
  // information and is what BENCHMARK.json gates. p50 stays in the record.
  out->Add("virt_mean_ms", latency_ms.mean(), "ms");
  out->Add("virt_p50_ms", latency_ms.Median(), "ms");
  out->Add("virt_p99_ms", latency_ms.Percentile(99), "ms");
  out->Add("virt_samples", static_cast<double>(latency_ms.count()), "count");
  out->Add("ops_attempted", static_cast<double>(out->attempted), "count");
  out->env["reps"] = std::to_string(reps);
  out->env["planned_reps"] = std::to_string(planned);
  out->env["scenarios"] = std::to_string(scenarios.size());
  out->env["setup_samples"] = std::to_string(setup.size());
}

/// --trace 1: the per-layer metrics, from a fixed number of rounds of four
/// sliced repetitions (full, without op recording, traced, echo ablation),
/// each kind timed like the end-to-end runs.
void RunPerLayer(const Workload& w, std::uint64_t seed, double seconds,
                 QuietCpu* cpu, Tracer* tracer, Output* out) {
  const ScopedSpan root(tracer, "perfbench " + w.name, -1);
  cpu->Pin(w);

  // A first full repetition supplies the op stream and the counts and
  // warms the process (fresh memory, pool slabs); its times are not used.
  // It is not sliced, so the sliced repetitions matching its counts shows
  // that slicing changes no result.
  const Rep first = RunRep(w, RepOptions{.keep_ops = true}, tracer, root.id());
  const Counts& c = first.counts;

  // The full repetitions are the baseline the ablations are subtracted
  // from; the first also counts pool traffic. The traced ones time every
  // event with a SimObserver; the gap statistics are the last one's.
  // A round costs about four end-to-end repetitions.
  const std::size_t rounds =
      std::max(kLayerRounds, PlannedReps(w, seconds) / 4);
  const Workload echo_w = EchoAblation(w);
  SliceBest full_run_s;
  SliceBest norecord_run_s;
  SliceBest traced_run_s;
  SliceBest echo_run_s;
  std::size_t echo_ops = 0;
  double verify_s = 0;
  paxi::BlockPool::Stats pool_before;
  paxi::BlockPool::Stats pool_after;
  EventGapObserver gaps;
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  for (; i < rounds &&
         (i < kLayerRounds || SecondsSince(start) < kWallCap * seconds);
       ++i) {
    cpu->Pin(w);
    if (i == 0) pool_before = paxi::BlockPool::Local().stats();
    const Rep full = RunRep(w, RepOptions{.slices = true}, tracer, root.id());
    if (i == 0) pool_after = paxi::BlockPool::Local().stats();
    RequireSameCounts(c, full.counts, "full repetition");
    full_run_s.Add(full.slice_s);
    verify_s = i == 0 ? full.verify_s : std::min(verify_s, full.verify_s);

    const Rep norecord = RunRep(
        w, RepOptions{.record_ops = false, .slices = true}, tracer, root.id());
    if (norecord.counts.completed != c.completed ||
        norecord.counts.events != c.events ||
        norecord.counts.virt_p99_ms != c.virt_p99_ms) {
      throw std::runtime_error("nondeterminism: record_ops changed the run");
    }
    norecord_run_s.Add(norecord.slice_s);

    const Rep traced = RunRep(
        w, RepOptions{.observer = &gaps, .slices = true}, tracer, root.id());
    RequireSameCounts(c, traced.counts, "traced repetition");
    traced_run_s.Add(traced.slice_s);

    // Echo ablation on the same topology and clients.
    const Rep echo = RunRep(echo_w, RepOptions{.check = false, .slices = true},
                            tracer, root.id());
    if (echo.counts.ops_total == 0 || echo.counts.errors != 0) {
      throw std::runtime_error("echo ablation served no requests");
    }
    if (echo_ops != 0 && echo.counts.ops_total != echo_ops) {
      throw std::runtime_error("nondeterminism: echo repetitions differ");
    }
    echo_ops = echo.counts.ops_total;
    echo_run_s.Add(echo.slice_s);
  }
  out->env["rounds"] = std::to_string(i);
  out->env["planned_rounds"] = std::to_string(rounds);

  const double ops = static_cast<double>(c.ops_total);
  const double events = static_cast<double>(c.events);
  const double full_ns_per_op = full_run_s.Total() * 1e9 / ops;
  const double echo_ns_per_op =
      echo_run_s.Total() * 1e9 / static_cast<double>(echo_ops);
  const std::size_t queue_depth =
      static_cast<std::size_t>(gaps.MeanQueueDepth() + 0.5);

  // Layer microbenchmarks at the run's own sizes.
  cpu->Pin(w);
  const auto micro = [&](const char* name, auto&& fn) {
    const ScopedSpan span(tracer, name, root.id());
    return fn();
  };
  const double kernel_ns = micro("micro sim.kernel",
                                 [&] { return KernelNsPerEvent(queue_depth); });
  const double lan_ns = micro("micro net.sample_lan", [&] {
    return LatencySampleNs(paxi::Config::Lan9("paxos"), seed);
  });
  const double wan_ns = micro("micro net.sample_wan", [&] {
    return LatencySampleNs(paxi::Config::Wan5("paxos", 3), seed);
  });
  const double send_ns = micro("micro net.send_deliver", [&] {
    return SendDeliverNs(w.config, seed);
  });
  const double execute_ns = micro("micro store.execute", [&] {
    return StoreExecuteNs(first.ops);
  });
  const double wal_ns = micro("micro store.wal_append_decode", [&] {
    return WalAppendDecodeNs(
        first.ops, static_cast<int>(w.config.GetParamInt("batch_max", 1)));
  });
  const double next_ns = micro("micro workload.next", [&] {
    return WorkloadNextNs(w.options.workload, seed);
  });

  const paxi::Sampler& gap_ns = gaps.gaps_ns();
  AddOutcome(c, out);
  out->Add("sim.events_per_op", events / ops, "events/op");
  out->Add("sim.ns_per_op", full_ns_per_op, "ns");
  out->Add("sim.ns_per_event", gap_ns.mean(), "ns");
  out->Add("sim.event_ns_p50", gap_ns.Percentile(50), "ns");
  out->Add("sim.event_ns_p99", gap_ns.Percentile(99), "ns");
  out->Add("sim.queue_depth", gaps.MeanQueueDepth(), "events");
  out->Add("sim.kernel_ns_per_event", kernel_ns, "ns");
  out->Add("net.msgs_per_op", static_cast<double>(c.msgs_sent) / ops,
           "msgs/op");
  out->Add("net.sample_ns_lan", lan_ns, "ns");
  out->Add("net.sample_ns_wan", wan_ns, "ns");
  out->Add("net.send_deliver_ns", send_ns, "ns");
  out->Add("core.echo_ns_per_op", echo_ns_per_op, "ns");
  out->Add("core.leader_msgs_per_op",
           static_cast<double>(c.max_node_msgs) / ops, "msgs/op");
  out->Add("protocols.ns_per_op", full_ns_per_op - echo_ns_per_op, "ns");
  out->Add("protocols.pipeline_ops_per_slot",
           Ratio(static_cast<double>(c.consensus_ops),
                 static_cast<double>(c.slots)),
           "ops/slot");
  out->Add("store.live_log_entries", static_cast<double>(c.live_log_entries),
           "count");
  out->Add("store.history_entries", static_cast<double>(c.history_entries),
           "count");
  out->Add("store.execute_ns", execute_ns, "ns");
  out->Add("store.snapshots_taken", static_cast<double>(c.snapshots_taken),
           "count");
  out->Add("store.wal_syncs_per_op", static_cast<double>(c.wal_syncs) / ops,
           "syncs/op");
  out->Add("store.wal_group_commit_mean",
           Ratio(static_cast<double>(c.wal_records_synced),
                 static_cast<double>(c.wal_syncs)),
           "records/sync");
  out->Add("store.wal_bytes_per_op", static_cast<double>(c.wal_bytes) / ops,
           "B/op");
  out->Add("store.wal_append_decode_ns", wal_ns, "ns");
  out->Add("lease.local_read_share",
           Ratio(static_cast<double>(c.lease_reads),
                 static_cast<double>(c.reads)),
           "share");
  out->Add("lease.degradations", static_cast<double>(c.lease_degradations),
           "count");
  out->Add("shard.migrations_completed",
           static_cast<double>(c.migrations_completed), "count");
  out->Add("shard.install_retries", static_cast<double>(c.install_retries),
           "count");
  out->Add("checker.ns_per_op", verify_s * 1e9 / ops, "ns");
  out->Add("workload.next_ns", next_ns, "ns");
  out->Add("common.pool_allocs_per_event",
           static_cast<double>(pool_after.allocs - pool_before.allocs) /
               events,
           "allocs/event");
  out->Add("common.pool_fresh_per_event",
           static_cast<double>(pool_after.FreshAllocs() -
                               pool_before.FreshAllocs()) /
               events,
           "allocs/event");
  out->Add("benchmark.record_ns_per_op",
           (full_run_s.Total() - norecord_run_s.Total()) * 1e9 / ops, "ns");
  out->Add("trace.overhead_ratio", traced_run_s.Total() / full_run_s.Total(),
           "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: paxi_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
#if defined(PERFBENCH_SANITIZED) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "refusing to measure a sanitizer or unoptimized build\n");
  return 2;
#endif
  if (const char* audit = std::getenv("PAXI_AUDIT");
      audit != nullptr && audit[0] == '1') {
    std::fprintf(stderr, "refusing to measure with PAXI_AUDIT=1\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // The end-to-end run's scenarios: --seed, then seeds derived from it.
  // The per-layer run measures the first.
  std::vector<Workload> scenarios = {w};
  for (int k = 1; k < w.scenarios; ++k) {
    scenarios.emplace_back();
    MakeWorkload(args.workload, paxi::DerivePointSeed(args.seed, k),
                 &scenarios.back());
  }

  Output out;
  QuietCpu cpu;
  out.env["workload"] = w.name;
  out.env["seed"] = std::to_string(args.seed);
  out.env["build_type"] = PERFBENCH_BUILD_TYPE;
  out.env["cores"] = std::to_string(cpu.allowed());
  out.env["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  try {
    if (args.trace == 0) {
      RunEndToEnd(scenarios, args.seconds, &cpu, &out);
    } else {
      Tracer tracer;
      RunPerLayer(w, args.seed, args.seconds, &cpu, &tracer, &out);
      if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", w.name.c_str(), e.what());
    return 3;
  }
  out.env["pinned_cpus"] = cpu.Uses();
  out.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
