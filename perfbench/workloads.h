// Workload definitions and the one-repetition runner of the repository
// benchmark (NOTES.md). Everything here reaches the simulator through its
// public API only: Cluster, BenchRunner, Nemesis, CheckReadModes and the
// layers' stats accessors.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/runner.h"
#include "core/config.h"
#include "fault/schedule.h"
#include "trace.h"

namespace perfbench {

/// One named workload: the deployment, the closed-loop client load, and
/// the fault schedule armed before Start.
struct Workload {
  std::string name;
  paxi::Config config;
  paxi::BenchOptions options;
  paxi::FaultSchedule faults;
  /// Clients spread over every replica of their zone (EPaxos) rather than
  /// addressing a leader; the echo ablation copies this.
  bool leaderless = false;
  /// Seeded scenarios an end-to-end run rotates through: the first uses
  /// --seed, the rest seeds derived from it. The run pools their virtual
  /// results and sums their run times. More than one where a latency
  /// percentile of one seed's few thousand ops sits on the edge between
  /// two modes (NOTES.md).
  int scenarios = 1;
  /// Wall seconds one end-to-end repetition, with its set-ups, took on the
  /// reference machine when it was quiet. It fixes how many repetitions a
  /// run of --seconds makes on any machine (NOTES.md, Timing).
  double rep_s = 1.0;
};

/// Builds workload `name` with its cluster and client streams seeded from
/// `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

/// The echo ablation of `w`: the same topology, groups, clients and key
/// stream, but every replica is an echo node that executes each request on
/// its own store and replies at once. No faults and no protocol features,
/// so the cost per op left is the core's: kernel, transport, latency
/// sampling, node queue and dispatch, client and runner.
Workload EchoAblation(const Workload& w);

/// The deterministic outcome of one repetition: the virtual-time results
/// and every count the benchmark reports. Two repetitions with the same
/// seed must agree on all of it exactly.
struct Counts {
  std::size_t completed = 0;      ///< In-window successful ops.
  std::size_t errors = 0;         ///< In-window error replies.
  std::size_t ops_total = 0;      ///< Successful ops over the whole run.
  std::size_t consensus_ops = 0;  ///< Of those, ops served by a full round.
  std::size_t reads = 0;
  std::size_t lease_reads = 0;    ///< Reads that declared leader_lease.
  std::size_t anomalies = 0;      ///< CheckReadModes findings.
  std::size_t samples = 0;        ///< Latency samples behind p50/p99.
  double virt_ops_per_s = 0;
  double virt_mean_ms = 0;
  double virt_p50_ms = 0;
  double virt_p99_ms = 0;
  std::size_t events = 0;
  std::size_t msgs_sent = 0;
  std::size_t max_node_msgs = 0;
  /// Log slots (EPaxos: instances) the proposers applied.
  std::int64_t slots = 0;
  std::size_t live_log_entries = 0;
  std::size_t history_entries = 0;
  std::size_t snapshots_taken = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_records_synced = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t lease_degradations = 0;
  std::size_t migrations_started = 0;
  std::size_t migrations_completed = 0;
  std::size_t install_retries = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// Names the first field where `a` and `b` differ, for the error message;
/// empty when no listed field differs. operator== decides whether they do.
std::string FirstDifference(const Counts& a, const Counts& b);

struct RepOptions {
  /// Record per-op histories (BenchOptions::record_ops).
  bool record_ops = true;
  /// Check the recorded history with CheckReadModes. The echo ablation
  /// skips it: echo replicas do not replicate, so reads through different
  /// replicas legitimately disagree.
  bool check = true;
  /// Registered on the simulator for the run (the traced repetition).
  EventGapObserver* observer = nullptr;
  /// Hand the op records back (the store replay microbenchmark).
  bool keep_ops = false;
  /// Also time BenchRunner::Run slice by slice (Rep::slice_s).
  bool slices = false;
};

struct Rep {
  double verify_s = 0;  ///< CheckReadModes over the recorded history.
  /// With RepOptions::slices: the CPU seconds of each consecutive 20 ms of
  /// virtual time of BenchRunner::Run; they sum to the whole call. Slice k
  /// does the same work in every repetition of a seed, so slices of
  /// different repetitions can be compared one by one.
  std::vector<double> slice_s;
  Counts counts;
  paxi::Sampler latency_ms;         ///< In-window op latencies.
  std::vector<paxi::OpRecord> ops;  ///< Only with keep_ops.
};

/// Builds `w`'s cluster, arms its faults and constructs its runner, then
/// tears everything down; returns the CPU seconds of the set-up alone.
double SetupOnce(const Workload& w);

/// Runs one repetition of `w`. With a tracer, spans for set-up, the run
/// and the check are recorded under `parent`. Throws std::runtime_error
/// when the cluster runs under the invariant auditor.
Rep RunRep(const Workload& w, const RepOptions& options, Tracer* tracer,
           int parent);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
