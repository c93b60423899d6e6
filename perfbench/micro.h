// Layer microbenchmarks: each times public calls into one src/ module at
// the sizes the workload's own run produced, and returns CPU nanoseconds
// per operation (the median of a few trials). Each also checks the layer's
// output and throws std::runtime_error when it is wrong.
#ifndef PERFBENCH_MICRO_H_
#define PERFBENCH_MICRO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "checker/linearizability.h"
#include "core/config.h"
#include "workload/workload.h"

namespace perfbench {

/// Event kernel: Simulator::At + RunUntil over `chains` concurrent event
/// chains (the run's mean queue depth) whose captures have the shape of
/// Node::Deliver's: an object pointer, a liveness token, a message handle.
double KernelNsPerEvent(std::size_t chains);

/// TopologyLatencyModel::SampleOneWay over every ordered node pair of
/// `config`'s deployment.
double LatencySampleNs(const paxi::Config& config, std::uint64_t seed);

/// Transport::Send plus the delivery event it schedules, between the nodes
/// of `config`'s deployment, to endpoints that drop what they receive.
double SendDeliverNs(const paxi::Config& config, std::uint64_t seed);

/// KvStore::Execute replaying `ops`, the run's own command stream.
double StoreExecuteNs(const std::vector<paxi::OpRecord>& ops);

/// NodeDisk::Append of accept records carrying `batch` commands each, cut
/// from `ops`, then NodeDisk::Decode of the whole log; per record.
double WalAppendDecodeNs(const std::vector<paxi::OpRecord>& ops, int batch);

/// WorkloadGenerator::Next on `spec`.
double WorkloadNextNs(const paxi::WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H_
