#include "micro.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/live_flag.h"
#include "common/rng.h"
#include "net/latency.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "store/kvstore.h"
#include "store/wal.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kTrials = 5;
constexpr paxi::Time kForever = std::numeric_limits<paxi::Time>::max();

/// Timed-loop results are folded in here so no loop can be optimized away.
volatile std::uint64_t g_sink = 0;

struct Trial {
  std::size_t ops = 0;
  double seconds = 0;
};

/// Median over kTrials of CPU nanoseconds per op; `trial` times only its
/// hot loop, so set-up and teardown stay out of the number.
template <typename Fn>
double MedianNsPerOp(Fn&& trial) {
  std::vector<double> ns;
  for (int i = 0; i < kTrials; ++i) {
    const Trial t = trial();
    ns.push_back(t.ops == 0 ? 0.0
                            : t.seconds * 1e9 / static_cast<double>(t.ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// A field-less message: the smallest thing the transport can carry.
struct ProbeMessage : paxi::Message {};

/// One hop of a kernel-microbenchmark chain. The captures mirror
/// Node::Deliver's event (node pointer, liveness token, message handle);
/// each hop reschedules the chain with a pseudo-random delay, so the heap
/// sees the same mix of orders a real run does.
struct ChainHop {
  paxi::Simulator* sim;
  paxi::LiveRef alive;
  paxi::MessagePtr msg;
  std::int64_t* remaining;

  void operator()() {
    if (!alive || --*remaining < 0) return;
    const auto mix = static_cast<std::uint64_t>(*remaining) *
                     0x9E3779B97F4A7C15ull;
    const paxi::Time delay = 1 + static_cast<paxi::Time>(mix >> 55);
    sim->At(sim->Now() + delay,
            ChainHop{sim, std::move(alive), std::move(msg), remaining});
  }
};

class NullEndpoint : public paxi::Endpoint {
 public:
  explicit NullEndpoint(paxi::NodeId id) : id_(id) {}
  paxi::NodeId id() const override { return id_; }
  void Deliver(paxi::MessagePtr msg) override {
    (void)msg;
    ++delivered_;
  }
  std::size_t delivered() const { return delivered_; }

 private:
  paxi::NodeId id_;
  std::size_t delivered_ = 0;
};

std::vector<std::pair<paxi::NodeId, paxi::NodeId>> NodePairs(
    const paxi::Config& config) {
  const std::vector<paxi::NodeId> nodes = config.Nodes();
  std::vector<std::pair<paxi::NodeId, paxi::NodeId>> pairs;
  for (const paxi::NodeId& a : nodes) {
    for (const paxi::NodeId& b : nodes) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  if (pairs.empty()) throw std::runtime_error("deployment has < 2 nodes");
  return pairs;
}

paxi::Command CommandOf(const paxi::OpRecord& op, std::size_t index) {
  paxi::Command cmd;
  cmd.op = op.is_write ? paxi::Command::Op::kPut : paxi::Command::Op::kGet;
  cmd.key = op.key;
  if (op.is_write) cmd.value = op.value;
  cmd.client = op.client;
  cmd.request = static_cast<paxi::RequestId>(index + 1);
  return cmd;
}

}  // namespace

double KernelNsPerEvent(std::size_t chains) {
  chains = std::max<std::size_t>(chains, 1);
  return MedianNsPerOp([chains] {
    paxi::LiveFlag alive;
    paxi::Simulator sim(1);
    std::int64_t remaining = 500'000;
    for (std::size_t i = 0; i < chains; ++i) {
      sim.At(static_cast<paxi::Time>(i),
             ChainHop{&sim, paxi::LiveRef(alive),
                      paxi::MakeMessage<ProbeMessage>(), &remaining});
    }
    const double t0 = ThreadCpuSeconds();
    const std::size_t events = sim.RunUntil(kForever);
    const double secs = ThreadCpuSeconds() - t0;
    if (sim.pending_events() != 0 || events < 500'000) {
      throw std::runtime_error("kernel microbenchmark lost events");
    }
    return Trial{events, secs};
  });
}

double LatencySampleNs(const paxi::Config& config, std::uint64_t seed) {
  const paxi::TopologyLatencyModel model(config.topology);
  const auto pairs = NodePairs(config);
  paxi::Rng rng(seed);
  return MedianNsPerOp([&] {
    constexpr std::size_t kSamples = 300'000;
    std::uint64_t sum = 0;
    const double t0 = ThreadCpuSeconds();
    for (std::size_t i = 0; i < kSamples; ++i) {
      const auto& [from, to] = pairs[i % pairs.size()];
      sum += static_cast<std::uint64_t>(model.SampleOneWay(from, to, rng));
    }
    const double secs = ThreadCpuSeconds() - t0;
    if (sum == 0) throw std::runtime_error("latency model sampled only zeros");
    g_sink = g_sink + sum;
    return Trial{kSamples, secs};
  });
}

double SendDeliverNs(const paxi::Config& config, std::uint64_t seed) {
  const auto pairs = NodePairs(config);
  return MedianNsPerOp([&] {
    constexpr std::size_t kRounds = 100;
    constexpr std::size_t kPerRound = 1000;
    std::vector<std::unique_ptr<NullEndpoint>> endpoints;
    paxi::Simulator sim(seed);
    paxi::Transport transport(
        &sim, std::make_shared<paxi::TopologyLatencyModel>(config.topology),
        config.ordered_transport);
    for (const paxi::NodeId& id : config.Nodes()) {
      endpoints.push_back(std::make_unique<NullEndpoint>(id));
      transport.Register(endpoints.back().get());
    }
    std::size_t sent = 0;
    const double t0 = ThreadCpuSeconds();
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kPerRound; ++i, ++sent) {
        const auto& [from, to] = pairs[sent % pairs.size()];
        ProbeMessage msg;
        msg.from = from;
        transport.Send(to, paxi::MakeMessage<ProbeMessage>(std::move(msg)),
                       sim.Now());
      }
      sim.RunUntil(kForever);
    }
    const double secs = ThreadCpuSeconds() - t0;
    std::size_t delivered = 0;
    for (const auto& ep : endpoints) delivered += ep->delivered();
    if (delivered != sent) {
      throw std::runtime_error("transport delivered " +
                               std::to_string(delivered) + " of " +
                               std::to_string(sent) + " messages");
    }
    return Trial{sent, secs};
  });
}

double StoreExecuteNs(const std::vector<paxi::OpRecord>& ops) {
  std::vector<paxi::Command> cmds;
  cmds.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    cmds.push_back(CommandOf(ops[i], i));
  }
  return MedianNsPerOp([&] {
    paxi::KvStore store;
    std::uint64_t found = 0;
    const double t0 = ThreadCpuSeconds();
    for (const paxi::Command& cmd : cmds) found += store.Execute(cmd).ok();
    const double secs = ThreadCpuSeconds() - t0;
    if (store.num_executed() != cmds.size()) {
      throw std::runtime_error("KvStore replay lost commands");
    }
    g_sink = g_sink + found;
    return Trial{cmds.size(), secs};
  });
}

double WalAppendDecodeNs(const std::vector<paxi::OpRecord>& ops, int batch) {
  constexpr std::size_t kMaxRecords = 20'000;
  const std::size_t per_record = static_cast<std::size_t>(std::max(batch, 1));
  std::vector<paxi::WalRecord> records;
  paxi::WalRecord rec;
  for (std::size_t i = 0; i < ops.size() && records.size() < kMaxRecords;
       ++i) {
    rec.cmds.push_back(CommandOf(ops[i], i));
    if (rec.cmds.size() == per_record) {
      rec.slot = static_cast<paxi::Slot>(records.size());
      rec.ballot = paxi::Ballot{1, paxi::NodeId{1, 1}};
      records.push_back(std::move(rec));
      rec = paxi::WalRecord{};
    }
  }
  if (records.empty()) throw std::runtime_error("no commands to log");
  return MedianNsPerOp([&] {
    paxi::NodeDisk disk(paxi::DiskParams{});
    const double t0 = ThreadCpuSeconds();
    for (const paxi::WalRecord& r : records) disk.Append(r);
    const paxi::NodeDisk::Recovered recovered = disk.Decode();
    const double secs = ThreadCpuSeconds() - t0;
    if (recovered.truncated || recovered.records != records) {
      throw std::runtime_error("WAL decode did not return what was appended");
    }
    return Trial{records.size(), secs};
  });
}

double WorkloadNextNs(const paxi::WorkloadSpec& spec, std::uint64_t seed) {
  return MedianNsPerOp([&] {
    constexpr std::size_t kCommands = 300'000;
    paxi::WorkloadGenerator gen(spec, /*zone=*/1, /*stream=*/1, seed);
    std::uint64_t keys = 0;
    const double t0 = ThreadCpuSeconds();
    for (std::size_t i = 0; i < kCommands; ++i) {
      keys += static_cast<std::uint64_t>(
          gen.Next(static_cast<paxi::Time>(i)).key);
    }
    const double secs = ThreadCpuSeconds() - t0;
    g_sink = g_sink + keys;
    return Trial{kCommands, secs};
  });
}

}  // namespace perfbench
