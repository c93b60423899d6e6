// In-memory tracing for the benchmark's traced run: spans around every
// layer call the benchmark makes, and a simulator observer that times the
// wall gap between consecutive events. Nothing is written out until the
// run ends. A null Tracer* means tracing is off (the untraced runs that
// produce the end-to-end metrics).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by the calling thread. Every timing the benchmark
/// reports reads this clock: on an idle core it matches the wall clock
/// (within 1% on the reference machine), but it leaves out time the pinned
/// thread spends waiting behind another process on a shared machine.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Spans with a name, start, end and the span that caused them. Ids index
/// the spans in begin order; parent -1 is a root.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  int Begin(std::string name, int parent);
  void End(int id);

  /// Writes every span as a JSON array, each with its self time (duration
  /// minus the time its children cover). Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Span helpers that are no-ops without a tracer.
inline int BeginSpan(Tracer* tracer, std::string name, int parent) {
  return tracer == nullptr ? -1 : tracer->Begin(std::move(name), parent);
}
inline void EndSpan(Tracer* tracer, int id) {
  if (tracer != nullptr) tracer->End(id);
}

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent)
      : tracer_(tracer), id_(BeginSpan(tracer, std::move(name), parent)) {}
  ~ScopedSpan() { EndSpan(tracer_, id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Records the wall gap between consecutive OnEventExecuted calls: the
/// cost of popping and running one event (plus this observer's own clock
/// read, which is the tracing overhead). Also samples the event-queue
/// depth every 1024 events, which sizes the kernel microbenchmark.
class EventGapObserver : public paxi::SimObserver {
 public:
  /// Resets the observer for a run on `sim`.
  void Attach(const paxi::Simulator* sim);

  void OnEventExecuted(const paxi::EventFingerprint& fp) override;

  /// The gaps, in nanoseconds.
  const paxi::Sampler& gaps_ns() const { return gaps_ns_; }
  double MeanQueueDepth() const;

 private:
  const paxi::Simulator* sim_ = nullptr;
  Clock::time_point last_{};
  bool started_ = false;
  paxi::Sampler gaps_ns_;
  std::uint64_t events_ = 0;
  std::uint64_t depth_sum_ = 0;
  std::uint64_t depth_samples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
