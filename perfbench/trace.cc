#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), parent, NowNs(), -1});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = NowNs();
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    // Span names are fixed identifiers chosen by the benchmark: no quotes
    // or backslashes to escape.
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}%s\n",
                 i, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(dur - child_ns[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void EventGapObserver::Attach(const paxi::Simulator* sim) {
  sim_ = sim;
  started_ = false;
  gaps_ns_ = paxi::Sampler();
  events_ = 0;
  depth_sum_ = 0;
  depth_samples_ = 0;
}

void EventGapObserver::OnEventExecuted(const paxi::EventFingerprint& fp) {
  (void)fp;
  const Clock::time_point now = Clock::now();
  if (started_) {
    gaps_ns_.Add(std::chrono::duration<double, std::nano>(now - last_).count());
  }
  started_ = true;
  last_ = now;
  if ((++events_ & 1023u) == 0 && sim_ != nullptr) {
    depth_sum_ += sim_->pending_events();
    ++depth_samples_;
  }
}

double EventGapObserver::MeanQueueDepth() const {
  return depth_samples_ == 0 ? 0.0
                             : static_cast<double>(depth_sum_) /
                                   static_cast<double>(depth_samples_);
}

}  // namespace perfbench
