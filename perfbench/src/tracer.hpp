// In-memory span recorder for the benchmark's traced pass.
//
// A span is one call into a library layer, recorded from the benchmark's
// side of the public API: its name ("<layer>.<stage>", or a bare name for
// the benchmark's own top-level phases), start and end, the span that
// caused it, the daemon request it belongs to, the lp::statsSnapshot()
// delta across it, and any counts the caller attaches. Spans stay in
// memory until the run ends; nothing is written while measuring.
//
// A Span built with a null Tracer does nothing, so the untraced pass runs
// the very same code with tracing off.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  int parent = -1;         ///< index of the enclosing span; -1 = top level
  std::string name;
  long long request = -1;  ///< daemon event index; -1 outside events
  double start_s = 0.0;    ///< seconds since the tracer was created
  double end_s = 0.0;
  coyote::lp::StatsSnapshot lp;  ///< LP work done inside the span
  std::vector<std::pair<std::string, double>> counters;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, long long request) {
    const int id = static_cast<int>(spans_.size());
    SpanRecord rec;
    rec.parent = open_.empty() ? -1 : open_.back();
    if (request < 0 && rec.parent >= 0) request = spans_[rec.parent].request;
    rec.name = std::move(name);
    rec.request = request;
    spans_.push_back(std::move(rec));
    open_.push_back(id);
    open_lp_.push_back(coyote::lp::statsSnapshot());
    spans_[id].start_s = now();
    return id;
  }

  void end(int id) {
    const double t = now();
    spans_[id].end_s = t;
    spans_[id].lp = coyote::lp::statsSnapshot() - open_lp_.back();
    open_.pop_back();
    open_lp_.pop_back();
  }

  void count(int id, const char* key, double value) {
    spans_[id].counters.emplace_back(key, value);
  }

  [[nodiscard]] double now() const {
    return secondsBetween(origin_, Clock::now());
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< stack of open span ids
  std::vector<coyote::lp::StatsSnapshot> open_lp_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, long long request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, request) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void count(const char* key, double value) {
    if (tracer_ != nullptr) tracer_->count(id_, key, value);
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
