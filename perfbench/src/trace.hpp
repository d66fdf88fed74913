// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions; the library itself carries no tracing.  Each
// span has a name ("<layer>.<what>"), a start and end on one steady clock,
// the span that was open when it started (its parent), an operation id
// shared by every span of one operation, and optional numeric counters.
// A span may stand for a batch of consecutive calls of one kind (for
// example the arrivals of one dataset chunk) and carry per-outcome time
// sums as counters, so per-call spans never distort the loop they measure.
// Everything stays in memory until the benchmark writes its result file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kcbench {

/// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t op = -1;      ///< operation id shared by one operation's spans
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

class Recorder {
 public:
  /// A fresh operation id.
  std::int64_t new_op() { return next_op_++; }

  /// Opens a span under the innermost open one; returns its id.
  std::int64_t open(std::string name, std::int64_t op = -1) {
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.name = std::move(name);
    s.t0 = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Closes the innermost open span, which must be `id`.
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    stack_.pop_back();
  }

  void counter(std::int64_t id, std::string key, double value) {
    spans_[static_cast<std::size_t>(id)].counters.emplace_back(std::move(key),
                                                               value);
  }

  /// Records an already-measured span (a batch aggregate) under the
  /// innermost open span.
  std::int64_t add(std::string name, std::int64_t op, double t0, double t1,
                   std::vector<std::pair<std::string, double>> counters = {}) {
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.name = std::move(name);
    s.t0 = t0;
    s.t1 = t1;
    s.counters = std::move(counters);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  std::int64_t next_op_ = 0;
};

/// RAII span; a no-op when the recorder is null (the untraced run).
class Scoped {
 public:
  Scoped(Recorder* rec, std::string name, std::int64_t op = -1) : rec_(rec) {
    if (rec_ != nullptr) id_ = rec_->open(std::move(name), op);
  }
  ~Scoped() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void counter(std::string key, double value) {
    if (rec_ != nullptr) rec_->counter(id_, std::move(key), value);
  }

 private:
  Recorder* rec_;
  std::int64_t id_ = -1;
};

}  // namespace kcbench
