// The benchmark's workload interface, output checks and shared parameters.
//
// A workload builds the inputs of one instance from a seed (`setup`), then
// runs a deterministic sequence of library calls on it (`run`).
// With a null recorder the iteration is untraced and its timings are the
// end-to-end metrics; with a recorder it records spans around every call
// it makes.  `replay` (traced runs only) decomposes the work into the
// layers' public functions a second time.  Every iteration, traced or
// not, returns a fingerprint of its outputs; all fingerprints of one
// instance must be equal, otherwise the trace would describe a different
// program.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace kcbench {

/// Problem parameters shared by every workload (the paper's defaults in
/// the repo's CLI: k = 3, z = 100, d = 2, ε = 0.5, L2).
struct Params {
  int k = 3;
  std::int64_t z = 100;
  double eps = 0.5;
  int dim = 2;
};

struct RunOptions {
  double scale = 1.0;    ///< input-size multiplier (self-test only)
  int threads = 1;       ///< pool size for the MPC workload: min(2, nproc/2)
  std::string data_dir;  ///< where the stream-kcb file is written
};

/// Counts checked operations.  An operation fails when any of its checks
/// fails or it throws; the first failure messages are kept for the report.
class Checker {
 public:
  explicit Checker(bool force_fail) : force_fail_(force_fail) {}

  /// Runs one checked operation.  `body` calls `expect` for each check.
  void op(const std::string& what, const std::function<void()>& body) {
    ++attempted_;
    op_failed_ = false;
    op_name_ = what;
    if (force_fail_) expect(false, "deliberately failing check");
    try {
      body();
    } catch (const std::exception& e) {
      note(std::string("exception: ") + e.what());
    }
    if (op_failed_) ++failed_;
  }

  void expect(bool ok, const std::string& msg) {
    if (!ok) note(msg);
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  void note(const std::string& msg) {
    op_failed_ = true;
    if (messages_.size() < 20) messages_.push_back(op_name_ + ": " + msg);
  }

  bool force_fail_;
  bool op_failed_ = false;
  std::string op_name_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Exact output values of one iteration, compared across iterations.
using Fingerprint = std::vector<std::pair<std::string, double>>;

struct IterStats {
  double wall_s = 0.0;        ///< first library call to last checked answer
  double ingest_s = 0.0;      ///< update/build time only (no queries)
  double ingest_units = 0.0;  ///< arrivals, updates or points × pipelines
  std::vector<double> query_ms;
  double summary_words = 0.0;
  double comm_words = 0.0;
  double radius = 0.0;
  Fingerprint fingerprint;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs of one instance from its seed, replacing the
  /// previous instance.  Spans go under main's setup root when `rec`
  /// is set.
  virtual void setup(std::uint64_t seed, Recorder* rec) = 0;
  /// One iteration; `rec` null = untraced.
  virtual IterStats run(Checker& chk, Recorder* rec) = 0;
  /// Traced runs only: the layer-by-layer replay.  Returns the replay's
  /// fingerprint, which must equal the iteration's.
  virtual Fingerprint replay(Recorder& rec) {
    (void)rec;
    return {};
  }
  /// Removes files the setup wrote.
  virtual void cleanup() {}
};

std::unique_ptr<Workload> make_stream_kcb(const RunOptions& opt);
std::unique_ptr<Workload> make_dynamic_turnstile(const RunOptions& opt);
std::unique_ptr<Workload> make_mpc_batch(const RunOptions& opt);

/// Queries per iteration answered from a finished summary on the workloads
/// whose pipelines answer once at the end (stream-kcb's coreset, mpc-batch's
/// mpc-2round coreset): the same (k, z) solve, repeated so that a run's
/// latencies have a tail with enough samples beyond p95.
constexpr int kSummaryQueries = 20;

/// Scaled size, at least `floor`.
inline std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  const auto s = static_cast<std::size_t>(static_cast<double>(n) * scale);
  return s < floor ? floor : s;
}

}  // namespace kcbench
