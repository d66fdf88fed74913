// stream-kcb: Algorithm 3 (insertion-only streaming) out of core, from a
// .kcb file through the engine's dataset path.

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "dataset/source.hpp"
#include "engine/registry.hpp"
#include "stream/insertion_only.hpp"
#include "workload.hpp"

namespace kcbench {
namespace {

/// Per-outcome sums over a batch of `insert` calls, split by what each
/// call observably did: joined an existing representative, added one, or
/// bumped `doublings()` (an Algorithm-4 recompression).  One clock read
/// per call; the loop's own bookkeeping lands in the following call.
struct InsertTally {
  double join_s = 0.0, new_rep_s = 0.0, recompress_s = 0.0;
  double joins = 0.0, new_reps = 0.0, recompressions = 0.0;
  double reps_scanned = 0.0;  ///< Σ |P*| at each arrival

  template <typename Insert>
  void run(const kc::stream::InsertionOnlyStream& s, std::size_t lo,
           std::size_t hi, Insert&& insert) {
    double t_prev = now_s();
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t before = s.coreset().size();
      const int doublings = s.doublings();
      insert(i);
      const double t = now_s();
      const double dt = t - t_prev;
      t_prev = t;
      reps_scanned += static_cast<double>(before);
      if (s.doublings() != doublings) {
        recompress_s += dt;
        recompressions += s.doublings() - doublings;
      } else if (s.coreset().size() > before) {
        new_rep_s += dt;
        new_reps += 1.0;
      } else {
        join_s += dt;
        joins += 1.0;
      }
    }
  }

  [[nodiscard]] std::vector<std::pair<std::string, double>> counters() const {
    return {{"join_s", join_s},
            {"new_rep_s", new_rep_s},
            {"recompress_s", recompress_s},
            {"joins", joins},
            {"new_reps", new_reps},
            {"recompressions", recompressions},
            {"reps_scanned", reps_scanned}};
  }
};

/// A 10⁷-point .kcb (kcb_convert generate defaults) written at setup, then
/// engine::run("stream-insertion") streaming it out of core with the
/// chunked ground-truth evaluation.
class StreamKcb final : public Workload {
 public:
  explicit StreamKcb(const RunOptions& opt)
      : opt_(opt),
        n_(scaled(10'000'000, opt.scale, 2'000)),
        path_(opt.data_dir + "/stream-kcb.kcb") {}

  void setup(std::uint64_t seed, Recorder* rec) override {
    std::remove(path_.c_str());
    kc::dataset::GeneratedConfig gc;
    gc.n = n_;
    gc.dim = p_.dim;
    gc.seed = seed;
    std::unique_ptr<kc::dataset::GeneratedSource> src;
    {
      Scoped span(rec, "workload.generate");
      src = std::make_unique<kc::dataset::GeneratedSource>(gc);
    }
    Scoped span(rec, "dataset.write");
    if (kc::dataset::write_kcb(path_, *src) != n_)
      throw std::runtime_error("short .kcb write: " + path_);
  }

  IterStats run(Checker& chk, Recorder* rec) override {
    const kc::Metric metric(kc::Norm::L2);
    IterStats st;
    const double t_start = now_s();
    kc::engine::PipelineConfig cfg;
    cfg.k = p_.k;
    cfg.z = p_.z;
    cfg.eps = p_.eps;
    cfg.dim = p_.dim;
    cfg.with_direct_solve = false;
    kc::engine::PipelineResult res;
    {
      // The O(1) mmap open rides in the engine span; the replay times it.
      Scoped span(rec, "engine.stream-insertion");
      const kc::engine::Workload w = kc::engine::make_dataset_workload(
          std::make_shared<kc::dataset::KcbSource>(path_));
      res = kc::engine::run("stream-insertion", w, cfg);
    }
    const kc::engine::PipelineReport& r = res.report;
    {
      Scoped span(rec, "bench.check");
      chk.op("stream-kcb pipeline", [&] {
        const double threshold = r.get("threshold");
        chk.expect(kc::total_weight(res.coreset) ==
                       static_cast<std::int64_t>(n_),
                   "summary weight != n");
        chk.expect(static_cast<double>(res.coreset.size()) <= threshold,
                   "|P*| > threshold()");
        chk.expect(r.get("peak_size") <= threshold, "peak |P*| > threshold()");
        chk.expect(std::isfinite(r.radius) && r.radius > 0.0,
                   "radius not positive and finite");
        const double on_core = kc::radius_with_outliers(
            res.coreset, res.solution.centers, p_.z, metric);
        chk.expect(r.radius <= on_core + p_.eps * r.get("r") +
                                   1e-9 * (1 + r.radius),
                   "radius above coreset radius + eps * r");
      });
    }
    for (int q = 0; q < kSummaryQueries; ++q) {
      const std::int64_t op = rec != nullptr ? rec->new_op() : -1;
      const double q0 = now_s();
      kc::Solution sol;
      {
        Scoped span(rec, "core.solve", op);
        sol = kc::solve_kcenter_outliers(res.coreset, p_.k, p_.z, metric);
      }
      st.query_ms.push_back((now_s() - q0) * 1e3);
      Scoped span(rec, "bench.check", op);
      chk.op("stream-kcb query", [&] {
        chk.expect(sol.centers == res.solution.centers,
                   "answer differs from the pipeline's");
      });
    }
    st.wall_s = now_s() - t_start;
    st.ingest_s = r.build_ms / 1e3;
    st.ingest_units = static_cast<double>(n_);
    st.summary_words = static_cast<double>(r.words);
    st.radius = r.radius;
    st.fingerprint = {
        {"summary_points", static_cast<double>(res.coreset.size())},
        {"summary_words", static_cast<double>(r.words)},
        {"doublings", r.get("doublings")},
        {"radius", r.radius}};
    return st;
  }

  /// The same pass through the dataset, stream and core layers' public
  /// functions: open, ChunkedReader::next, insert, solve, chunked eval.
  Fingerprint replay(Recorder& rec) override {
    const kc::Metric metric(kc::Norm::L2);
    std::unique_ptr<kc::dataset::KcbSource> src;
    {
      Scoped span(&rec, "dataset.open");
      src = std::make_unique<kc::dataset::KcbSource>(path_);
    }
    kc::stream::InsertionOnlyStream s(p_.k, p_.z, p_.eps, p_.dim, metric);
    kc::dataset::ChunkedReader reader(*src);
    kc::dataset::ChunkedReader::Chunk ch;
    kc::Point p(p_.dim);
    for (;;) {
      const double t0 = now_s();
      const bool more = reader.next(ch);
      const double t1 = now_s();
      if (!more) break;
      const std::int64_t op = rec.new_op();
      const auto rows = static_cast<double>(ch.view.size());
      rec.add("dataset.chunk", op, t0, t1,
              {{"rows", rows}, {"bytes", rows * p_.dim * 8.0}});
      InsertTally tally;
      tally.run(s, 0, ch.view.size(), [&](std::size_t i) {
        for (int j = 0; j < p_.dim; ++j) p[j] = ch.view.col(j)[i];
        s.insert_weighted(p, 1);
      });
      rec.add("stream.insert", op, t1, now_s(), tally.counters());
    }
    kc::Solution sol;
    {
      Scoped span(&rec, "core.solve");
      sol = kc::solve_kcenter_outliers(s.coreset(), p_.k, p_.z, metric);
    }
    double radius = 0.0;
    {
      Scoped span(&rec, "dataset.eval");
      radius = kc::dataset::chunked_radius_with_outliers(*src, sol.centers,
                                                         p_.z, metric);
    }
    // A zero-length span carries the summary's size counters.
    rec.add("stream.summary", -1, now_s(), now_s(),
            {{"peak_reps", static_cast<double>(s.peak_size())},
             {"threshold", static_cast<double>(s.threshold())}});
    return {{"summary_points", static_cast<double>(s.coreset().size())},
            {"summary_words", static_cast<double>(s.peak_words())},
            {"doublings", static_cast<double>(s.doublings())},
            {"radius", radius}};
  }

  void cleanup() override { std::remove(path_.c_str()); }

 private:
  Params p_;
  RunOptions opt_;
  std::size_t n_;
  std::string path_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_kcb(const RunOptions& opt) {
  return std::make_unique<StreamKcb>(opt);
}

}  // namespace kcbench
