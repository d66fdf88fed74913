// dynamic-turnstile: Algorithm 5's sketch hierarchy under inserts and
// deletes, with a query and a solve on the relaxed coreset at a fixed
// update interval.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "engine/registry.hpp"
#include "geometry/box.hpp"
#include "workload.hpp"
#include "workload/generators.hpp"
#include "workload/streams.hpp"

namespace kcbench {
namespace {

constexpr int kQueries = 200;
constexpr std::int64_t kDelta = 1024;  // universe side of [Δ]^d

/// 10⁵ planted points discretized to [1024]², plus n/2 chaff points
/// inserted and later deleted (make_dynamic_script); a query() and a solve
/// every 1/200 of the script.  The final answer is evaluated on the live
/// set in grid coordinates.
class DynamicTurnstile final : public Workload {
 public:
  explicit DynamicTurnstile(const RunOptions& opt)
      : opt_(opt), n_(scaled(100'000, opt.scale, 1'000)) {
    bound_ = kc::engine::registry().make("dynamic")->quality_bound();
  }

  void setup(std::uint64_t seed, Recorder* rec) override {
    seed_ = seed;
    script_ = {};
    live_ = {};
    Scoped span(rec, "workload.generate");
    kc::PlantedConfig pc;
    pc.n = n_;
    pc.k = p_.k;
    pc.z = p_.z;
    pc.dim = p_.dim;
    pc.seed = seed;
    const kc::PlantedInstance planted = kc::make_planted(pc);
    const std::vector<kc::GridPoint> grid =
        kc::discretize(planted.points, kDelta);
    script_ = kc::make_dynamic_script(grid, n_ / 2, kDelta, p_.dim,
                                      seed + 1);
    // Ground truth: the final live multiset, which the script guarantees
    // equals the discretized instance.
    live_.reserve(grid.size());
    live_buf_ = kc::kernels::PointBuffer(p_.dim);
    live_buf_.reserve(grid.size());
    for (const auto& g : grid) {
      live_.push_back({g.to_point(), 1});
      live_buf_.append(live_.back().p);
    }
    // The planted bracket in grid coordinates: discretize scales by
    // (Δ−1)/span and rounds each coordinate, moving a point by ≤ √d/2.
    kc::Box box = kc::Box::empty(p_.dim);
    for (const auto& wp : planted.points) box.extend(wp.p);
    const double scale = static_cast<double>(kDelta - 1) /
                         std::max(box.max_side(), 1e-12);
    opt_hi_grid_ = planted.opt_hi * scale + std::sqrt(p_.dim) / 2.0;
  }

  IterStats run(Checker& chk, Recorder* rec) override {
    const kc::Metric metric(kc::Norm::L2);
    kc::dynamic::DynamicCoresetOptions o;
    o.k = p_.k;
    o.z = p_.z;
    o.eps = p_.eps;
    o.delta = kDelta;
    o.dim = p_.dim;
    o.seed = seed_;
    IterStats st;
    const double t_start = now_s();
    kc::dynamic::DynamicCoreset dc(o);
    const std::size_t total = script_.size();
    const std::size_t batch = (total + kQueries - 1) / kQueries;
    std::int64_t expected_live = 0;
    kc::Solution last;
    kc::dynamic::DynamicCoreset::QueryResult last_q;
    for (std::size_t lo = 0; lo < total; lo += batch) {
      const std::size_t hi = std::min(total, lo + batch);
      const double t0 = now_s();
      if (rec == nullptr) {
        for (std::size_t i = lo; i < hi; ++i)
          dc.update(script_[i].p, script_[i].sign);
        st.ingest_s += now_s() - t0;
      } else {
        double ins_s = 0.0, del_s = 0.0, ins = 0.0, del = 0.0;
        double t_prev = t0;
        for (std::size_t i = lo; i < hi; ++i) {
          dc.update(script_[i].p, script_[i].sign);
          const double t = now_s();
          (script_[i].sign > 0 ? ins_s : del_s) += t - t_prev;
          (script_[i].sign > 0 ? ins : del) += 1.0;
          t_prev = t;
        }
        st.ingest_s += t_prev - t0;
        rec->add("dynamic.update", rec->new_op(), t0, t_prev,
                 {{"insert_s", ins_s},
                  {"delete_s", del_s},
                  {"inserts", ins},
                  {"deletes", del}});
      }
      for (std::size_t i = lo; i < hi; ++i) expected_live += script_[i].sign;

      const std::int64_t op = rec != nullptr ? rec->new_op() : -1;
      const double q0 = now_s();
      kc::dynamic::DynamicCoreset::QueryResult q;
      {
        Scoped span(rec, "dynamic.query", op);
        q = dc.query();
        span.counter("ok", q.ok ? 1.0 : 0.0);
        span.counter("level", q.level);
        span.counter("nonempty_cells", static_cast<double>(q.nonempty_cells));
      }
      kc::Solution sol;
      if (q.ok && !q.coreset.empty()) {
        Scoped span(rec, "core.solve", op);
        sol = kc::solve_kcenter_outliers(q.coreset, p_.k, p_.z, metric);
      }
      st.query_ms.push_back((now_s() - q0) * 1e3);
      Scoped span(rec, "bench.check", op);
      chk.op("dynamic query", [&] {
        chk.expect(q.ok, "query() not ok");
        chk.expect(dc.live_points() == expected_live,
                   "live_points() differs from the script");
        chk.expect(kc::total_weight(q.coreset) == dc.live_points(),
                   "relaxed coreset weight != live points");
        chk.expect(!sol.centers.empty() &&
                       sol.centers.size() <= static_cast<std::size_t>(p_.k),
                   "answer does not have 1..k centers");
      });
      last = std::move(sol);
      last_q = std::move(q);
    }

    std::size_t words = 0;
    {
      Scoped span(rec, "dynamic.words");
      words = dc.words();
      span.counter("sketch_words", static_cast<double>(words));
    }
    double radius = 0.0;
    {
      Scoped span(rec, "core.eval");
      radius = kc::radius_with_outliers(live_, last.centers, p_.z, metric,
                                        &live_buf_);
    }
    {
      Scoped span(rec, "bench.check");
      chk.op("dynamic final answer", [&] {
        chk.expect(dc.live_points() == static_cast<std::int64_t>(n_),
                   "live set after the script != n");
        // Cell centers displace live points by ≤ (√d/2)·cell_side.
        const double slack = std::sqrt(p_.dim) * last_q.cell_side;
        chk.expect(radius <= last.radius + slack + 1e-9 * (1 + radius),
                   "radius above coreset radius + cell displacement");
        chk.expect(radius <= bound_ * opt_hi_grid_ + 1e-9,
                   "radius above quality_bound() * opt_hi (grid space)");
      });
    }
    st.wall_s = now_s() - t_start;
    st.ingest_units = static_cast<double>(total);
    st.summary_words = static_cast<double>(words);
    st.radius = radius;
    st.fingerprint = {
        {"summary_points", static_cast<double>(last_q.coreset.size())},
        {"summary_words", static_cast<double>(words)},
        {"level", static_cast<double>(last_q.level)},
        {"radius", radius}};
    return st;
  }

 private:
  Params p_;
  RunOptions opt_;
  std::size_t n_;
  double bound_ = 0.0;
  std::uint64_t seed_ = 0;
  double opt_hi_grid_ = 0.0;
  kc::DynamicScript script_;
  kc::WeightedSet live_;
  kc::kernels::PointBuffer live_buf_{2};
};

}  // namespace

std::unique_ptr<Workload> make_dynamic_turnstile(const RunOptions& opt) {
  return std::make_unique<DynamicTurnstile>(opt);
}

}  // namespace kcbench
