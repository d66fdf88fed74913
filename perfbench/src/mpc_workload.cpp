// mpc-batch: the sequential offline baseline and the paper's three MPC
// algorithms on one planted instance under an adversarial partition.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coreset.hpp"
#include "core/cost.hpp"
#include "core/mbc.hpp"
#include "core/radius_oracle.hpp"
#include "core/solver.hpp"
#include "engine/registry.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/transport.hpp"
#include "mpc/two_round.hpp"
#include "util/parallel.hpp"
#include "workload.hpp"

namespace kcbench {
namespace {

constexpr int kMachines = 8;
constexpr int kRounds = 2;  // R of mpc-rround
const char* const kPipelines[] = {"offline", "mpc-2round", "mpc-1round",
                                  "mpc-rround"};

/// Transport decorator: times every delivery as an `mpc.deliver` span and
/// forwards to the in-process backend (which moves no wire bytes, so the
/// decorator's own WireStats stay zero as well).  Routing is sequential in
/// the simulator, so spans are recorded from one thread.
class TimingTransport final : public kc::mpc::Transport {
 public:
  explicit TimingTransport(Recorder& rec)
      : inner_(kc::mpc::make_local_transport()), rec_(rec) {}

  [[nodiscard]] kc::mpc::Backend backend() const noexcept override {
    return inner_->backend();
  }
  void open(int machines, int dim) override { inner_->open(machines, dim); }
  [[nodiscard]] kc::mpc::Delivery deliver(kc::mpc::Message msg) override {
    Scoped span(&rec_, "mpc.deliver");
    return inner_->deliver(std::move(msg));
  }

 private:
  std::unique_ptr<kc::mpc::Transport> inner_;
  Recorder& rec_;
};

/// Exact 53-bit digest of a weighted set (coordinates and weights, in
/// order), so two summaries compare equal iff they are identical.
double digest(const kc::WeightedSet& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& wp : s) {
    for (int j = 0; j < wp.p.dim(); ++j) {
      std::uint64_t bits = 0;
      const double c = wp.p[j];
      std::memcpy(&bits, &c, sizeof bits);
      mix(bits);
    }
    mix(static_cast<std::uint64_t>(wp.w));
  }
  return static_cast<double>(h >> 11);
}

int guess_levels(std::int64_t z) {  // ⌈log2(z+1)⌉ + 1 outlier guesses
  int j = 0;
  while ((std::int64_t{1} << j) - 1 < z) ++j;
  return j + 1;
}

/// Algorithm 2's r̂ rule: the smallest table entry r at which every
/// machine has a guess V_ℓ[j] ≤ r and Σ_ℓ (2^{min j} − 1) ≤ 2z.
double r_hat_rule(const std::vector<std::vector<double>>& v, std::int64_t z) {
  std::vector<double> cand;
  for (const auto& t : v) cand.insert(cand.end(), t.begin(), t.end());
  std::sort(cand.begin(), cand.end());
  for (double r : cand) {
    std::int64_t sum = 0;
    bool ok = true;
    for (const auto& t : v) {
      const auto it = std::find_if(t.begin(), t.end(),
                                   [r](double x) { return x <= r; });
      if (it == t.end()) {
        ok = false;
        break;
      }
      sum += (std::int64_t{1} << (it - t.begin())) - 1;
    }
    if (ok && sum <= 2 * z) return r;
  }
  return cand.back();
}

class MpcBatch final : public Workload {
 public:
  explicit MpcBatch(const RunOptions& opt)
      : opt_(opt), n_(scaled(500'000, opt.scale, 4'000)), pool_(opt.threads) {
    pooled_.exec.pool = &pool_;
    cfg_.k = p_.k;
    cfg_.z = p_.z;
    cfg_.eps = p_.eps;
    cfg_.dim = p_.dim;
    cfg_.num_threads = opt.threads;
    cfg_.machines = kMachines;
    cfg_.partition = kc::mpc::PartitionKind::EvenSorted;
    cfg_.rounds = kRounds;
    cfg_.with_direct_solve = false;
    for (const char* name : kPipelines)
      bounds_.push_back(kc::engine::registry().make(name)->quality_bound());
    // Lemma-7 size bound at the largest factor the default oracle states:
    // the Summary oracle's ρ_C(1+γ)+γ with ρ_C = 3(1+β).
    const kc::OracleOptions oracle;
    const double rho = 3.0 * (1.0 + oracle.beta) * (1.0 + oracle.gamma) +
                       oracle.gamma;
    size_bound_ = kc::mbc_size_bound(p_.k, p_.z, p_.eps, rho, p_.dim);
  }

  void setup(std::uint64_t seed, Recorder* rec) override {
    cfg_.seed = seed;
    cfg_.partition_seed = seed;
    w_ = {};
    Scoped span(rec, "workload.generate");
    w_ = kc::engine::make_workload(n_, cfg_);
    // Largest machine share under each partition kind, for the words limit.
    max_part_.clear();
    for (const auto kind :
         {kc::mpc::PartitionKind::EvenSorted, kc::mpc::PartitionKind::Random}) {
      std::size_t most = 0;
      for (const auto& part : kc::mpc::partition_indices(
               w_.planted.points, kMachines, kind, seed))
        most = std::max(most, part.size());
      max_part_.push_back(static_cast<double>(most));
    }
  }

  IterStats run(Checker& chk, Recorder* rec) override {
    const kc::Metric metric(kc::Norm::L2);
    IterStats st;
    const double t_start = now_s();
    for (std::size_t pi = 0; pi < std::size(kPipelines); ++pi) {
      const std::string name = kPipelines[pi];
      kc::engine::PipelineResult res;
      {
        Scoped span(rec, "engine." + name);
        res = kc::engine::run(name, w_, cfg_);
      }
      const kc::engine::PipelineReport& r = res.report;
      {
        Scoped span(rec, "bench.check");
        chk.op(name, [&] { check(chk, name, pi, res); });
      }
      // Queries on the paper's 2-round coreset, one thread each.
      const int queries = name == "mpc-2round" ? kSummaryQueries : 0;
      for (int q = 0; q < queries; ++q) {
        const std::int64_t op = rec != nullptr ? rec->new_op() : -1;
        const double q0 = now_s();
        kc::Solution sol;
        {
          Scoped span(rec, "core.solve", op);
          sol = kc::solve_kcenter_outliers(res.coreset, p_.k, p_.z, metric);
        }
        st.query_ms.push_back((now_s() - q0) * 1e3);
        Scoped span(rec, "bench.check", op);
        chk.op(name + " query", [&] {
          chk.expect(sol.centers == res.solution.centers,
                     "answer differs from the pipeline's");
        });
      }
      st.ingest_s += r.build_ms / 1e3;
      st.summary_words += static_cast<double>(r.words);
      st.comm_words += static_cast<double>(r.comm_words);
      st.radius = std::max(st.radius, r.radius);
      add_fingerprint(st.fingerprint, name, res.coreset, r.words,
                      r.comm_words, r.radius);
    }
    st.wall_s = now_s() - t_start;
    st.ingest_units = static_cast<double>(n_ * std::size(kPipelines));
    return st;
  }

  /// Each pipeline again through the public layer functions: mbc_construct
  /// for offline; partition_points plus the MPC algorithm under a timing
  /// transport; then a per-machine replay of the core work of mpc-2round
  /// (oracle ladder, covering, recompress) and mpc-1round (mbc_construct,
  /// recompress) on the actual partitions.
  Fingerprint replay(Recorder& rec) override {
    const kc::Metric metric(kc::Norm::L2);
    Fingerprint fp;
    kc::OracleOptions offline_oracle = pooled_;
    offline_oracle.exec.buffer = w_.buffer();
    kc::MiniBallCovering off;
    {
      Scoped span(&rec, "core.mbc_construct");
      off = kc::mbc_construct(w_.planted.points, p_.k, p_.z, p_.eps, metric,
                              offline_oracle);
    }
    finish(rec, fp, "offline", off.reps,
           off.reps.size() * static_cast<std::size_t>(p_.dim + 1), 0);

    for (const std::string name : {"mpc-2round", "mpc-1round", "mpc-rround"}) {
      const auto kind = name == "mpc-1round"
                            ? kc::mpc::PartitionKind::Random
                            : kc::mpc::PartitionKind::EvenSorted;
      std::vector<kc::WeightedSet> parts;
      {
        Scoped span(&rec, "mpc.partition");
        parts = kc::mpc::partition_points(w_.planted.points, kMachines, kind,
                                          cfg_.partition_seed);
      }
      TimingTransport transport(rec);
      transport.open(kMachines, p_.dim);
      kc::mpc::ExecContext ctx;
      ctx.pool = &pool_;
      ctx.transport = &transport;
      kc::WeightedSet coreset;
      kc::mpc::MpcStats stats;
      std::int64_t z_local = 0;
      {
        Scoped span(&rec, "mpc." + name);
        if (name == "mpc-2round") {
          kc::mpc::TwoRoundOptions o;
          o.eps = p_.eps;
          auto out =
              kc::mpc::two_round_coreset(parts, p_.k, p_.z, metric, ctx, o);
          coreset = std::move(out.coreset);
          stats = std::move(out.stats);
        } else if (name == "mpc-1round") {
          kc::mpc::OneRoundOptions o;
          o.eps = p_.eps;
          auto out = kc::mpc::one_round_coreset(parts, p_.k, p_.z, n_, metric,
                                                ctx, o);
          coreset = std::move(out.coreset);
          stats = std::move(out.stats);
          z_local = out.z_local;
        } else {
          kc::mpc::MultiRoundOptions o;
          o.eps = p_.eps;
          o.rounds = kRounds;
          auto out =
              kc::mpc::multi_round_coreset(parts, p_.k, p_.z, metric, ctx, o);
          coreset = std::move(out.coreset);
          stats = std::move(out.stats);
        }
        span.counter("map_s", stats.map_ms / 1e3);
        span.counter("route_s", stats.route_ms / 1e3);
        span.counter("rounds", stats.rounds);
        span.counter("comm_words", static_cast<double>(stats.total_comm_words));
      }
      finish(rec, fp, name, coreset, stats.max_worker_words(),
             stats.total_comm_words);
      if (name == "mpc-2round") replay_two_round(rec, fp, parts);
      if (name == "mpc-1round") replay_one_round(rec, fp, parts, z_local);
    }
    return fp;
  }

 private:
  void check(Checker& chk, const std::string& name, std::size_t pi,
             const kc::engine::PipelineResult& res) const {
    const kc::engine::PipelineReport& r = res.report;
    chk.expect(r.radius <= bounds_[pi] * w_.planted.opt_hi + 1e-9,
               "radius above quality_bound() * opt_hi");
    chk.expect(kc::total_weight(res.coreset) ==
                   static_cast<std::int64_t>(n_),
               "summary weight != n");
    chk.expect(static_cast<double>(res.coreset.size()) <= size_bound_,
               "summary larger than the Lemma-7 bound");
    if (name == "offline") return;
    // A machine holds its share, at most one covering from every machine
    // and the Algorithm-2 radius tables.
    const double share = max_part_[name == "mpc-1round" ? 1 : 0];
    const double limit =
        (p_.dim + 1) * (share + kMachines * size_bound_) +
        2.0 * kMachines * guess_levels(p_.z);
    chk.expect(static_cast<double>(r.words) <= limit,
               "worker words above the mbc_size_bound-derived limit");
    chk.expect(r.comm_words > 0, "no communication recorded");
    if (name == "mpc-2round")
      chk.expect(r.get("sum_guesses") <= 2.0 * static_cast<double>(p_.z),
                 "sum of outlier guesses above 2z");
  }

  static void add_fingerprint(Fingerprint& fp, const std::string& name,
                              const kc::WeightedSet& coreset,
                              std::size_t words, std::size_t comm,
                              double radius) {
    fp.emplace_back(name + ".summary_points",
                    static_cast<double>(coreset.size()));
    fp.emplace_back(name + ".summary_digest", digest(coreset));
    fp.emplace_back(name + ".summary_words", static_cast<double>(words));
    if (name != "offline")
      fp.emplace_back(name + ".comm_words", static_cast<double>(comm));
    fp.emplace_back(name + ".radius", radius);
  }

  /// Solve on the summary and evaluate on all points, as the engine does.
  void finish(Recorder& rec, Fingerprint& fp, const std::string& name,
              const kc::WeightedSet& coreset, std::size_t words,
              std::size_t comm) const {
    const kc::Metric metric(kc::Norm::L2);
    kc::Solution sol;
    {
      Scoped span(&rec, "core.solve");
      sol = kc::solve_kcenter_outliers(coreset, p_.k, p_.z, metric, pooled_);
    }
    double radius = 0.0;
    {
      Scoped span(&rec, "core.eval");
      radius = kc::radius_with_outliers(w_.planted.points, sol.centers, p_.z,
                                        metric, w_.buffer());
    }
    add_fingerprint(fp, name, coreset, words, comm, radius);
  }

  /// Algorithm 2 machine by machine: the outlier ladder through
  /// estimate_radius, the r̂ rule, the covering through mbc_with_radius,
  /// then recompress on the merged coverings.
  void replay_two_round(Recorder& rec, Fingerprint& fp,
                        const std::vector<kc::WeightedSet>& parts) const {
    const kc::Metric metric(kc::Norm::L2);
    const int levels = guess_levels(p_.z);
    const std::size_t m = parts.size();
    Scoped root(&rec, "mpc.replay-2round");
    std::vector<std::vector<double>> v(m), rho(m);
    std::vector<double> busy(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const std::int64_t op = rec.new_op();
      const double t0 = now_s();
      for (int j = 0; j < levels; ++j) {
        Scoped span(&rec, "core.oracle", op);
        const kc::RadiusEstimate est = kc::estimate_radius(
            parts[i], p_.k, (std::int64_t{1} << j) - 1, metric);
        v[i].push_back(est.radius);
        rho[i].push_back(est.rho);
      }
      busy[i] += now_s() - t0;
    }
    const double r_hat = r_hat_rule(v, p_.z);
    double rho_max = 1.0;
    for (const auto& t : rho)
      for (double x : t) rho_max = std::max(rho_max, x);
    std::vector<kc::WeightedSet> shipped(m);
    std::int64_t guesses = 0;
    double words = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto j = std::find_if(v[i].begin(), v[i].end(),
                                  [r_hat](double x) { return x <= r_hat; }) -
                     v[i].begin();
      guesses += (std::int64_t{1} << j) - 1;
      const double t0 = now_s();
      {
        Scoped span(&rec, "core.covering");
        shipped[i] = kc::mbc_with_radius(
                         parts[i],
                         p_.eps * v[i][static_cast<std::size_t>(j)] / rho_max,
                         metric)
                         .reps;
      }
      busy[i] += now_s() - t0;
      if (i > 0)
        words = std::max(
            words, static_cast<double>((p_.dim + 1) *
                                       (parts[i].size() + shipped[i].size())) +
                       2.0 * static_cast<double>(m) * levels);
    }
    const kc::WeightedSet merged = kc::merge_coresets(shipped);
    kc::MiniBallCovering fin;
    {
      Scoped span(&rec, "core.recompress");
      fin = kc::recompress(merged, p_.k, p_.z, p_.eps, metric);
    }
    double total = 0.0;
    for (double b : busy) total += b;
    root.counter("map_imbalance",
                 *std::max_element(busy.begin(), busy.end()) /
                     (total / static_cast<double>(m)));
    root.counter("sum_guesses", static_cast<double>(guesses));
    fp.emplace_back("mpc-2round.summary_points",
                    static_cast<double>(fin.reps.size()));
    fp.emplace_back("mpc-2round.summary_digest", digest(fin.reps));
    fp.emplace_back("mpc-2round.summary_words", words);
  }

  /// Algorithm 6 machine by machine: mbc_construct with the local budget
  /// z', then recompress on the merged coverings.
  void replay_one_round(Recorder& rec, Fingerprint& fp,
                        const std::vector<kc::WeightedSet>& parts,
                        std::int64_t z_local) const {
    const kc::Metric metric(kc::Norm::L2);
    Scoped root(&rec, "mpc.replay-1round");
    std::vector<kc::WeightedSet> shipped;
    for (const auto& part : parts) {
      Scoped span(&rec, "core.mbc_construct", rec.new_op());
      shipped.push_back(
          kc::mbc_construct(part, p_.k, z_local, p_.eps, metric).reps);
    }
    const kc::WeightedSet merged = kc::merge_coresets(shipped);
    kc::MiniBallCovering fin;
    {
      Scoped span(&rec, "core.recompress");
      fin = kc::recompress(merged, p_.k, p_.z, p_.eps, metric);
    }
    fp.emplace_back("mpc-1round.summary_points",
                    static_cast<double>(fin.reps.size()));
    fp.emplace_back("mpc-1round.summary_digest", digest(fin.reps));
  }

  Params p_;
  RunOptions opt_;
  std::size_t n_;
  kc::engine::PipelineConfig cfg_;
  std::vector<double> bounds_;
  double size_bound_ = 0.0;
  std::vector<double> max_part_;
  kc::engine::Workload w_;
  kc::ThreadPool pool_;      ///< the benchmark's own solves and the replay
  kc::OracleOptions pooled_;  ///< solver options running on pool_
};

}  // namespace

std::unique_ptr<Workload> make_mpc_batch(const RunOptions& opt) {
  return std::make_unique<MpcBatch>(opt);
}

}  // namespace kcbench
