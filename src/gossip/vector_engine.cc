#include "gossip/vector_engine.h"

#include <algorithm>
#include <cmath>

#include "gossip/sync_engine.h"

namespace dgt {

namespace {

// Dense length-N vector pairs, flat row-major for cache friendliness.
class DensePolicy {
 public:
  using Result = VectorGossipResult;
  struct Scratch {};

  DensePolicy(const std::vector<std::vector<double>>& y0,
              const std::vector<std::vector<double>>& g0,
              const std::vector<std::vector<double>>& c0,
              const GossipOptions& options)
      : n_(static_cast<uint32_t>(y0.size())),
        use_count_(!c0.empty()),
        sentinel_(options.ratio_sentinel),
        threshold_(static_cast<double>(n_) * options.xi) {
    const size_t nn = static_cast<size_t>(n_) * n_;
    y_.resize(nn);
    g_.resize(nn);
    c_.resize(use_count_ ? nn : 0);
    for (uint32_t i = 0; i < n_; ++i) {
      std::copy(y0[i].begin(), y0[i].end(), y_.begin() + i * n_);
      std::copy(g0[i].begin(), g0[i].end(), g_.begin() + i * n_);
      if (use_count_) {
        std::copy(c0[i].begin(), c0[i].end(), c_.begin() + i * n_);
      }
    }
    next_y_.resize(nn);
    next_g_.resize(nn);
    next_c_.resize(use_count_ ? nn : 0);
    // prev_ratio_[i*n + j]: u-vector per node (plus the count-channel
    // ratios when that channel is active — eq. (7) must cover both).
    prev_ratio_.resize(nn);
    prev_cratio_.resize(use_count_ ? nn : 0);
    for (size_t idx = 0; idx < nn; ++idx) prev_ratio_[idx] = Ratio(y_, idx);
    for (size_t idx = 0; idx < prev_cratio_.size(); ++idx) {
      prev_cratio_[idx] = Ratio(c_, idx);
    }
  }

  double threshold() const { return threshold_; }
  void BeginStep(const StepPlan&, const std::vector<uint8_t>&) {}

  // eq. (7): sum_j |ratio_ij(n) - ratio_ij(n-1)| (ratio and count terms).
  MergeOutcome Merge(NodeId i, const StepPlan& plan, Scratch&) {
    const uint32_t n = n_;
    const size_t row = static_cast<size_t>(i) * n;
    std::fill(next_y_.begin() + row, next_y_.begin() + row + n, 0.0);
    std::fill(next_g_.begin() + row, next_g_.begin() + row + n, 0.0);
    if (use_count_) {
      std::fill(next_c_.begin() + row, next_c_.begin() + row + n, 0.0);
    }
    for (const PlanEntry& e : plan.inbox[i]) {
      const double inv =
          1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
      const double scale = static_cast<double>(e.shares) * inv;
      const size_t srow = static_cast<size_t>(e.sender) * n;
      for (uint32_t j = 0; j < n; ++j) {
        next_y_[row + j] += y_[srow + j] * scale;
        next_g_[row + j] += g_[srow + j] * scale;
      }
      if (use_count_) {
        for (uint32_t j = 0; j < n; ++j) {
          next_c_[row + j] += c_[srow + j] * scale;
        }
      }
    }

    MergeOutcome out;
    for (uint32_t j = 0; j < n; ++j) {
      const double ng = next_g_[row + j];
      if (ng != 0.0) out.has_weight = true;
      const double r = ng != 0.0 ? next_y_[row + j] / ng : sentinel_;
      out.distance += std::fabs(r - prev_ratio_[row + j]);
      prev_ratio_[row + j] = r;
      if (use_count_) {
        const double rc = ng != 0.0 ? next_c_[row + j] / ng : sentinel_;
        out.distance += std::fabs(rc - prev_cratio_[row + j]);
        prev_cratio_[row + j] = rc;
      }
    }
    return out;
  }

  void Install(const StepPlan&, const std::vector<uint8_t>& stopped,
               ThreadPool& pool) {
    pool.ParallelFor(n_, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (stopped[i]) continue;
        const size_t row = i * n_;
        std::copy(next_y_.begin() + row, next_y_.begin() + row + n_,
                  y_.begin() + row);
        std::copy(next_g_.begin() + row, next_g_.begin() + row + n_,
                  g_.begin() + row);
        if (use_count_) {
          std::copy(next_c_.begin() + row, next_c_.begin() + row + n_,
                    c_.begin() + row);
        }
      }
    });
  }

  VectorGossipResult Finish(ThreadPool&) {
    VectorGossipResult res;
    res.estimates.assign(n_, std::vector<double>(n_, 0.0));
    if (use_count_) res.count_estimates.assign(n_, std::vector<double>(n_));
    for (uint32_t i = 0; i < n_; ++i) {
      const size_t row = static_cast<size_t>(i) * n_;
      for (uint32_t j = 0; j < n_; ++j) {
        res.estimates[i][j] = Ratio(y_, row + j);
        if (use_count_) res.count_estimates[i][j] = Ratio(c_, row + j);
      }
    }
    return res;
  }

 private:
  double Ratio(const std::vector<double>& channel, size_t idx) const {
    return g_[idx] != 0.0 ? channel[idx] / g_[idx] : sentinel_;
  }

  const uint32_t n_;
  const bool use_count_;
  const double sentinel_;
  const double threshold_;
  std::vector<double> y_, g_, c_;
  // Next-step rows (a merge reads other nodes' previous rows, so it
  // cannot update in place).
  std::vector<double> next_y_, next_g_, next_c_;
  std::vector<double> prev_ratio_, prev_cratio_;
};

}  // namespace

Result<VectorGossipResult> VectorPushSum::Run(
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0) {
  const uint32_t n = setup_.graph->num_nodes();
  const bool use_count = !c0.empty();
  if (y0.size() != n || g0.size() != n || (use_count && c0.size() != n)) {
    return Status::InvalidArgument("initial matrices must have N rows");
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (y0[i].size() != n || g0[i].size() != n ||
        (use_count && c0[i].size() != n)) {
      return Status::InvalidArgument("initial matrices must have N columns");
    }
  }
  DensePolicy policy(y0, g0, c0, setup_.options);
  return SyncPushSum<DensePolicy>(setup_).Run(policy);
}

}  // namespace dgt
