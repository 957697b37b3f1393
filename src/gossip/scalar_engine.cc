#include "gossip/scalar_engine.h"

#include <cmath>
#include <utility>

#include "gossip/sync_engine.h"

namespace dgt {

namespace {

// Scalar pair (y_i, g_i) plus the optional count channel c_i.
class ScalarPolicy {
 public:
  using Result = GossipResult;
  struct Scratch {};

  ScalarPolicy(const std::vector<double>& y0, const std::vector<double>& g0,
               const std::vector<double>& c0, const GossipOptions& options)
      : options_(options), use_count_(!c0.empty()) {
    const size_t n = y0.size();
    res_.values = y0;
    res_.weights = g0;
    res_.counts = use_count_ ? c0 : std::vector<double>(n, 0.0);
    next_y_.resize(n);
    next_g_.resize(n);
    next_c_.resize(use_count_ ? n : 0);
    // u_i: the ratio tracked from the previous step (and the count-channel
    // ratio when that channel is active — convergence must cover both).
    u_.resize(n);
    uc_.resize(use_count_ ? n : 0);
    for (size_t i = 0; i < n; ++i) u_[i] = RatioOf(res_.values, i);
    for (size_t i = 0; i < uc_.size(); ++i) uc_[i] = RatioOf(res_.counts, i);
    if (options_.track_trace) res_.trace.reserve(64);
  }

  double threshold() const { return options_.xi; }
  void BeginStep(const StepPlan&, const std::vector<uint8_t>&) {}

  MergeOutcome Merge(NodeId i, const StepPlan& plan, Scratch&) {
    double acc_y = 0.0, acc_g = 0.0, acc_c = 0.0;
    for (const PlanEntry& e : plan.inbox[i]) {
      const uint32_t k = plan.k_used[e.sender];
      acc_y += ShareOf(res_.values[e.sender], k, e.shares);
      acc_g += ShareOf(res_.weights[e.sender], k, e.shares);
      if (use_count_) acc_c += ShareOf(res_.counts[e.sender], k, e.shares);
    }
    next_y_[i] = acc_y;
    next_g_[i] = acc_g;
    if (use_count_) next_c_[i] = acc_c;

    const double sentinel = options_.ratio_sentinel;
    const double r = acc_g != 0.0 ? acc_y / acc_g : sentinel;
    double change = std::fabs(r - u_[i]);
    if (use_count_) {
      const double rc = acc_g != 0.0 ? acc_c / acc_g : sentinel;
      change += std::fabs(rc - uc_[i]);
      uc_[i] = rc;
    }
    u_[i] = r;
    return {change, acc_g != 0.0};
  }

  void Install(const StepPlan&, const std::vector<uint8_t>& stopped,
               ThreadPool& pool) {
    pool.ParallelFor(stopped.size(), [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (stopped[i]) continue;
        res_.values[i] = next_y_[i];
        res_.weights[i] = next_g_[i];
        if (use_count_) res_.counts[i] = next_c_[i];
      }
    });
    if (options_.track_trace) res_.trace.push_back(Ratios());
  }

  GossipResult Finish(ThreadPool&) {
    res_.ratios = Ratios();
    return std::move(res_);
  }

 private:
  double RatioOf(const std::vector<double>& channel, size_t i) const {
    return res_.weights[i] != 0.0 ? channel[i] / res_.weights[i]
                                  : options_.ratio_sentinel;
  }
  std::vector<double> Ratios() const {
    std::vector<double> row(res_.values.size());
    for (size_t i = 0; i < row.size(); ++i) row[i] = RatioOf(res_.values, i);
    return row;
  }

  const GossipOptions& options_;
  const bool use_count_;
  // values/weights/counts hold the live state (y, g, c).
  GossipResult res_;
  // Next-step state, installed after every receiver has merged (a merge
  // reads other nodes' previous values, so it cannot update in place).
  std::vector<double> next_y_, next_g_, next_c_;
  std::vector<double> u_, uc_;
};

}  // namespace

Result<GossipResult> ScalarPushSum::Run(const std::vector<double>& y0,
                                        const std::vector<double>& g0,
                                        const std::vector<double>& c0) {
  const uint32_t n = setup_.graph->num_nodes();
  if (y0.size() != n || g0.size() != n) {
    return Status::InvalidArgument("y0/g0 must have num_nodes entries");
  }
  if (!c0.empty() && c0.size() != n) {
    return Status::InvalidArgument("c0 must be empty or num_nodes entries");
  }
  for (double g : g0) {
    if (g < 0.0) return Status::InvalidArgument("gossip weights must be >= 0");
  }
  ScalarPolicy policy(y0, g0, c0, setup_.options);
  return SyncPushSum<ScalarPolicy>(setup_).Run(policy);
}

}  // namespace dgt
