// SyncPushSum<Policy>: the one synchronous push-sum executor behind the
// scalar (Algorithms 1/2), dense and sparse vector (variants 3/4) engines.
// The paper's §4.1.2 protocol is the same whatever a gossip "pair" is, so
// the executor owns the loop and a value policy says what a pair is. Per
// step: A. BuildStepPlan (step_plan.h); B. Policy::Merge for every active
// receiver, sharded, then the streak/announce rule on its distance;
// C. Policy::Install; D. the force-converge and stop passes. A merge
// writes only its receiver's slots and every reduction runs in a fixed
// order, so results are bit-for-bit identical at any num_threads.
//
// Policy interface (static; the engines' .cc files hold the policies):
//   using Result = ...;   // derives from GossipRunStats
//   using Scratch = ...;  // per-shard merge scratch
//   double threshold() const;  // eq. (7) bound on Merge's distance
//   void BeginStep(const StepPlan&, const std::vector<uint8_t>& stopped);
//   MergeOutcome Merge(NodeId receiver, const StepPlan&, Scratch&);
//   void Install(const StepPlan&, const std::vector<uint8_t>& stopped,
//                ThreadPool&);
//   Result Finish(ThreadPool&);  // estimates; the executor adds the stats

#ifndef DGT_GOSSIP_SYNC_ENGINE_H_
#define DGT_GOSSIP_SYNC_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/options.h"
#include "gossip/step_plan.h"
#include "graph/graph.h"

namespace dgt {

// What a receiver's merge reports to the convergence rule: eq. (7)'s
// left-hand side, and whether the receiver now holds gossip weight (a
// weightless node parks at the sentinel, which is trivially stable).
struct MergeOutcome {
  double distance = 0.0;
  bool has_weight = false;
};

template <typename Policy>
class SyncPushSum {
 public:
  // `setup` must outlive the executor.
  explicit SyncPushSum(const SyncSetup& setup) : setup_(setup) {}

  // Runs to convergence (or options.max_steps) over `policy`'s state.
  // Fails with InvalidArgument if xi is not positive.
  Result<typename Policy::Result> Run(Policy& policy) const;

 private:
  const SyncSetup& setup_;
};

template <typename Policy>
Result<typename Policy::Result> SyncPushSum<Policy>::Run(
    Policy& policy) const {
  const Graph& graph = *setup_.graph;
  const GossipOptions& options = setup_.options;
  if (options.xi <= 0.0) {
    return Status::InvalidArgument("xi must be positive");
  }
  const uint32_t n = graph.num_nodes();
  Rng rng(options.seed);
  ThreadPool pool(options.num_threads);

  std::vector<uint8_t> converged(n, 0), stopped(n, 0);
  // Consecutive qualifying steps towards the convergence announcement.
  std::vector<uint32_t> streak(n, 0);
  // Per-node accounting for the Table 2 metric.
  std::vector<uint64_t> node_sent(n, 0);
  std::vector<uint32_t> node_active_steps(n, 0);

  GossipRunStats stats;
  // One-time degree announcements: every node pushes its degree to all
  // neighbours so that k_i can be computed. Cost = sum of degrees. Under
  // plain push k_i is constant, so no degrees need announcing.
  if (options.strategy == PushStrategy::kDifferential) {
    stats.control_messages += graph.DegreeSum();
    for (NodeId i = 0; i < n; ++i) node_sent[i] += graph.Degree(i);
  }

  std::atomic<uint32_t> num_stopped{0};
  // Isolated nodes can never hear from anybody: converge and stop them
  // immediately.
  for (NodeId i = 0; i < n; ++i) {
    if (graph.Degree(i) == 0) {
      converged[i] = 1;
      stopped[i] = 1;
      num_stopped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t> control_messages{0};
  // Node i announces convergence to all its neighbours.
  auto announce = [&](NodeId i) {
    converged[i] = 1;
    control_messages.fetch_add(graph.Degree(i), std::memory_order_relaxed);
    node_sent[i] += graph.Degree(i);
  };
  auto all_neighbors = [&](NodeId i, const std::vector<uint8_t>& flag) {
    const std::vector<NodeId>& nbrs = graph.Neighbors(i);
    return std::all_of(nbrs.begin(), nbrs.end(),
                       [&](NodeId v) { return flag[v] != 0; });
  };

  const double threshold = policy.threshold();
  StepPlan plan;
  uint32_t step = 0;
  while (num_stopped.load(std::memory_order_relaxed) < n &&
         step < options.max_steps) {
    ++step;

    // Phase A: draw every node's pushes and bin them per receiver.
    BuildStepPlan(graph.adjacency(), setup_.push_counts, stopped, options,
                  step, rng, rng, pool, plan);
    stats.gossip_messages += plan.pushes;
    for (NodeId i = 0; i < n; ++i) node_sent[i] += plan.k_used[i];
    policy.BeginStep(plan, stopped);

    // Phase B: each receiver merges its contribution list and weighs the
    // step as convergence evidence. A step counts towards the streak when
    // the node heard from somebody else (|S| > 1), carries gossip weight,
    // and its tracked ratios moved by at most the threshold; a step where
    // it heard something and moved MORE resets the streak; silent steps
    // carry no evidence either way.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      typename Policy::Scratch scratch;
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i]) continue;
        ++node_active_steps[i];
        const MergeOutcome m = policy.Merge(i, plan, scratch);
        if (converged[i]) continue;
        if (plan.senders[i] >= 1 && m.has_weight) {
          streak[i] = m.distance <= threshold ? streak[i] + 1 : 0;
        }
        if (streak[i] >= options.convergence_rounds) announce(i);
      }
    });

    // Phase C. Stopped nodes are frozen: nothing was delivered to them
    // (senders bounced instead), so they keep their previous state.
    policy.Install(plan, stopped, pool);

    // Phase D. A node whose neighbours have ALL stopped can never hear
    // from anybody again, so it adopts its current estimate and
    // announces; a converged node stops once all its neighbours have
    // converged.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i] || converged[i] || graph.Degree(i) == 0) continue;
        if (all_neighbors(i, stopped)) announce(i);
      }
    });
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i] || !converged[i] || !all_neighbors(i, converged)) {
          continue;
        }
        stopped[i] = 1;
        num_stopped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  stats.control_messages += control_messages.load(std::memory_order_relaxed);
  stats.steps = step;
  stats.converged = (num_stopped.load(std::memory_order_relaxed) == n);
  double per_step_sum = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    per_step_sum += static_cast<double>(node_sent[i]) /
                    static_cast<double>(std::max(node_active_steps[i], 1u));
  }
  stats.mean_messages_per_active_node_step =
      n > 0 ? per_step_sum / static_cast<double>(n) : 0.0;

  typename Policy::Result res = policy.Finish(pool);
  stats.peak_state_nonzeros = res.peak_state_nonzeros;
  static_cast<GossipRunStats&>(res) = stats;
  return res;
}

}  // namespace dgt

#endif  // DGT_GOSSIP_SYNC_ENGINE_H_
