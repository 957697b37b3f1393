// Phase A of the two-phase deterministic gossip step, shared by every
// synchronous gossip loop: the SyncPushSum executor (scalar, dense and
// sparse engines), the churn engine and the potential tracker.
//
// A synchronous push-sum step factors cleanly into
//   (A) push generation — every active node draws its k_i targets and the
//       per-push loss outcomes; each delivered share becomes a
//       (sender, shares) entry in the receiver's contribution list;
//   (B) merge — every receiver folds its contribution list into its next
//       state and evaluates the convergence predicate.
// Phase B is embarrassingly parallel across receivers once the lists
// exist, PROVIDED each list is reduced in a fixed order. BuildStepPlan
// emits every receiver's list in ascending-sender order with the
// receiver's own kept share sitting at its own sender slot — the
// accumulation order of a one-thread merge — so the merge is bit-for-bit
// identical at any thread count.
//
// `shares` counts how many (1/(k+1))-shares of the sender's state the
// entry carries: 1 for a delivered push, and 1 + number of bounced pushes
// for the sender's own kept entry (lost packets and pushes to stopped
// nodes return their share to the sender, preserving mass).

#ifndef DGT_GOSSIP_STEP_PLAN_H_
#define DGT_GOSSIP_STEP_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

struct PlanEntry {
  NodeId sender;
  uint32_t shares;
};

// What a plan entry delivers of one scalar channel whose sender value is
// `value` and who pushed `k_used` times: `shares` shares of value /
// (k_used + 1), accumulated as repeated adds (not a multiply).
inline double ShareOf(double value, uint32_t k_used, uint32_t shares) {
  const double share = value / (static_cast<double>(k_used) + 1.0);
  double total = share;
  for (uint32_t s = 1; s < shares; ++s) total += share;
  return total;
}

struct StepPlan {
  // inbox[t]: contribution list of receiver t, ascending-sender order.
  std::vector<std::vector<PlanEntry>> inbox;
  // Pushes each sender transmitted this step (0 for stopped nodes); the
  // denominator of its share split is k_used[i] + 1.
  std::vector<uint32_t> k_used;
  // Distinct other-node senders that delivered to each receiver (the
  // |S| > 1 convergence guard).
  std::vector<uint32_t> senders;
  // Total pushes transmitted (lost / bounced ones included: transmission
  // cost is incurred before the loss is detected).
  uint64_t pushes = 0;

  void Reset(uint32_t num_nodes);
};

// The one push-draw planner. Draws one step's push targets and loss
// outcomes for every node that is neither `inactive` nor without
// neighbours, and bins the deliveries per receiver; a push to an inactive
// target bounces back to its sender. Per node the draw order is targets
// first (one NextBelow when k == 1, else SampleWithoutReplacement), then
// one loss trial per transmitted push (none when packet_loss_prob == 0).
// kSequential consumes `shared_rng` in node order; kCounter derives a
// per-(node, step) generator from `stream_root` via StreamAt and shards
// the generation across `pool`. Both are thread-count invariant.
void BuildStepPlan(const std::vector<std::vector<NodeId>>& adjacency,
                   const std::vector<uint32_t>& push_counts,
                   const std::vector<uint8_t>& inactive,
                   const GossipOptions& options, uint32_t step,
                   Rng& shared_rng, const Rng& stream_root, ThreadPool& pool,
                   StepPlan& plan);

}  // namespace dgt

#endif  // DGT_GOSSIP_STEP_PLAN_H_
