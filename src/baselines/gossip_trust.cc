#include "baselines/gossip_trust.h"

#include "gossip/vector_engine.h"

namespace dgt {

Result<GossipTrustResult> AggregateGossipTrust(const Graph& graph,
                                               const TrustMatrix& trust,
                                               AggregationOptions options) {
  options.gossip.strategy = PushStrategy::kUniform;
  const uint32_t num = graph.num_nodes();
  if (num == 0 || trust.num_nodes() != num) {
    return Status::InvalidArgument("graph/trust node count mismatch");
  }

  // The paper's eq. (8) family: R_j = sum_i t_ij / N — every node carries
  // gossip weight 1 for every column, so the ratio converges to the mean
  // over ALL N nodes (strangers implicitly vote 0).
  std::vector<std::vector<double>> y0(num, std::vector<double>(num, 0.0));
  std::vector<std::vector<double>> g0(num, std::vector<double>(num, 1.0));
  for (NodeId i = 0; i < num; ++i) {
    for (const auto& [j, t] : trust.Row(i)) y0[i][j] = t;
  }
  VectorPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(VectorGossipResult run, engine.Run(y0, g0));

  GossipTrustResult out;
  out.estimates = std::move(run.estimates);
  out.stats = static_cast<const GossipRunStats&>(run);
  out.global.assign(num, 0.0);
  for (uint32_t j = 0; j < num; ++j) {
    double acc = 0.0;
    for (uint32_t i = 0; i < num; ++i) acc += out.estimates[i][j];
    out.global[j] = acc / static_cast<double>(num);
  }
  return out;
}

}  // namespace dgt
