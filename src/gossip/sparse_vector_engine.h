// SparseVectorPushSum: the vector push-sum gossip (paper variants 3 and 4)
// with each node's state stored as a sparse row instead of dense length-N
// vectors.
//
// Motivation: the dense VectorPushSum allocates six N x N double arrays
// (~120 GB at the paper's N = 50,000), so the headline configuration —
// GCLR of all nodes at all observers — can never run at paper scale. But
// trust matrices are sparse (a node only holds direct trust in the few
// peers it transacted with), so early gossip state is sparse too; rows
// only fill in as mass mixes across the overlay. This engine's per-step
// cost is proportional to the nonzeros actually pushed, not to N per
// message, and its memory footprint tracks the live nonzero count.
//
// State layout: each node holds one SparseVectorRow — CSR-style parallel
// arrays (cols sorted ascending; y, g and optionally c aligned with cols).
// A push enqueues (sender, scale) against each target; the receive side
// merges all of a step's contributions with a k-way sorted-column walk
// (merge-on-receive), so incoming shares are combined without ever
// materialising a dense inbox.
//
// Equivalence: for identical options and initial state this engine is
// bit-for-bit identical to VectorPushSum — same RNG draw sequence, same
// floating-point accumulation order (contributions combine in sender
// order per column, and absent columns contribute exact zeros to eq. (7)'s
// L1 test), same message accounting (asserted by the SparseDenseEquivalence
// sweep in tests/gossip/sparse_vector_engine_test.cc). The step loop and
// the announce/stop protocol are the SyncPushSum executor's
// (sync_engine.h); this engine supplies the merge, the L1 distance and
// the ref-counted row release.

#ifndef DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
#define DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

// One node's gossip state: sorted sparse (column, y, g[, c]) entries.
// `cols` is strictly increasing; `y`/`g` (and `c` when the count channel
// is active) are parallel to it. Absent columns hold exact zeros.
struct SparseVectorRow {
  std::vector<uint32_t> cols;
  std::vector<double> y;
  std::vector<double> g;
  std::vector<double> c;  // empty when the count channel is unused

  size_t nnz() const { return cols.size(); }
};

struct SparseVectorGossipResult : GossipRunStats {
  // Per node: sorted columns where gossip weight arrived (g != 0), with
  // the final ratio y/g and count ratio c/g. Columns absent from a row
  // are at options.ratio_sentinel (no weight reached the node), exactly
  // like the dense engine's estimates. peak_state_nonzeros (the engine's
  // actual working-set size) is reported by the large-N benches.
  struct Row {
    std::vector<uint32_t> cols;
    std::vector<double> estimates;
    std::vector<double> count_estimates;  // empty when count unused
  };
  std::vector<Row> rows;

  // Densified estimates (sentinel where no weight arrived) — for small-N
  // cross-validation against VectorPushSum; O(rows * N) memory.
  std::vector<std::vector<double>> DenseEstimates(double sentinel) const;
  std::vector<std::vector<double>> DenseCountEstimates(double sentinel) const;
};

// The input contract shared by the synchronous and the event-driven sparse
// engines: exactly `num_nodes` rows, each with strictly increasing cols in
// [0, num_nodes), y/g parallel to cols, c parallel when `use_count` and
// empty otherwise, and no negative gossip weight.
Status ValidateSparseRows(const std::vector<SparseVectorRow>& rows,
                          uint32_t num_nodes, bool use_count);

class SparseVectorPushSum {
 public:
  SparseVectorPushSum(const Graph* graph, GossipOptions options)
      : setup_(graph, options) {}

  // `init` holds one row per node. Fails with InvalidArgument unless it
  // meets ValidateSparseRows.
  Result<SparseVectorGossipResult> Run(std::vector<SparseVectorRow> init,
                                       bool use_count);

  const std::vector<uint32_t>& push_counts() const {
    return setup_.push_counts;
  }

 private:
  SyncSetup setup_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
