#include "gossip/sparse_vector_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "gossip/sync_engine.h"

namespace dgt {

namespace {

struct MergeCursor {
  const SparseVectorRow* src;
  size_t pos;
  double scale;
  bool is_self;
};

constexpr uint32_t kNoColumn = std::numeric_limits<uint32_t>::max();

std::vector<std::vector<double>> Densify(
    const std::vector<SparseVectorGossipResult::Row>& rows,
    std::vector<double> SparseVectorGossipResult::Row::*values,
    double sentinel) {
  std::vector<std::vector<double>> out(
      rows.size(), std::vector<double>(rows.size(), sentinel));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t k = 0; k < rows[i].cols.size(); ++k) {
      out[i][rows[i].cols[k]] = (rows[i].*values)[k];
    }
  }
  return out;
}

// Sparse rows merged on receive. Previous-step rows are reference-counted
// and released as soon as their last consumer merged (the count is atomic:
// under a threaded merge the last consumer may finish on any worker), so
// the live footprint stays near one copy of the state, not two.
class SparsePolicy {
 public:
  using Result = SparseVectorGossipResult;
  using Scratch = std::vector<MergeCursor>;

  SparsePolicy(std::vector<SparseVectorRow> init, bool use_count,
               uint64_t total_nnz, const GossipOptions& options)
      : n_(static_cast<uint32_t>(init.size())),
        use_count_(use_count),
        sentinel_(options.ratio_sentinel),
        threshold_(static_cast<double>(n_) * options.xi),
        state_(std::move(init)),
        next_(n_),
        refs_(n_),
        replay_refs_(n_, 0),
        prev_nnz_(n_, 0),
        merged_nnz_(n_, 0),
        total_nnz_(total_nnz),
        peak_nnz_(total_nnz) {}

  double threshold() const { return threshold_; }

  // Counts every previous-step row's consumers this step.
  void BeginStep(const StepPlan& plan, const std::vector<uint8_t>& stopped) {
    for (NodeId i = 0; i < n_; ++i) {
      prev_nnz_[i] = state_[i].nnz();
      replay_refs_[i] = 0;
    }
    for (NodeId i = 0; i < n_; ++i) {
      if (stopped[i]) continue;
      for (const PlanEntry& e : plan.inbox[i]) ++replay_refs_[e.sender];
    }
    for (NodeId i = 0; i < n_; ++i) {
      refs_[i].store(replay_refs_[i], std::memory_order_relaxed);
    }
  }

  // k-way sorted-column walk over the receiver's inbox (ascending-sender
  // cursor order — the dense engine's accumulation order). Cost is
  // proportional to the nonzeros contributed, not to N. Previous-step rows
  // are read-only here and released by whichever merge consumes the last
  // reference.
  MergeOutcome Merge(NodeId i, const StepPlan& plan,
                     std::vector<MergeCursor>& cursors) {
    assert(!plan.inbox[i].empty());
    cursors.clear();
    for (const PlanEntry& e : plan.inbox[i]) {
      const double inv =
          1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
      cursors.push_back({&state_[e.sender], 0,
                         static_cast<double>(e.shares) * inv, e.sender == i});
    }
    SparseVectorRow& merged = next_[i];

    MergeOutcome out;
    while (true) {
      uint32_t jmin = kNoColumn;
      for (const MergeCursor& cur : cursors) {
        if (cur.pos < cur.src->cols.size()) {
          jmin = std::min(jmin, cur.src->cols[cur.pos]);
        }
      }
      if (jmin == kNoColumn) break;
      double ay = 0.0, ag = 0.0, ac = 0.0;
      double old_y = 0.0, old_g = 0.0, old_c = 0.0;
      bool in_old = false;
      for (MergeCursor& cur : cursors) {
        if (cur.pos < cur.src->cols.size() && cur.src->cols[cur.pos] == jmin) {
          ay += cur.src->y[cur.pos] * cur.scale;
          ag += cur.src->g[cur.pos] * cur.scale;
          if (use_count_) ac += cur.src->c[cur.pos] * cur.scale;
          if (cur.is_self) {
            in_old = true;
            old_y = cur.src->y[cur.pos];
            old_g = cur.src->g[cur.pos];
            if (use_count_) old_c = cur.src->c[cur.pos];
          }
          ++cur.pos;
        }
      }
      // eq. (7) terms, in the dense engine's exact order (ratio term, then
      // count term). Columns outside the merged set contribute exact zeros
      // (sentinel minus sentinel), so skipping them leaves the L1 sum
      // bit-identical. The previous-step ratio is recomputed from the kept
      // share's source row — the node's own old state.
      double r = ag != 0.0 ? ay / ag : sentinel_;
      double prev = (in_old && old_g != 0.0) ? old_y / old_g : sentinel_;
      out.distance += std::fabs(r - prev);
      if (use_count_) {
        double rc = ag != 0.0 ? ac / ag : sentinel_;
        double prev_c = (in_old && old_g != 0.0) ? old_c / old_g : sentinel_;
        out.distance += std::fabs(rc - prev_c);
      }
      if (ag != 0.0) out.has_weight = true;
      if (ay != 0.0 || ag != 0.0 || ac != 0.0) {
        merged.cols.push_back(jmin);
        merged.y.push_back(ay);
        merged.g.push_back(ag);
        if (use_count_) merged.c.push_back(ac);
      }
    }
    merged_nnz_[i] = merged.nnz();

    // Release previous-step rows whose last consumer was this merge
    // (acq_rel: the release must observe every consumer's reads).
    for (const PlanEntry& e : plan.inbox[i]) {
      if (refs_[e.sender].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state_[e.sender] = SparseVectorRow();
      }
    }
    return out;
  }

  void Install(const StepPlan& plan, const std::vector<uint8_t>& stopped,
               ThreadPool&) {
    // peak_state_nonzeros accounting: replay a one-thread merge's
    // receiver-order bookkeeping (merge row i, then release rows whose
    // last consumer was i), so the reported metric is identical at every
    // thread count. (A threaded merge's instantaneous footprint can
    // transiently exceed it by the rows still queued for release; the
    // merge's releases keep that slack to the in-flight shard set.)
    for (NodeId i = 0; i < n_; ++i) {
      if (stopped[i]) continue;
      total_nnz_ += merged_nnz_[i];
      peak_nnz_ = std::max(peak_nnz_, total_nnz_);
      for (const PlanEntry& e : plan.inbox[i]) {
        if (--replay_refs_[e.sender] == 0) total_nnz_ -= prev_nnz_[e.sender];
      }
    }
    for (NodeId i = 0; i < n_; ++i) {
      if (stopped[i]) continue;
      assert(state_[i].nnz() == 0);
      state_[i] = std::move(next_[i]);
      next_[i] = SparseVectorRow();
    }
  }

  SparseVectorGossipResult Finish(ThreadPool& pool) {
    SparseVectorGossipResult res;
    res.peak_state_nonzeros = peak_nnz_;
    res.rows.resize(n_);
    pool.ParallelFor(n_, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        SparseVectorRow& row = state_[i];
        SparseVectorGossipResult::Row& out = res.rows[i];
        size_t kept = 0;
        for (size_t k = 0; k < row.cols.size(); ++k) {
          if (row.g[k] != 0.0) ++kept;
        }
        out.cols.reserve(kept);
        out.estimates.reserve(kept);
        if (use_count_) out.count_estimates.reserve(kept);
        for (size_t k = 0; k < row.cols.size(); ++k) {
          if (row.g[k] == 0.0) continue;  // sentinel, i.e. absent
          out.cols.push_back(row.cols[k]);
          out.estimates.push_back(row.y[k] / row.g[k]);
          if (use_count_) out.count_estimates.push_back(row.c[k] / row.g[k]);
        }
        // Release the state row eagerly so peak memory is one state row
        // plus the accumulated result, not both in full.
        row = SparseVectorRow();
      }
    });
    return res;
  }

 private:
  const uint32_t n_;
  const bool use_count_;
  const double sentinel_;
  const double threshold_;
  std::vector<SparseVectorRow> state_;
  // Next-step rows for the nodes updated this step.
  std::vector<SparseVectorRow> next_;
  std::vector<std::atomic<uint32_t>> refs_;
  // Serial-replay bookkeeping for the peak_state_nonzeros metric.
  std::vector<uint32_t> replay_refs_;
  std::vector<uint64_t> prev_nnz_, merged_nnz_;
  uint64_t total_nnz_;
  uint64_t peak_nnz_;
};

}  // namespace

std::vector<std::vector<double>> SparseVectorGossipResult::DenseEstimates(
    double sentinel) const {
  return Densify(rows, &Row::estimates, sentinel);
}

std::vector<std::vector<double>>
SparseVectorGossipResult::DenseCountEstimates(double sentinel) const {
  return Densify(rows, &Row::count_estimates, sentinel);
}

Status ValidateSparseRows(const std::vector<SparseVectorRow>& rows,
                          uint32_t num_nodes, bool use_count) {
  if (rows.size() != num_nodes) {
    return Status::InvalidArgument("initial state must have N rows");
  }
  for (uint32_t i = 0; i < num_nodes; ++i) {
    const SparseVectorRow& row = rows[i];
    const std::string where = "row " + std::to_string(i) + ": ";
    if (row.y.size() != row.cols.size() || row.g.size() != row.cols.size() ||
        row.c.size() != (use_count ? row.cols.size() : 0)) {
      return Status::InvalidArgument(where + "value arrays must parallel cols");
    }
    for (size_t k = 0; k < row.cols.size(); ++k) {
      if (row.cols[k] >= num_nodes) {
        return Status::InvalidArgument(where + "column out of range");
      }
      if (k > 0 && row.cols[k] <= row.cols[k - 1]) {
        return Status::InvalidArgument(where +
                                       "columns must be strictly increasing");
      }
      if (row.g[k] < 0.0) {
        return Status::InvalidArgument(where + "gossip weights must be >= 0");
      }
    }
  }
  return Status::OK();
}

Result<SparseVectorGossipResult> SparseVectorPushSum::Run(
    std::vector<SparseVectorRow> init, bool use_count) {
  DGT_RETURN_IF_ERROR(
      ValidateSparseRows(init, setup_.graph->num_nodes(), use_count));
  uint64_t total_nnz = 0;
  for (const SparseVectorRow& row : init) total_nnz += row.nnz();
  SparsePolicy policy(std::move(init), use_count, total_nnz, setup_.options);
  return SyncPushSum<SparsePolicy>(setup_).Run(policy);
}

}  // namespace dgt
