// aggregate: back-to-back variant-4 AggregateGclrVector calls at N = 2000
// with 4 gossip threads — the paper's headline computation, with no
// serving layer involved.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "reputation/aggregation.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kNodes = 2000;
constexpr uint32_t kThreads = 4;
constexpr int kSetupReps = 3;

// What one call leaves for the checks made after the timed loop: its
// counts and the sampled observers' estimate rows.
struct CallRecord {
  bool ok = false;
  dgt::GossipRunStats stats;
  std::vector<std::vector<double>> rows;
};

struct CallLoop {
  Intervals call_s;  // each call's seconds, at seconds since the loop start
  std::unique_ptr<StealTimeline> steal;
};

}  // namespace

dgt::Status RunAggregate(const Args& args, Shape* shape, Report* report) {
  const uint32_t nodes = args.nodes != 0 ? args.nodes : kNodes;
  *shape = Shape{nodes, kThreads, 0, 0, 0};
  const Seeds seeds(args.seed);
  const dgt::AggregationOptions opts = MakeAggregationOptions(seeds, kThreads);
  const std::vector<dgt::NodeId> observers = SampleObservers(nodes, seeds);

  std::vector<CallRecord> records;
  Inputs in;
  auto call = [&](uint64_t op) {
    dgt::Result<dgt::VectorAggregationResult> r = [&] {
      ScopedSpan span("reputation.AggregateGclrVector", op);
      return dgt::AggregateGclrVector(*in.graph, in.trust, opts);
    }();
    CallRecord rec;
    rec.ok = r.ok();
    if (r.ok()) {
      rec.stats = r.value().stats;
      for (dgt::NodeId o : observers) {
        rec.rows.push_back(r.value().estimates[o]);
      }
    } else {
      std::cerr << "aggregation failed: " << r.status().ToString() << "\n";
    }
    records.push_back(std::move(rec));
  };
  auto run_calls = [&](double budget_s, bool traced, CallLoop* loop) {
    Tracer::Get().SetEnabled(traced);
    const auto start = Clock::now();
    loop->steal = std::make_unique<StealTimeline>(start);
    do {
      const double t0 = SecondsSince(start);
      call(records.size() + 1);
      const double t1 = SecondsSince(start);
      loop->call_s.Add(t1 - t0, t0, t1);
    } while (SecondsSince(start) < budget_s);
    loop->steal->Stop();
    Tracer::Get().SetEnabled(false);
  };

  // Set-up: graph, trust and a first (untimed, checked) aggregation, the
  // analogue of the serving workloads' first epoch. Graph and trust alone
  // take milliseconds on one thread, which swing with the core the
  // process lands on; the call makes set-up as steady as the calls.
  EndToEnd e2e;
  SetupTimer setup;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    setup.Begin();
    in = BuildInputs(nodes, seeds);
    call(records.size() + 1);
    setup.End();
  }
  e2e.setup_s = Select(setup.seconds(), setup.Unstolen());

  CallLoop loop, traced;
  if (!args.trace) {
    run_calls(args.seconds, false, &loop);
    e2e.peak_rss_mb = PeakRssMb();
  } else {
    run_calls(args.seconds / 2, false, &loop);
    run_calls(args.seconds / 2, true, &traced);
  }

  // Every call must land within xi of the exact GCLR on the sampled
  // observers and repeat the first call's step/message/nnz counts exactly.
  std::vector<std::vector<double>> exact =
      ExactRows(*in.graph, in.trust, observers);
  if (args.corrupt_expected) exact[0][0] += 1.0;
  double max_gap = 0.0;
  bool explained = false;
  const dgt::GossipRunStats& first = records.front().stats;
  for (const CallRecord& rec : records) {
    double gap = INFINITY;
    size_t worst_k = 0, worst_j = 0;
    if (rec.ok) {
      gap = 0.0;
      for (size_t k = 0; k < observers.size(); ++k) {
        for (size_t j = 0; j < rec.rows[k].size(); ++j) {
          const double d = std::fabs(rec.rows[k][j] - exact[k][j]);
          if (d > gap) {
            gap = d;
            worst_k = k;
            worst_j = j;
          }
        }
      }
    }
    if (rec.ok && gap > kXi && !explained) {
      // Name the worst entry once, so a failing seed can be replayed.
      std::cerr << "aggregate: estimate of observer " << observers[worst_k]
                << " for target " << worst_j << " is "
                << rec.rows[worst_k][worst_j] << ", exact GCLR "
                << exact[worst_k][worst_j] << " (gap " << gap
                << " > xi)\n";
      explained = true;
    }
    max_gap = std::max(max_gap, gap);
    report->Op(rec.ok && gap <= kXi && rec.stats.converged &&
               rec.stats.steps == first.steps &&
               rec.stats.gossip_messages == first.gossip_messages &&
               rec.stats.peak_state_nonzeros == first.peak_state_nonzeros);
  }
  report->Note("host_steal_frac", JsonNumber(loop.steal->Overall()));
  report->Note("exact_gap_max", JsonNumber(max_gap));
  report->NoteCount("steps", first.steps);
  report->NoteCount("gossip_messages", first.gossip_messages);
  report->NoteCount("peak_nnz", first.peak_state_nonzeros);
  report->NoteCount("gossip_state_peak_bytes_computed",
                    first.peak_state_nonzeros * kGossipBytesPerNonzero);

  if (!args.trace) {
    const Samples calls = Select(
        loop.call_s.values, UnstolenIntervals(loop.call_s, *loop.steal, 2));
    double sum_s = 0.0;
    for (size_t i = 0; i < calls.count(); ++i) sum_s += calls.at(i);
    e2e.round_s = calls;
    e2e.op_us_p50 = 1e6 * calls.Median();
    e2e.op_us_p90 = 1e6 * calls.Percentile(90.0);
    e2e.ops_per_s = static_cast<double>(calls.count()) / sum_s;
    AddEndToEndMetrics(e2e, report);
    return dgt::Status::OK();
  }

  LayerContext ctx;
  ctx.graph = in.graph.get();
  ctx.trust = &in.trust;
  ctx.seeds = seeds;
  ctx.shape = *shape;
  ctx.aggregate_s = traced.call_s.values;
  ctx.exact_gap = max_gap;
  ctx.untraced_op_s = loop.call_s.values.Median();
  ctx.traced_op_s = traced.call_s.values.Median();
  AddLayerMetrics(&ctx, report);
  return dgt::Status::OK();
}

}  // namespace perfbench
