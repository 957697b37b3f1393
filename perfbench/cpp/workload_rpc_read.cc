// rpc_read: one epoch aggregated at N = 1000 and frozen, served by
// RpcServer with 2 workers to 2 closed-loop connections (8 point : 1 batch
// of 16 : 1 top-8). Gossip runs only during set-up.

#include <iostream>
#include <memory>
#include <thread>

#include "reputation/reputation_system.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kNodes = 1000;
constexpr uint32_t kGossipThreads = 4;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kConnections = 2;
constexpr int kSetupReps = 5;

struct ReadPhase {
  ReadStats reads;
  double wall_s = 0.0;
  std::unique_ptr<StealTimeline> steal;
};

ReadPhase RunReads(const Served& served, uint32_t nodes, const Seeds& seeds,
                   double budget_s, bool corrupt, bool traced,
                   uint32_t phase) {
  ReadPhase out;
  std::vector<ReadStats> per_conn(kConnections);
  std::atomic<bool> stop{false};
  Tracer::Get().SetEnabled(traced);
  const auto start = Clock::now();
  out.steal = std::make_unique<StealTimeline>(start);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      RunReadClient(served.server->port(), served.service.get(), nodes,
                    DeriveSeed(seeds.clients, phase * 16 + c), ReadMix{},
                    &stop, corrupt && c == 0, phase * 16 + c, start,
                    &per_conn[c]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(budget_s));
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  out.wall_s = SecondsSince(start);
  out.steal->Stop();
  Tracer::Get().SetEnabled(false);
  for (const ReadStats& s : per_conn) {
    out.reads.latency_us.Append(s.latency_us);
    out.reads.done_s.Append(s.done_s);
    out.reads.replies += s.replies;
    out.reads.failed += s.failed;
  }
  return out;
}

void Account(const ReadStats& reads, Report* report) {
  report->attempted += reads.replies;
  report->failed += reads.failed;
}

}  // namespace

dgt::Status RunRpcRead(const Args& args, Shape* shape, Report* report) {
  const uint32_t nodes = args.nodes != 0 ? args.nodes : kNodes;
  *shape = Shape{nodes, kGossipThreads, kWorkers, kConnections, 0};
  const Seeds seeds(args.seed);

  EndToEnd e2e;
  Inputs in;
  Served served;
  SetupTimer setup;
  Samples epochs;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    served.Reset();
    setup.Begin();
    in = BuildInputs(nodes, seeds);
    double epoch_s = 0.0;
    dgt::Result<Served> s =
        StartServed(in.graph.get(), in.trust, seeds, *shape, false, &epoch_s);
    if (!s.ok()) return s.status();
    served = std::move(s).value();
    setup.End();
    epochs.Add(epoch_s);
    report->Op(true);  // the set-up round
  }
  const std::vector<size_t> kept = setup.Unstolen();
  e2e.setup_s = Select(setup.seconds(), kept);
  e2e.round_s = Select(epochs, kept);

  if (!args.trace) {
    ReadPhase phase = RunReads(served, nodes, seeds, args.seconds,
                               args.corrupt_expected, false, 0);
    e2e.peak_rss_mb = PeakRssMb();
    report->Note("host_steal_frac", JsonNumber(phase.steal->Overall()));
    Account(phase.reads, report);
    AddReadWindows(phase.reads, phase.wall_s, *phase.steal, &e2e, report);
    AddEndToEndMetrics(e2e, report);
    const auto snap = served.service->Snapshot();
    report->Note("gossip_state_peak_bytes_computed",
                 std::to_string(snap->round_stats.peak_state_nonzeros *
                                kGossipBytesPerNonzero));
    served.Reset();
    return dgt::Status::OK();
  }

  ReadPhase untraced = RunReads(served, nodes, seeds, args.seconds / 2,
                                args.corrupt_expected, false, 0);
  ReadPhase traced =
      RunReads(served, nodes, seeds, args.seconds / 2, false, true, 1);
  Account(untraced.reads, report);
  Account(traced.reads, report);

  LayerContext ctx;
  ctx.graph = in.graph.get();
  ctx.trust = &in.trust;
  ctx.seeds = seeds;
  ctx.shape = *shape;
  ctx.served_round_s = epochs;
  // Wall per read reply (inverse throughput) without and with spans.
  ctx.untraced_op_s =
      untraced.wall_s / std::max<uint64_t>(1, untraced.reads.replies);
  ctx.traced_op_s = traced.wall_s / std::max<uint64_t>(1, traced.reads.replies);
  ctx.served = &served;
  AddLayerMetrics(&ctx, report);
  served.Reset();
  return dgt::Status::OK();
}

}  // namespace perfbench
