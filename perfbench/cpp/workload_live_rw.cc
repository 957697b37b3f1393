// live_rw: a paced ReputationService at N = 500 with 2 gossip threads
// behind an RpcServer with 1 worker. Each epoch a writer connection sends
// 200 distinct-key trust updates and acks the epoch; one reader
// connection issues point and top-k reads throughout.

#include <cstring>
#include <iostream>
#include <thread>

#include "reputation/reputation_system.h"
#include "rpc/client.h"
#include "serve/workload.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kNodes = 500;
constexpr uint32_t kGossipThreads = 2;
constexpr uint32_t kWorkers = 1;
constexpr uint32_t kUpdatesPerEpoch = 200;
constexpr int kSetupReps = 5;
const ReadMix kReaderMix{8, 0, 1};

std::vector<dgt::TrustUpdate> EpochUpdates(uint32_t nodes, const Seeds& seeds,
                                           uint64_t epoch) {
  return dgt::MakeDistinctTrustUpdates(nodes, seeds.updates + epoch,
                                       kUpdatesPerEpoch);
}

// The writer's side of the paced schedule: at every epoch it has seen,
// send that epoch's updates over RPC, ack, and time until the next epoch
// is published.
struct Writer {
  Served* served;
  dgt::rpc::RpcClient* rpc;
  const Seeds* seeds;
  uint32_t nodes;
  Clock::time_point phase_start;
  uint64_t epoch = 1;  // epoch 1 belongs to set-up
  Intervals round_s;   // AckEpoch -> next epoch, in seconds since phase_start
  Samples update_us;

  void Run(double budget_s, Report* report) {
    const auto start = Clock::now();
    while (SecondsSince(start) < budget_s) {
      for (const dgt::TrustUpdate& u : EpochUpdates(nodes, *seeds, epoch)) {
        ScopedSpan span("rpc.RpcClient::SubmitTrustUpdate", epoch);
        const auto t0 = Clock::now();
        const dgt::Status st =
            rpc->SubmitTrustUpdate(u.observer, u.target, u.value);
        update_us.Add(1e6 * SecondsSince(t0));
        report->Op(st.ok());
      }
      ScopedSpan span("serve.round", epoch + 1);
      const double t0 = SecondsSince(phase_start);
      served->service->AckEpoch(served->writer_id, epoch);
      const uint64_t next = served->service->AwaitEpochAfter(epoch);
      const double t1 = SecondsSince(phase_start);
      round_s.Add(t1 - t0, t0, t1);
      report->Op(next == epoch + 1);
      if (next != epoch + 1) break;
      epoch = next;
    }
  }
};

// Replays the schedule on a batch ReputationSystem and compares every
// served row (fetched over RPC) bit-for-bit; one op per row.
void CheckFinalState(const Inputs& in, const Seeds& seeds, uint64_t epochs,
                     Served* served, dgt::rpc::RpcClient* rpc, bool corrupt,
                     Samples* replay_round_s, Report* report) {
  const uint32_t nodes = in.graph->num_nodes();
  dgt::TrustMatrix trust = in.trust;
  dgt::ReputationSystem system(in.graph.get(), &trust,
                               MakeSystemOptions(seeds, kGossipThreads));
  for (uint64_t e = 1; e <= epochs; ++e) {
    if (e > 1) {
      for (const dgt::TrustUpdate& u : EpochUpdates(nodes, seeds, e - 1)) {
        (void)trust.Set(u.observer, u.target, u.value);
      }
    }
    ScopedSpan span("reputation.ReputationSystem::RunRound", e);
    const auto t0 = Clock::now();
    const dgt::Status st = system.RunRound();
    replay_round_s->Add(SecondsSince(t0));
    if (!st.ok()) {
      std::cerr << "replay round failed: " << st.ToString() << "\n";
      report->Op(false);
      return;
    }
  }
  std::vector<dgt::NodeId> all(nodes);
  for (uint32_t j = 0; j < nodes; ++j) all[j] = j;
  for (uint32_t o = 0; o < nodes; ++o) {
    dgt::Result<dgt::rpc::BatchQueryReply> row = rpc->QueryBatch(o, all);
    std::vector<double> want = system.reputations()[o];
    if (corrupt && o == 0) want[1] += 1.0;
    report->Op(row.ok() && row.value().epoch == epochs &&
               row.value().scores.size() == want.size() &&
               std::memcmp(row.value().scores.data(), want.data(),
                           want.size() * sizeof(double)) == 0);
  }
  // Every submitted update folded, every epoch published, none rejected.
  const dgt::obs::MetricsSnapshot m = served->registry->Snapshot();
  auto counter = [&](const char* name) {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? uint64_t{0} : it->second;
  };
  const uint64_t submitted = (epochs - 1) * kUpdatesPerEpoch;
  report->Op(served->service->updates_folded() == submitted &&
             counter("serve_updates_folded") == submitted &&
             counter("serve_epochs_published") == epochs &&
             served->service->updates_rejected() == 0);
}

}  // namespace

dgt::Status RunLiveRw(const Args& args, Shape* shape, Report* report) {
  const uint32_t nodes = args.nodes != 0 ? args.nodes : kNodes;
  *shape = Shape{nodes, kGossipThreads, kWorkers, 1, 1};
  const Seeds seeds(args.seed);

  EndToEnd e2e;
  Inputs in;
  Served served;
  SetupTimer setup;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    served.Reset();
    setup.Begin();
    in = BuildInputs(nodes, seeds);
    double epoch_s = 0.0;
    dgt::Result<Served> s =
        StartServed(in.graph.get(), in.trust, seeds, *shape, true, &epoch_s);
    if (!s.ok()) return s.status();
    served = std::move(s).value();
    setup.End();
  }
  e2e.setup_s = Select(setup.seconds(), setup.Unstolen());

  dgt::Result<dgt::rpc::RpcClient> client =
      dgt::rpc::RpcClient::Connect(served.server->port(), 5000);
  if (!client.ok()) return client.status();
  dgt::rpc::RpcClient rpc = std::move(client).value();

  std::atomic<bool> stop{false};
  ReadStats reads;
  const auto start = Clock::now();
  Writer writer{&served, &rpc, &seeds, nodes, start, 1, {}, {}};
  StealTimeline timeline(start);
  std::thread reader([&] {
    RunReadClient(served.server->port(), served.service.get(), nodes,
                  seeds.clients, kReaderMix, &stop, args.corrupt_expected, 0,
                  start, &reads);
  });
  // Traced runs measure half the budget without spans, then half with.
  double untraced_wall = 0.0, traced_wall = 0.0;
  size_t untraced_rounds = 0;
  if (!args.trace) {
    writer.Run(args.seconds, report);
  } else {
    Tracer::Get().SetEnabled(false);
    writer.Run(args.seconds / 2, report);
    untraced_wall = SecondsSince(start);
    untraced_rounds = writer.round_s.values.count();
    Tracer::Get().SetEnabled(true);
    writer.Run(args.seconds / 2, report);
    traced_wall = SecondsSince(start) - untraced_wall;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const double wall = SecondsSince(start);
  timeline.Stop();
  report->attempted += reads.replies;
  report->failed += reads.failed;
  e2e.peak_rss_mb = PeakRssMb();
  report->Note("host_steal_frac", JsonNumber(timeline.Overall()));

  Samples replay_round_s;
  CheckFinalState(in, seeds, writer.epoch, &served, &rpc,
                  args.corrupt_expected, &replay_round_s, report);
  report->NoteCount("updates_submitted",
                    (writer.epoch - 1) * kUpdatesPerEpoch);
  report->NoteCount("epochs_published", writer.epoch);
  report->NoteCount("samples.update_us", writer.update_us.count());
  report->Note("update_us_p50", JsonNumber(writer.update_us.Median()));
  report->Note("update_us_p99", JsonNumber(writer.update_us.Percentile(99)));

  if (!args.trace) {
    const size_t half = writer.round_s.at.size() / 2;
    const std::vector<size_t> rounds =
        UnstolenIntervals(writer.round_s, timeline, half);
    e2e.round_s = Select(writer.round_s.values, rounds);
    AddReadWindows(reads, wall, timeline, &e2e, report);
    AddEndToEndMetrics(e2e, report);
    const auto snap = served.service->Snapshot();
    report->Note("gossip_state_peak_bytes_computed",
                 std::to_string(snap->round_stats.peak_state_nonzeros *
                                kGossipBytesPerNonzero));
    served.Reset();
    return dgt::Status::OK();
  }

  LayerContext ctx;
  ctx.graph = in.graph.get();
  ctx.trust = &in.trust;
  ctx.seeds = seeds;
  ctx.shape = *shape;
  ctx.served_round_s = writer.round_s.values;
  ctx.replay_round_s = replay_round_s;
  ctx.update_us = writer.update_us;
  // Wall per completed round, the live workload's unit of progress.
  const size_t traced_rounds = writer.round_s.values.count() - untraced_rounds;
  ctx.untraced_op_s = untraced_wall / std::max<size_t>(1, untraced_rounds);
  ctx.traced_op_s = traced_wall / std::max<size_t>(1, traced_rounds);
  ctx.served = &served;
  AddLayerMetrics(&ctx, report);
  served.Reset();
  return dgt::Status::OK();
}

}  // namespace perfbench
