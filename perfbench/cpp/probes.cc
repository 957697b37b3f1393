// Per-layer breakdown of the traced run. Each probe calls one layer's
// public functions directly, inside a span, with the workload's own
// inputs and thread counts; the comment on each metric names the
// end-to-end metric it explains.

#include <chrono>
#include <iostream>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/sparse_vector_engine.h"
#include "reputation/aggregation.h"
#include "reputation/reputation_system.h"
#include "rpc/client.h"
#include "rpc/wire.h"
#include "serve/query.h"
#include "trace.h"
#include "trust/weights.h"

namespace perfbench {

namespace {

// Median over 5 repetitions of the mean ns per call of `iters` calls.
template <typename Fn>
double NsPerCall(int iters, Fn&& fn) {
  Samples reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    reps.Add(1e9 * SecondsSince(t0) / iters);
  }
  return reps.Median();
}

// Keeps benchmarked results observable so the calls are not elided.
volatile uint64_t g_sink = 0;

template <typename Message>
void AddCodecMetrics(const char* type, const Message& m, Report* report) {
  std::vector<uint8_t> frame = dgt::rpc::Encode(7, m);
  const double encode_ns = NsPerCall(20000, [&](int i) {
    g_sink = g_sink + dgt::rpc::Encode(static_cast<uint64_t>(i), m).size();
  });
  dgt::rpc::DecodedMessage decoded;
  std::string error;
  const double decode_ns = NsPerCall(20000, [&](int) {
    g_sink = g_sink + static_cast<uint64_t>(dgt::rpc::DecodeFrame(
                          frame.data(), frame.size(), &decoded, &error));
  });
  report->Add(std::string("rpc.encode_ns.") + type, encode_ns, "ns");
  report->Add(std::string("rpc.decode_ns.") + type, decode_ns, "ns");
}

bool SameCounts(const dgt::SparseVectorGossipResult& a,
                const dgt::SparseVectorGossipResult& b) {
  return a.steps == b.steps && a.gossip_messages == b.gossip_messages &&
         a.peak_state_nonzeros == b.peak_state_nonzeros;
}

}  // namespace

void AddLayerMetrics(LayerContext* ctx, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(true);
  const uint32_t n = ctx->graph->num_nodes();
  const uint32_t threads = ctx->shape.gossip_threads;
  const dgt::AggregationOptions opts =
      MakeAggregationOptions(ctx->seeds, threads);

  // Probes report medians over repetitions: 5 up to N = 1000, 2 above,
  // where the gossip run alone takes seconds.
  const int reps = n <= 1000 ? 5 : 2;

  // trust: every owner's weight table (rebuilt inside each aggregation
  // and round) -> round_s_p50.
  Samples weight_tables_s;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("trust.WeightTable::Build");
    const auto t0 = Clock::now();
    for (dgt::NodeId o = 0; o < n; ++o) {
      report->Op(dgt::WeightTable::Build(*ctx->trust, o, opts.weights).ok());
    }
    weight_tables_s.Add(SecondsSince(t0));
  }

  // reputation: the sparse engine's initial state -> round_s_p50.
  std::vector<dgt::SparseVectorRow> init;
  Samples gclr_init_s;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("reputation.BuildGclrSparseInit");
    const auto t0 = Clock::now();
    init = dgt::BuildGclrSparseInit(*ctx->trust);
    gclr_init_s.Add(SecondsSince(t0));
  }

  // gossip: the engine on that state with the aggregation's options, at
  // the workload's thread count and on one thread -> round_s_p50.
  auto run_gossip = [&](uint32_t t, const char* name, Samples* seconds) {
    dgt::GossipOptions g = opts.gossip;
    g.num_threads = t;
    dgt::SparseVectorPushSum engine(ctx->graph, g);
    std::vector<dgt::SparseVectorRow> state = init;
    ScopedSpan span(name);
    const auto t0 = Clock::now();
    dgt::Result<dgt::SparseVectorGossipResult> r =
        engine.Run(std::move(state), true);
    seconds->Add(SecondsSince(t0));
    report->Op(r.ok());
    return r.ok() ? std::move(r).value() : dgt::SparseVectorGossipResult{};
  };
  Samples run_s, run_s_t1;
  dgt::SparseVectorGossipResult run;
  for (int r = 0; r < reps; ++r) {
    run = run_gossip(threads, "gossip.SparseVectorPushSum::Run", &run_s);
  }
  const dgt::SparseVectorGossipResult run_t1 =
      run_gossip(1, "gossip.SparseVectorPushSum::Run@1thread", &run_s_t1);
  report->Op(SameCounts(run, run_t1));  // thread-count invariance
  init.clear();

  // reputation: the full variant-4 call; post_s is what remains after its
  // weight tables, initial state and gossip (replayed above with identical
  // inputs — the library exposes no hooks inside the call) -> round_s_p50.
  if (ctx->aggregate_s.empty()) {
    const std::vector<dgt::NodeId> observers = SampleObservers(n, ctx->seeds);
    const auto exact = ExactRows(*ctx->graph, *ctx->trust, observers);
    ctx->exact_gap = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      dgt::Result<dgt::VectorAggregationResult> agg = [&] {
        ScopedSpan span("reputation.AggregateGclrVector");
        return dgt::AggregateGclrVector(*ctx->graph, *ctx->trust, opts);
      }();
      ctx->aggregate_s.Add(SecondsSince(t0));
      const double gap =
          agg.ok() ? MaxGap(agg.value().estimates, observers, exact) : INFINITY;
      ctx->exact_gap = std::max(ctx->exact_gap, gap);
      report->Op(agg.ok() && gap <= kXi);
    }
  }
  const double post_s = ctx->aggregate_s.Median() - weight_tables_s.Median() -
                        gclr_init_s.Median() - run_s.Median();

  // reputation: one RunRound of the batch system (fold-free) when the
  // workload has no replay of its own -> round_s_p50.
  if (ctx->replay_round_s.empty()) {
    dgt::TrustMatrix trust = *ctx->trust;
    dgt::ReputationSystem system(ctx->graph, &trust,
                                 MakeSystemOptions(ctx->seeds, threads));
    ScopedSpan span("reputation.ReputationSystem::RunRound");
    const auto t0 = Clock::now();
    report->Op(system.RunRound().ok());
    ctx->replay_round_s.Add(SecondsSince(t0));
  }

  // common: an empty ParallelFor over N items (the shape of the engine's
  // per-step calls) at the workload's thread count -> round_s_p50.
  Samples pool_us;
  {
    dgt::ThreadPool pool(threads);
    const std::function<void(size_t, size_t, size_t)> noop =
        [](size_t, size_t, size_t) {};
    ScopedSpan span("common.ThreadPool::ParallelFor");
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      pool.ParallelFor(n, noop);
      pool_us.Add(1e6 * SecondsSince(t0));
    }
  }

  // serve + rpc need a served snapshot: the workload's own service, or a
  // one-round service over the same inputs.
  Served own;
  if (ctx->served == nullptr) {
    Shape shape = ctx->shape;
    shape.server_workers = 2;
    double epoch_s = 0.0;
    dgt::Result<Served> s = StartServed(ctx->graph, *ctx->trust, ctx->seeds,
                                        shape, false, &epoch_s);
    report->Op(s.ok());
    if (!s.ok()) {
      std::cerr << "probe service failed: " << s.status().ToString() << "\n";
      return;
    }
    own = std::move(s).value();
    ctx->served = &own;
    ctx->served_round_s.Add(epoch_s);
    // Read traffic so the server's per-op service histograms fill.
    std::atomic<bool> stop{false};
    ReadStats reads;
    const auto start = Clock::now();
    std::thread client([&] {
      RunReadClient(own.server->port(), own.service.get(), n,
                    DeriveSeed(ctx->seeds.clients, 99), ReadMix{}, &stop,
                    false, 99, start, &reads);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    client.join();
    report->attempted += reads.replies;
    report->failed += reads.failed;
  }
  dgt::ReputationService& service = *ctx->served->service;
  const uint16_t port = ctx->served->server->port();

  // serve: in-process query evaluation on a pinned snapshot and the pin
  // itself -> op_us_p50 of the read workloads.
  const std::shared_ptr<const dgt::ReputationSnapshot> snap =
      service.Snapshot();
  dgt::Rng rng(DeriveSeed(ctx->seeds.clients, 7));
  std::vector<dgt::NodeId> ids(4096);
  for (auto& id : ids) id = static_cast<dgt::NodeId>(rng.NextBelow(n));
  std::vector<dgt::NodeId> targets(ids.begin(), ids.begin() + kBatchTargets);
  const double point_ns = NsPerCall(100000, [&](int i) {
    auto r = dgt::PointQuery(*snap, ids[i & 4095], ids[(i + 1) & 4095]);
    g_sink = g_sink + r.ok();
  });
  const double batch_ns = NsPerCall(20000, [&](int i) {
    auto r = dgt::BatchQuery(*snap, ids[i & 4095], targets);
    g_sink = g_sink + r.ok();
  });
  const double topk_ns = NsPerCall(2000, [&](int i) {
    auto r = dgt::TopKQuery(*snap, ids[i & 4095], kTopK);
    g_sink = g_sink + r.ok();
  });
  const double acquire_ns = NsPerCall(100000, [&](int) {
    g_sink = g_sink + service.Snapshot()->epoch;
  });

  // rpc: Ping round trips (transport plus the server pipeline, no query
  // evaluation), update round trips, and the fd count across 4 probe
  // connections that open and close -> op_us_p50 / op_us_p90.
  Samples ping_us;
  const int fds_before = CountOpenFds();
  {
    std::vector<dgt::rpc::RpcClient> clients;
    for (int c = 0; c < 4; ++c) {
      dgt::Result<dgt::rpc::RpcClient> cl =
          dgt::rpc::RpcClient::Connect(port, 5000);
      report->Op(cl.ok());
      if (cl.ok()) clients.push_back(std::move(cl).value());
    }
    if (!clients.empty()) {
      dgt::rpc::RpcClient& rpc = clients.front();
      ScopedSpan span("rpc.RpcClient::Ping");
      for (int i = 0; i < 2000; ++i) {
        const auto t0 = Clock::now();
        const bool ok = rpc.Ping().ok();
        ping_us.Add(1e6 * SecondsSince(t0));
        report->Op(ok);
      }
      if (ctx->update_us.empty()) {
        // The round budget is spent (or the writer holds the ack), so
        // these are validated and queued but never folded.
        ScopedSpan upd("rpc.RpcClient::SubmitTrustUpdate");
        for (int i = 0; i < 200; ++i) {
          const auto o = static_cast<dgt::NodeId>(rng.NextBelow(n));
          const auto t =
              static_cast<dgt::NodeId>((o + 1 + rng.NextBelow(n - 1)) % n);
          const auto t0 = Clock::now();
          const bool ok = rpc.SubmitTrustUpdate(o, t, rng.NextDouble()).ok();
          ctx->update_us.Add(1e6 * SecondsSince(t0));
          report->Op(ok);
        }
      }
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int fds_leaked = CountOpenFds() - fds_before;

  // rpc + serve: the server's own histograms and counters, read through
  // the stats RPC.
  dgt::obs::MetricsSnapshot stats;
  {
    dgt::Result<dgt::rpc::RpcClient> cl =
        dgt::rpc::RpcClient::Connect(port, 5000);
    dgt::Result<dgt::rpc::StatsResponse> r =
        cl.ok() ? cl.value().FetchStats()
                : dgt::Result<dgt::rpc::StatsResponse>(cl.status());
    report->Op(r.ok());
    if (r.ok()) stats = dgt::rpc::MetricsFromStats(r.value());
  }
  auto hist = [&](const std::string& name) {
    auto it = stats.histograms.find(name);
    return it == stats.histograms.end() ? dgt::obs::HistogramSnapshot{}
                                        : it->second;
  };
  auto counter = [&](const std::string& name) {
    auto it = stats.counters.find(name);
    return it == stats.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge = [&](const std::string& name) {
    auto it = stats.gauges.find(name);
    return it == stats.gauges.end() ? 0.0 : static_cast<double>(it->second);
  };

  const double round_s = ctx->replay_round_s.Median();
  const double nn = static_cast<double>(n);
  const auto peak_nnz = static_cast<double>(run.peak_state_nonzeros);
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->Add(name, value, unit);
  };

  add("graph.generate_s", tracer.Durations("graph.generate").Median(), "s");
  add("trust.build_s", tracer.Durations("trust.build").Median(), "s");
  add("trust.weight_tables_s", weight_tables_s.Median(), "s");
  add("reputation.gclr_init_s", gclr_init_s.Median(), "s");
  add("reputation.post_s", post_s, "s");
  add("reputation.round_s", round_s, "s");
  add("reputation.exact_gap_max", ctx->exact_gap, "score");
  add("gossip.run_s", run_s.Median(), "s");
  add("gossip.step_ms",
      run.steps == 0 ? 0.0 : 1e3 * run_s.Median() / run.steps, "ms");
  add("gossip.steps", run.steps, "count");
  add("gossip.messages", static_cast<double>(run.gossip_messages), "count");
  add("gossip.peak_nnz", peak_nnz, "count");
  add("gossip.fill", peak_nnz / (nn * nn), "ratio");
  add("gossip.run_s_t1", run_s_t1.Median(), "s");
  add("gossip.speedup", run_s_t1.Median() / run_s.Median(), "ratio");
  add("pool.parallel_for_us", pool_us.Median(), "us");
  add("serve.query_point_ns", point_ns, "ns");
  add("serve.query_batch_ns", batch_ns, "ns");
  add("serve.query_topk_ns", topk_ns, "ns");
  add("serve.snapshot_acquire_ns", acquire_ns, "ns");
  add("serve.overhead_s", ctx->served_round_s.Median() - round_s, "s");
  add("serve.fold_us_p50", HistogramQuantile(hist("serve_fold_us"), 50), "us");
  add("serve.updates_folded", counter("serve_updates_folded"), "count");
  add("serve.epochs_published", counter("serve_epochs_published"), "count");
  add("rpc.ping_us_p50", ping_us.Median(), "us");
  add("rpc.update_us_p50", ctx->update_us.Median(), "us");
  add("rpc.update_us_p99", ctx->update_us.Percentile(99), "us");
  for (const std::string stem :
       {"point_query", "batch_query", "topk_query", "trust_update", "ping"}) {
    const auto h = hist("rpc_service_" + stem + "_us");
    add("rpc.service_us_p50." + stem, HistogramQuantile(h, 50), "us");
    add("rpc.service_us_p99." + stem, HistogramQuantile(h, 99), "us");
  }
  add("rpc.batch_size_mean", hist("rpc_batch_size").Mean(), "count");
  add("rpc.queue_peak_depth", gauge("rpc_queue_peak_depth"), "count");
  add("rpc.fds_leaked", fds_leaked, "count");

  // rpc: wire codec cost per request and reply type -> op_us_p50.
  using namespace dgt::rpc;
  const dgt::NodeId o = ids[0];
  const std::vector<dgt::NodeId> top_ids(ids.begin(), ids.begin() + kTopK);
  AddCodecMetrics("point_query", PointQueryRequest{o, ids[1]}, report);
  AddCodecMetrics("batch_query", BatchQueryRequest{o, targets}, report);
  AddCodecMetrics("topk_query", TopKQueryRequest{o, kTopK}, report);
  AddCodecMetrics("trust_update", TrustUpdateRequest{o, ids[1], 0.25, false},
                  report);
  AddCodecMetrics("ping", PingRequest{}, report);
  AddCodecMetrics("point_reply", PointQueryReply{1, 0.5}, report);
  AddCodecMetrics("batch_reply",
                  BatchQueryReply{1, std::vector<double>(kBatchTargets, 0.5)},
                  report);
  AddCodecMetrics("topk_reply",
                  TopKQueryReply{1, top_ids, std::vector<double>(kTopK, 0.5)},
                  report);
  AddCodecMetrics("update_reply", TrustUpdateReply{}, report);
  AddCodecMetrics("ping_reply", PingReply{1}, report);

  const double overhead =
      ctx->untraced_op_s > 0 ? ctx->traced_op_s / ctx->untraced_op_s - 1.0
                             : 0.0;
  add("trace_overhead_frac", overhead, "ratio");
  add("ops_failed_frac",
      report->attempted == 0
          ? 1.0
          : static_cast<double>(report->failed) / report->attempted,
      "ratio");
  own.Reset();
  tracer.SetEnabled(false);
}

}  // namespace perfbench
