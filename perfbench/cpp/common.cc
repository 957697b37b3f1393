#include "common.h"

#include <cmath>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "reputation/reference.h"
#include "rpc/client.h"
#include "serve/query.h"
#include "trace.h"
#include "trust/weights.h"

namespace perfbench {

Inputs BuildInputs(uint32_t nodes, const Seeds& seeds) {
  Inputs in;
  {
    ScopedSpan span("graph.generate");
    in.graph = std::make_unique<dgt::Graph>(
        dgt::bench_util::MustMakePaGraph(nodes, kEdgesPerNode, seeds.graph));
  }
  {
    ScopedSpan span("trust.build");
    in.trust = dgt::bench_util::MakeSparseTrust(nodes, kOpinionsPerNode,
                                                seeds.trust);
  }
  return in;
}

dgt::AggregationOptions MakeAggregationOptions(const Seeds& seeds,
                                               uint32_t threads) {
  dgt::AggregationOptions o;
  o.gossip.xi = kXi;
  o.gossip.num_threads = threads;
  o.gossip.seed = seeds.gossip;
  return o;
}

dgt::ReputationSystemOptions MakeSystemOptions(const Seeds& seeds,
                                               uint32_t threads) {
  dgt::ReputationSystemOptions o;
  o.aggregation = MakeAggregationOptions(seeds, threads);
  o.base_seed = seeds.system;
  return o;
}

std::vector<dgt::NodeId> SampleObservers(uint32_t nodes, const Seeds& seeds) {
  dgt::Rng rng(seeds.sample);
  std::vector<dgt::NodeId> out;
  while (out.size() < kSampledObservers && out.size() < nodes) {
    const auto o = static_cast<dgt::NodeId>(rng.NextBelow(nodes));
    bool seen = false;
    for (dgt::NodeId x : out) seen = seen || x == o;
    if (!seen) out.push_back(o);
  }
  return out;
}

std::vector<std::vector<double>> ExactRows(
    const dgt::Graph& graph, const dgt::TrustMatrix& trust,
    const std::vector<dgt::NodeId>& observers) {
  std::vector<std::vector<double>> rows;
  for (dgt::NodeId o : observers) {
    dgt::Result<dgt::WeightTable> table =
        dgt::WeightTable::Build(trust, o, dgt::WeightParams{});
    rows.push_back(table.ok() ? dgt::ExactGclrVector(
                                    trust, graph, table.value(),
                                    dgt::DenominatorMode::kOpinators)
                              : std::vector<double>());
  }
  return rows;
}

double MaxGap(const std::vector<std::vector<double>>& estimates,
              const std::vector<dgt::NodeId>& observers,
              const std::vector<std::vector<double>>& exact_rows) {
  double gap = 0.0;
  for (size_t k = 0; k < observers.size(); ++k) {
    const std::vector<double>& est = estimates[observers[k]];
    if (exact_rows[k].size() != est.size()) return INFINITY;
    for (size_t j = 0; j < est.size(); ++j) {
      gap = std::max(gap, std::fabs(est[j] - exact_rows[k][j]));
    }
  }
  return gap;
}

void Served::Reset() {
  server.reset();
  service.reset();
  registry.reset();
}

dgt::Result<Served> StartServed(const dgt::Graph* graph,
                                const dgt::TrustMatrix& trust,
                                const Seeds& seeds, const Shape& shape,
                                bool paced, double* epoch_s) {
  Served s;
  s.registry = std::make_unique<dgt::obs::MetricsRegistry>();
  dgt::ReputationServiceOptions opts;
  opts.system = MakeSystemOptions(seeds, shape.gossip_threads);
  opts.paced = paced;
  opts.num_rounds = paced ? 0 : 1;
  opts.metrics = s.registry.get();
  s.service = std::make_unique<dgt::ReputationService>(graph, trust, opts);
  if (paced) s.writer_id = s.service->RegisterReader();
  {
    ScopedSpan span("serve.first_epoch");
    const auto t0 = Clock::now();
    DGT_RETURN_IF_ERROR(s.service->Start());
    if (paced) {
      if (s.service->AwaitEpochAfter(0) != 1) {
        return dgt::Status::Internal("service did not publish epoch 1");
      }
    } else {
      s.service->AwaitCompletion();
    }
    *epoch_s = SecondsSince(t0);
  }
  DGT_RETURN_IF_ERROR(s.service->driver_status());
  if (s.service->epoch() != 1) {
    return dgt::Status::Internal("first epoch missing");
  }
  dgt::rpc::RpcServerOptions server_opts;
  server_opts.worker_threads = shape.server_workers;
  server_opts.metrics = s.registry.get();
  s.server = std::make_unique<dgt::rpc::RpcServer>(s.service.get(),
                                                   server_opts);
  {
    ScopedSpan span("rpc.RpcServer::Start");
    DGT_RETURN_IF_ERROR(s.server->Start());
  }
  return s;
}

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Runs one client call inside a span and returns its reply; *us gets the
// round trip.
template <typename Call>
auto Timed(const char* span_name, uint64_t op, double* us, Call&& call) {
  ScopedSpan span(span_name, op);
  const auto t0 = Clock::now();
  auto reply = call();
  *us = 1e6 * SecondsSince(t0);
  return reply;
}

}  // namespace

void RunReadClient(uint16_t port, const dgt::ReputationService* service,
                   uint32_t nodes, uint64_t seed, ReadMix mix,
                   const std::atomic<bool>* stop, bool corrupt_first,
                   uint32_t conn_index, Clock::time_point phase_start,
                   ReadStats* out) {
  dgt::Result<dgt::rpc::RpcClient> client =
      dgt::rpc::RpcClient::Connect(port, 5000);
  if (!client.ok()) {
    std::cerr << "read connection failed: " << client.status().ToString()
              << "\n";
    ++out->failed;
    return;
  }
  dgt::rpc::RpcClient rpc = std::move(client).value();
  dgt::Rng rng(seed);
  out->latency_us.Reserve(kMaxReadSamples);
  out->done_s.Reserve(kMaxReadSamples);
  std::shared_ptr<const dgt::ReputationSnapshot> pinned = service->Snapshot();
  // Returns the in-process snapshot of `epoch` (the served state only
  // moves forward, so re-pinning once suffices), or null.
  auto snapshot_for = [&](uint64_t epoch) -> const dgt::ReputationSnapshot* {
    if (pinned == nullptr || pinned->epoch != epoch) {
      pinned = service->Snapshot();
    }
    return pinned != nullptr && pinned->epoch == epoch ? pinned.get()
                                                       : nullptr;
  };
  bool corrupt = corrupt_first;
  uint64_t op_id = (static_cast<uint64_t>(conn_index) + 1) << 40;
  std::vector<dgt::NodeId> targets(kBatchTargets);

  while (!stop->load(std::memory_order_acquire)) {
    for (uint32_t kind = 0; kind < 3; ++kind) {
      const uint32_t reps = kind == 0 ? mix.point : kind == 1 ? mix.batch
                                                               : mix.topk;
      for (uint32_t r = 0; r < reps; ++r) {
        const auto observer = static_cast<dgt::NodeId>(rng.NextBelow(nodes));
        bool ok = false;
        double us = 0.0;
        if (kind == 0) {
          const auto target = static_cast<dgt::NodeId>(rng.NextBelow(nodes));
          auto reply = Timed("rpc.RpcClient::QueryPoint", ++op_id, &us,
                             [&] { return rpc.QueryPoint(observer, target); });
          const auto* snap =
              reply.ok() ? snapshot_for(reply.value().epoch) : nullptr;
          if (snap != nullptr) {
            auto want = dgt::PointQuery(*snap, observer, target);
            if (want.ok() && corrupt) {
              want.value().score += 1.0;
              corrupt = false;
            }
            ok = want.ok() && SameBits(want.value().score, reply.value().score);
          }
        } else if (kind == 1) {
          for (auto& t : targets) {
            t = static_cast<dgt::NodeId>(rng.NextBelow(nodes));
          }
          auto reply = Timed("rpc.RpcClient::QueryBatch", ++op_id, &us,
                             [&] { return rpc.QueryBatch(observer, targets); });
          const auto* snap =
              reply.ok() ? snapshot_for(reply.value().epoch) : nullptr;
          if (snap != nullptr) {
            auto want = dgt::BatchQuery(*snap, observer, targets);
            ok = want.ok() &&
                 SameBits(want.value().scores, reply.value().scores);
          }
        } else {
          auto reply = Timed("rpc.RpcClient::QueryTopK", ++op_id, &us,
                             [&] { return rpc.QueryTopK(observer, kTopK); });
          const auto* snap =
              reply.ok() ? snapshot_for(reply.value().epoch) : nullptr;
          if (snap != nullptr) {
            auto want = dgt::TopKQuery(*snap, observer, kTopK);
            ok = want.ok() && want.value().ids == reply.value().ids &&
                 SameBits(want.value().scores, reply.value().scores);
          }
        }
        out->latency_us.Add(us);
        out->done_s.Add(SecondsSince(phase_start));
        ++out->replies;
        if (!ok) ++out->failed;
      }
    }
  }
}

}  // namespace perfbench
