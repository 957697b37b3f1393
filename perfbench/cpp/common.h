// Declarations shared by the three workloads: arguments, seeds, input
// construction, the closed-loop RPC read client and the layer probes of
// the traced run.

#ifndef DGT_PERFBENCH_COMMON_H_
#define DGT_PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "reputation/aggregation.h"
#include "rpc/server.h"
#include "serve/service.h"
#include "trust/trust_matrix.h"
#include "util.h"

namespace perfbench {

// Fixed workload parameters shared by every workload.
inline constexpr uint32_t kEdgesPerNode = 2;      // PA attachment degree m
inline constexpr uint32_t kOpinionsPerNode = 20;  // sparse trust row size
inline constexpr double kXi = 1e-3;
inline constexpr uint32_t kSampledObservers = 16;
inline constexpr uint32_t kBatchTargets = 16;
inline constexpr uint32_t kTopK = 8;
// Bytes one live nonzero of the sparse gossip state occupies: a u32
// column plus the y, g and count doubles (used for the computed, not
// measured, peak gossip-state size in the run stamp).
inline constexpr uint64_t kGossipBytesPerNonzero = 4 + 3 * 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test hook: perturb one expected answer so the run must report a
  // failed operation.
  bool corrupt_expected = false;
  // Self-test hook: overrides the workload's node count when nonzero.
  uint32_t nodes = 0;
  std::string out_dir = ".";
  std::string source_rev = "unknown";
};

// Every random input of a run, derived from --seed.
struct Seeds {
  explicit Seeds(uint64_t seed)
      : graph(DeriveSeed(seed, 1)),
        trust(DeriveSeed(seed, 2)),
        gossip(DeriveSeed(seed, 3)),
        system(DeriveSeed(seed, 4)),
        updates(DeriveSeed(seed, 5)),
        clients(DeriveSeed(seed, 6)),
        sample(DeriveSeed(seed, 7)) {}
  uint64_t graph, trust, gossip, system, updates, clients, sample;
};

// Thread and connection counts of a workload (printed in the run stamp).
struct Shape {
  uint32_t nodes = 0;
  uint32_t gossip_threads = 0;
  uint32_t server_workers = 0;
  uint32_t read_connections = 0;
  uint32_t write_connections = 0;
};

struct Inputs {
  std::unique_ptr<dgt::Graph> graph;  // heap: services borrow its address
  dgt::TrustMatrix trust{0};
};

// PA graph (m = 2) and sparse trust (20 opinions per node) from the
// repository's bench_util generators; spans graph.generate / trust.build.
Inputs BuildInputs(uint32_t nodes, const Seeds& seeds);

dgt::AggregationOptions MakeAggregationOptions(const Seeds& seeds,
                                               uint32_t threads);
dgt::ReputationSystemOptions MakeSystemOptions(const Seeds& seeds,
                                               uint32_t threads);

// The 16 sampled observers of the accuracy checks.
std::vector<dgt::NodeId> SampleObservers(uint32_t nodes, const Seeds& seeds);

// ExactGclrVector of each observer (the GCLR limit the gossip estimates
// converge to), and the largest |estimate - exact| over those rows.
std::vector<std::vector<double>> ExactRows(
    const dgt::Graph& graph, const dgt::TrustMatrix& trust,
    const std::vector<dgt::NodeId>& observers);
double MaxGap(const std::vector<std::vector<double>>& estimates,
              const std::vector<dgt::NodeId>& observers,
              const std::vector<std::vector<double>>& exact_rows);

// One service plus the RPC server in front of it, each instrumented into
// its own registry so a run's figures start from zero.
struct Served {
  std::unique_ptr<dgt::obs::MetricsRegistry> registry;
  std::unique_ptr<dgt::ReputationService> service;
  std::unique_ptr<dgt::rpc::RpcServer> server;
  uint32_t writer_id = 0;
  // Stops and destroys the server, then the service, then the registry
  // they instrument into. Call before assigning over a live Served: the
  // default member-wise move would free the registry first.
  void Reset();
};

// Starts a service over (graph, trust) with shape.gossip_threads workers
// and waits for its first epoch, then binds an RPC server with
// shape.server_workers workers. A paced service (live_rw) stays gated at
// epoch 1 until the registered writer acks it; an unpaced one runs that
// single round and freezes (rpc_read). *epoch_s gets Start() -> first
// epoch published, the round as seen from outside.
dgt::Result<Served> StartServed(const dgt::Graph* graph,
                                const dgt::TrustMatrix& trust,
                                const Seeds& seeds, const Shape& shape,
                                bool paced, double* epoch_s);

// --- closed-loop RPC reads ---------------------------------------------

struct ReadMix {
  uint32_t point = 8;
  uint32_t batch = 1;
  uint32_t topk = 1;
};

// Per-connection latency sample capacity reserved up front: far above
// what one connection completes in a 60 s phase at the measured rates.
inline constexpr size_t kMaxReadSamples = size_t{1} << 22;

struct ReadStats {
  Samples latency_us;
  // Completion time of each read, in seconds since the phase start, in
  // the same order as latency_us (for the per-window statistics).
  Samples done_s;
  uint64_t replies = 0;
  uint64_t failed = 0;
};

// One connection issuing `mix` blocks until *stop is set. Every reply is
// checked bit-for-bit against the in-process serve/query.h answer on the
// snapshot of the reply's epoch (outside the latency timer). Completion
// times are taken relative to `phase_start`.
void RunReadClient(uint16_t port, const dgt::ReputationService* service,
                   uint32_t nodes, uint64_t seed, ReadMix mix,
                   const std::atomic<bool>* stop, bool corrupt_first,
                   uint32_t conn_index, Clock::time_point phase_start,
                   ReadStats* out);

// --- traced-run layer probes -------------------------------------------

// What the workload itself measured for the per-layer breakdown; the
// probes fill in the rest.
struct LayerContext {
  const dgt::Graph* graph = nullptr;
  const dgt::TrustMatrix* trust = nullptr;  // the set-up trust state
  Seeds seeds{0};
  Shape shape;
  // Traced AggregateGclrVector calls the workload made itself (aggregate
  // workload); empty means the probes make one.
  Samples aggregate_s;
  // Served rounds seen from outside (AckEpoch -> next epoch, or the
  // set-up epoch) and the same rounds replayed on ReputationSystem.
  Samples served_round_s;
  Samples replay_round_s;
  // Client-side update round trips, if the workload sent any.
  Samples update_us;
  // Wall per operation without / with spans (trace_overhead_frac).
  double untraced_op_s = 0.0;
  double traced_op_s = 0.0;
  Served* served = nullptr;  // null: the probes start their own
  // Largest gap to the exact GCLR the workload measured; < 0: the probes
  // measure it on their own aggregation.
  double exact_gap = -1.0;
};

// Runs the out-of-workload probes and adds every per-layer metric.
void AddLayerMetrics(LayerContext* ctx, Report* report);

}  // namespace perfbench

#endif  // DGT_PERFBENCH_COMMON_H_
