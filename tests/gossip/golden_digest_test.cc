// Golden digests: every output of every synchronous gossip engine, the
// churn engine, the vector/single aggregation variants and the potential
// tracker, hashed (FNV-1a over IEEE-754 bit patterns) and pinned to
// values recorded before the engines were folded onto one executor. Any
// change to a draw, a float accumulation order, a stop decision or a
// message count changes a digest. On a mismatch the test prints the
// actual digest so an intended behaviour change can be re-pinned.
//
// The grid is {scalar, dense, sparse, churn} x {uniform, differential} x
// {kSequential, kCounter} x loss {0, 0.2}, each run at 1 and 4 worker
// threads against the same digest (results are thread-count invariant).
// The overlays carry an isolated node and a two-node component so the
// isolated-node setup and the force-converge pass are exercised.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "gossip/churn_engine.h"
#include "gossip/potential.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/vector_engine.h"
#include "reputation/aggregation.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;
using testing_util::RandomValues;

class Digest {
 public:
  void U64(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void F64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    U64(bits);
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
  }
  void Matrix(const std::vector<std::vector<double>>& m) {
    U64(m.size());
    for (const auto& row : m) Doubles(row);
  }
  template <typename Run>
  void Stats(const Run& r) {
    U64(r.steps);
    U64(r.converged ? 1 : 0);
    U64(r.gossip_messages);
    U64(r.control_messages);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull", v);
  return buf;
}

// PA overlay of `pa_nodes` nodes plus one isolated node and a two-node
// component hanging off nothing.
Graph GridGraph(uint32_t pa_nodes, uint64_t seed) {
  Graph pa = MakePaGraph(pa_nodes, 2, seed);
  Graph g(pa_nodes + 3);
  for (const auto& [u, v] : pa.Edges()) EXPECT_TRUE(g.AddEdge(u, v).ok());
  EXPECT_TRUE(g.AddEdge(pa_nodes + 1, pa_nodes + 2).ok());
  return g;
}

enum class Engine { kScalar, kDense, kSparse, kChurn };

struct GridPoint {
  Engine engine;
  PushStrategy strategy;
  GossipRngMode mode;
  double loss;
};

std::string Name(const GridPoint& p) {
  static const char* const kEngines[] = {"scalar", "dense", "sparse",
                                         "churn"};
  std::string name = kEngines[static_cast<int>(p.engine)];
  name += p.strategy == PushStrategy::kDifferential ? "/diff" : "/unif";
  name += p.mode == GossipRngMode::kSequential ? "/seq" : "/counter";
  name += p.loss == 0.0 ? "/loss0" : "/loss20";
  return name;
}

GossipOptions GridOptions(const GridPoint& p, uint32_t threads) {
  GossipOptions o;
  o.strategy = p.strategy;
  o.rng_mode = p.mode;
  o.packet_loss_prob = p.loss;
  o.xi = 1e-4;
  o.seed = 29;
  o.num_threads = threads;
  return o;
}

// GCLR-shaped vector state: sparse opinions with a count channel and the
// one-hot weight on the diagonal.
struct VectorInit {
  std::vector<std::vector<double>> y, g, c;
  std::vector<SparseVectorRow> sparse;
};

VectorInit MakeVectorInit(uint32_t n) {
  VectorInit init;
  init.y.assign(n, std::vector<double>(n, 0.0));
  init.g.assign(n, std::vector<double>(n, 0.0));
  init.c.assign(n, std::vector<double>(n, 0.0));
  init.sparse.resize(n);
  Rng rng(71);
  for (uint32_t i = 0; i < n; ++i) {
    init.g[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.3)) {
        init.y[i][j] = rng.NextDouble();
        init.c[i][j] = 1.0;
      }
      if (init.y[i][j] == 0.0 && init.g[i][j] == 0.0) continue;
      init.sparse[i].cols.push_back(j);
      init.sparse[i].y.push_back(init.y[i][j]);
      init.sparse[i].g.push_back(init.g[i][j]);
      init.sparse[i].c.push_back(init.c[i][j]);
    }
  }
  return init;
}

uint64_t RunGridPoint(const GridPoint& p, uint32_t threads) {
  const GossipOptions o = GridOptions(p, threads);
  Digest d;
  switch (p.engine) {
    case Engine::kScalar: {
      Graph g = GridGraph(40, 7);
      const uint32_t n = g.num_nodes();
      std::vector<double> y0 = RandomValues(n, 11), g0(n, 1.0), c0(n, 1.0);
      for (uint32_t i = 0; i < n; i += 5) g0[i] = 0.0;  // weightless nodes
      GossipOptions so = o;
      so.track_trace = true;
      ScalarPushSum engine(&g, so);
      auto r = engine.Run(y0, g0, c0);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return 0;
      d.Doubles(r->ratios);
      d.Doubles(r->values);
      d.Doubles(r->weights);
      d.Doubles(r->counts);
      d.Matrix(r->trace);
      d.Stats(*r);
      d.F64(r->mean_messages_per_active_node_step);
      break;
    }
    case Engine::kDense: {
      Graph g = GridGraph(24, 8);
      VectorInit init = MakeVectorInit(g.num_nodes());
      VectorPushSum engine(&g, o);
      auto r = engine.Run(init.y, init.g, init.c);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return 0;
      d.Matrix(r->estimates);
      d.Matrix(r->count_estimates);
      d.Stats(*r);
      d.F64(r->mean_messages_per_active_node_step);
      break;
    }
    case Engine::kSparse: {
      Graph g = GridGraph(24, 8);
      VectorInit init = MakeVectorInit(g.num_nodes());
      SparseVectorPushSum engine(&g, o);
      auto r = engine.Run(init.sparse, /*use_count=*/true);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return 0;
      d.U64(r->rows.size());
      for (const auto& row : r->rows) {
        d.U64(row.cols.size());
        for (uint32_t col : row.cols) d.U64(col);
        d.Doubles(row.estimates);
        d.Doubles(row.count_estimates);
      }
      d.Stats(*r);
      d.F64(r->mean_messages_per_active_node_step);
      d.U64(r->peak_state_nonzeros);
      break;
    }
    case Engine::kChurn: {
      Graph g = GridGraph(48, 9);
      const uint32_t n = g.num_nodes();
      ChurnOptions churn;
      churn.leave_prob = 0.02;
      churn.join_rate = 0.5;
      churn.churn_steps = 15;
      churn.seed = 5;
      ChurnPushSum engine(g, o, churn);
      auto r = engine.Run(RandomValues(n, 12), std::vector<double>(n, 1.0));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return 0;
      d.Doubles(r->ratios);
      d.U64(r->alive.size());
      for (uint8_t a : r->alive) d.U64(a);
      d.U64(r->live_count);
      d.U64(r->departures);
      d.U64(r->arrivals);
      d.F64(r->expected_ratio);
      d.Stats(*r);
      break;
    }
  }
  return d.value();
}

// Every golden value below was recorded from the engines as they stood
// before the executor refactor.
TEST(GoldenDigest, EngineGrid) {
  const std::map<std::string, uint64_t> golden = {
      {"scalar/unif/seq/loss0", 0xc155c538af060fc3ull},
      {"scalar/unif/seq/loss20", 0x9be55f30cd701e6full},
      {"scalar/unif/counter/loss0", 0x9fbd47b8f090bf1full},
      {"scalar/unif/counter/loss20", 0x4e02ea5f7071520cull},
      {"scalar/diff/seq/loss0", 0xeb51165e47ac3dcbull},
      {"scalar/diff/seq/loss20", 0x8f3b4f36c5eb2321ull},
      {"scalar/diff/counter/loss0", 0xe7370d328ab7ee53ull},
      {"scalar/diff/counter/loss20", 0x230221393168188full},
      {"dense/unif/seq/loss0", 0x3e447bcd04ef12c3ull},
      {"dense/unif/seq/loss20", 0x9ffdc97d43b4e508ull},
      {"dense/unif/counter/loss0", 0x2de16ce35f29a747ull},
      {"dense/unif/counter/loss20", 0x151e0fdefe52f271ull},
      {"dense/diff/seq/loss0", 0xbff21cb9a536e49bull},
      {"dense/diff/seq/loss20", 0xfef605a91d3ab0e8ull},
      {"dense/diff/counter/loss0", 0xe3389717c1512e7cull},
      {"dense/diff/counter/loss20", 0x6d7d965e2a466cfcull},
      {"sparse/unif/seq/loss0", 0x240923ea13178b62ull},
      {"sparse/unif/seq/loss20", 0xcdbee0833d07997dull},
      {"sparse/unif/counter/loss0", 0x25021a7bd7d6b379ull},
      {"sparse/unif/counter/loss20", 0xa0f7f7df540c44a7ull},
      {"sparse/diff/seq/loss0", 0x3ef8c000eb1ddb45ull},
      {"sparse/diff/seq/loss20", 0x5a55b82c34c5f129ull},
      {"sparse/diff/counter/loss0", 0x0f65dad99153bde5ull},
      {"sparse/diff/counter/loss20", 0x57af755fbc0c07feull},
      {"churn/unif/seq/loss0", 0x2a96aba0a8b3e810ull},
      {"churn/unif/seq/loss20", 0xd4cef063299605edull},
      {"churn/unif/counter/loss0", 0x1bdaba08c50aaf20ull},
      {"churn/unif/counter/loss20", 0x63b438874419f407ull},
      {"churn/diff/seq/loss0", 0x4059ccf2f081ead8ull},
      {"churn/diff/seq/loss20", 0x36e8056ce9125b28ull},
      {"churn/diff/counter/loss0", 0x89d30d3a6855040aull},
      {"churn/diff/counter/loss20", 0x99d35e3e0ae24c2eull},
  };
  std::string actual_table;
  for (Engine engine : {Engine::kScalar, Engine::kDense, Engine::kSparse,
                        Engine::kChurn}) {
    for (PushStrategy strategy :
         {PushStrategy::kUniform, PushStrategy::kDifferential}) {
      for (GossipRngMode mode :
           {GossipRngMode::kSequential, GossipRngMode::kCounter}) {
        for (double loss : {0.0, 0.2}) {
          const GridPoint p{engine, strategy, mode, loss};
          const std::string name = Name(p);
          const auto it = golden.find(name);
          const uint64_t expected = it == golden.end() ? 0 : it->second;
          bool printed = false;
          for (uint32_t threads : {1u, 4u}) {
            const uint64_t actual = RunGridPoint(p, threads);
            EXPECT_EQ(Hex(actual), Hex(expected))
                << name << " at T=" << threads;
            if (actual != expected && !printed) {
              actual_table += "      {\"" + name + "\", " + Hex(actual) +
                              "},\n";
              printed = true;
            }
          }
        }
      }
    }
  }
  if (!actual_table.empty()) {
    std::printf("Actual digests for the mismatching points:\n%s",
                actual_table.c_str());
  }
}

AggregationOptions AggOptions(uint32_t threads) {
  AggregationOptions o;
  o.gossip.xi = 1e-5;
  o.gossip.seed = 17;
  o.gossip.num_threads = threads;
  o.weights.a = 4.0;
  o.weights.b = 1.0;
  return o;
}

uint64_t AggregationDigest(const std::string& variant, uint32_t threads) {
  Graph g = MakePaGraph(64, 2, 61);
  TrustMatrix t(64);
  FillTrust(g, &t, 62);
  const AggregationOptions o = AggOptions(threads);
  Digest d;
  auto add = [&](const GossipRunStats& s) {
    d.Stats(s);
    d.F64(s.mean_messages_per_active_node_step);
    d.U64(s.peak_state_nonzeros);
  };
  if (variant == "global_vector" || variant == "gclr_vector") {
    auto r = variant == "global_vector" ? AggregateGlobalVector(g, t, o)
                                        : AggregateGclrVector(g, t, o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    d.Matrix(r->estimates);
    add(r->stats);
  } else {
    auto r = AggregateGclrSingle(g, t, 5, o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    d.Doubles(r->estimates);
    add(r->stats);
  }
  return d.value();
}

TEST(GoldenDigest, Aggregation) {
  const std::map<std::string, uint64_t> golden = {
      {"global_vector", 0x4ccbd4cbf7ced4a5ull},
      {"gclr_vector", 0x6e02f96017b6cbacull},
      {"gclr_single", 0xb84b8c5e80f18050ull},
  };
  for (const auto& variant : {"global_vector", "gclr_vector", "gclr_single"}) {
    const auto it = golden.find(variant);
    const uint64_t expected = it == golden.end() ? 0 : it->second;
    for (uint32_t threads : {1u, 4u}) {
      EXPECT_EQ(Hex(AggregationDigest(variant, threads)), Hex(expected))
          << variant << " at T=" << threads;
    }
  }
}

TEST(GoldenDigest, PotentialTrace) {
  const std::map<std::string, uint64_t> golden = {
      {"unif", 0xc54c521b1af87358ull},
      {"diff", 0xfe887762ebcae3f4ull},
  };
  Graph g = GridGraph(48, 10);
  for (PushStrategy strategy :
       {PushStrategy::kUniform, PushStrategy::kDifferential}) {
    const std::string name =
        strategy == PushStrategy::kDifferential ? "diff" : "unif";
    const auto it = golden.find(name);
    const uint64_t expected = it == golden.end() ? 0 : it->second;
    for (uint32_t threads : {1u, 4u}) {
      Rng rng(3);
      auto trace = TrackPotential(g, strategy, 40, rng, threads);
      ASSERT_TRUE(trace.ok()) << trace.status().ToString();
      Digest d;
      d.Doubles(trace->psi);
      d.F64(trace->final_max_relative_deviation);
      // The draws consumed from the caller's generator are part of the
      // contract too.
      d.U64(rng.NextU64());
      EXPECT_EQ(Hex(d.value()), Hex(expected)) << name << " at T=" << threads;
    }
  }
}

}  // namespace
}  // namespace dgt
