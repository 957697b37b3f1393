#include "gossip/churn_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"
#include "gossip/step_plan.h"

namespace dgt {

namespace {

// Mutable per-node protocol state.
struct NodeState {
  double y = 0.0;
  double g = 0.0;
  double prev_ratio = 0.0;
  uint32_t streak = 0;
  uint8_t alive = 0;
  uint8_t converged = 0;
  uint8_t stopped = 0;
};

}  // namespace

ChurnPushSum::ChurnPushSum(const Graph& initial, GossipOptions gossip,
                           ChurnOptions churn)
    : initial_(initial), gossip_(gossip), churn_(churn) {}

Result<ChurnGossipResult> ChurnPushSum::Run(const std::vector<double>& y0,
                                            const std::vector<double>& g0) {
  const uint32_t n0 = initial_.num_nodes();
  if (y0.size() != n0 || g0.size() != n0) {
    return Status::InvalidArgument("y0/g0 must match the initial graph");
  }
  if (gossip_.xi <= 0.0) {
    return Status::InvalidArgument("xi must be positive");
  }
  if (churn_.leave_prob < 0.0 || churn_.leave_prob >= 1.0) {
    return Status::InvalidArgument("leave_prob must lie in [0, 1)");
  }
  if (churn_.join_rate < 0.0) {
    return Status::InvalidArgument("join_rate must be non-negative");
  }

  Rng rng(gossip_.seed);
  Rng churn_rng(churn_.seed);
  ThreadPool pool(gossip_.num_threads);

  // Mutable adjacency seeded from the initial graph.
  std::vector<std::vector<NodeId>> adj(n0);
  for (NodeId u = 0; u < n0; ++u) adj[u] = initial_.Neighbors(u);

  std::vector<NodeState> node(n0);
  double total_y = 0.0, total_g = 0.0;
  for (NodeId u = 0; u < n0; ++u) {
    node[u].alive = 1;
    node[u].y = y0[u];
    node[u].g = g0[u];
    total_y += y0[u];
    total_g += g0[u];
  }

  ChurnGossipResult res;
  // Degree announcements: only differential push needs neighbour degrees.
  if (gossip_.strategy == PushStrategy::kDifferential) {
    res.control_messages += initial_.DegreeSum();
  }

  auto ratio_of = [&](NodeId i) {
    return node[i].g != 0.0 ? node[i].y / node[i].g : gossip_.ratio_sentinel;
  };
  for (NodeId u = 0; u < n0; ++u) node[u].prev_ratio = ratio_of(u);

  auto depart = [&](NodeId u) {
    // Handover: the leaving node passes its gossip pair to a live
    // neighbour (preferably one still gossiping), or any live node.
    NodeId heir = u;
    for (NodeId v : adj[u]) {
      if (node[v].alive && !node[v].stopped) {
        heir = v;
        break;
      }
    }
    if (heir == u) {
      for (NodeId v : adj[u]) {
        if (node[v].alive) {
          heir = v;
          break;
        }
      }
    }
    if (heir == u) {
      for (NodeId v = 0; v < node.size(); ++v) {
        if (v != u && node[v].alive) {
          heir = v;
          break;
        }
      }
    }
    if (heir != u) {
      node[heir].y += node[u].y;
      node[heir].g += node[u].g;
      ++res.control_messages;  // the handover message
    }
    // else: last node standing departs with its mass; nothing to do.
    node[u].alive = 0;
    node[u].y = 0.0;
    node[u].g = 0.0;
    for (NodeId v : adj[u]) {
      auto& lst = adj[v];
      lst.erase(std::remove(lst.begin(), lst.end(), u), lst.end());
    }
    adj[u].clear();
    ++res.departures;
  };

  auto join = [&]() {
    if (node.size() >= churn_.max_nodes) return;
    // Preferential attachment over the live population.
    std::vector<NodeId> live;
    std::vector<double> weight;
    for (NodeId v = 0; v < node.size(); ++v) {
      if (!node[v].alive) continue;
      live.push_back(v);
      weight.push_back(static_cast<double>(adj[v].size()) + 1.0);
    }
    if (live.empty()) return;
    NodeId id = static_cast<NodeId>(node.size());
    node.push_back(NodeState{});
    adj.emplace_back();
    NodeState& fresh = node.back();
    fresh.alive = 1;
    fresh.y = churn_rng.NextDouble();
    fresh.g = 1.0;
    total_y += fresh.y;
    total_g += 1.0;
    fresh.prev_ratio = fresh.y;

    uint32_t m = std::min<uint32_t>(churn_.join_edges,
                                    static_cast<uint32_t>(live.size()));
    std::vector<NodeId> chosen;
    while (chosen.size() < m) {
      NodeId t = live[churn_rng.NextDiscrete(weight)];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (NodeId t : chosen) {
      adj[id].push_back(t);
      adj[t].push_back(id);
    }
    res.control_messages += 2ull * m;  // joining handshakes + degree push
    ++res.arrivals;
    // An arrival changes the quantity being averaged (fresh mass), so the
    // round restarts: every live node resumes gossiping (the paper reruns
    // gossip rounds as membership changes).
    for (auto& s : node) {
      if (!s.alive) continue;
      s.converged = 0;
      s.stopped = 0;
      s.streak = 0;
    }
  };

  // Two-phase step state (see step_plan.h).
  StepPlan plan;
  std::vector<uint8_t> inactive;
  std::vector<double> in_y, in_g;
  std::vector<uint32_t> push_counts;
  uint32_t step = 0;
  uint32_t live_unstopped = n0;

  auto count_unstopped = [&]() {
    uint32_t c = 0;
    for (const auto& s : node) {
      if (s.alive && !s.stopped) ++c;
    }
    return c;
  };

  while (step < gossip_.max_steps) {
    ++step;

    // Churn phase (only while active).
    if (step <= churn_.churn_steps) {
      for (NodeId u = 0; u < node.size(); ++u) {
        if (node[u].alive && churn_rng.NextBernoulli(churn_.leave_prob)) {
          depart(u);
        }
      }
      double expect = churn_.join_rate;
      while (expect >= 1.0) {
        join();
        expect -= 1.0;
      }
      if (expect > 0.0 && churn_rng.NextBernoulli(expect)) join();
      live_unstopped = count_unstopped();
    }

    const uint32_t n = static_cast<uint32_t>(node.size());
    // k_i over the current overlay: no randomness involved, so it
    // precomputes sharded (reads adjacency only).
    push_counts.assign(n, 1);
    inactive.assign(n, 0);
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const NodeState& s = node[i];
        inactive[i] = !s.alive || s.stopped;
        if (inactive[i] || adj[i].empty() ||
            gossip_.strategy != PushStrategy::kDifferential) {
          continue;
        }
        push_counts[i] = DifferentialPushCount(adj, static_cast<NodeId>(i),
                                               gossip_.k_rounding);
      }
    });

    // Phase A: draw pushes and bin deliveries per receiver, ascending-
    // sender order. A push bounces back to the sender when the target has
    // stopped or departed, or the packet is lost. Node ids are never
    // reused, so in counter mode a joined node's streams are fresh.
    BuildStepPlan(adj, push_counts, inactive, gossip_, step, rng, rng, pool,
                  plan);
    res.gossip_messages += plan.pushes;
    const auto& inbox = plan.inbox;
    const auto& k_used = plan.k_used;

    // Phase B: per-receiver accumulation (ascending-sender order, a fixed
    // float order). Reads only previous-step node values; writes land in
    // in_y/in_g until the apply pass installs them.
    in_y.assign(n, 0.0);
    in_g.assign(n, 0.0);
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        const NodeState& s = node[i];
        if (!s.alive || s.stopped || inbox[i].empty()) continue;
        double acc_y = 0.0, acc_g = 0.0;
        for (const PlanEntry& e : inbox[i]) {
          acc_y += ShareOf(node[e.sender].y, k_used[e.sender], e.shares);
          acc_g += ShareOf(node[e.sender].g, k_used[e.sender], e.shares);
        }
        in_y[i] = acc_y;
        in_g[i] = acc_g;
      }
    });

    // Apply + convergence evidence.
    std::atomic<uint64_t> announce_messages{0};
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        NodeState& s = node[i];
        if (!s.alive || s.stopped) continue;
        if (adj[i].empty()) {
          // Churn isolated this node: it can never hear anything again.
          if (!s.converged) s.converged = 1;
          s.stopped = 1;
          continue;
        }
        s.y = in_y[i];
        s.g = in_g[i];
        double r = s.g != 0.0 ? s.y / s.g : gossip_.ratio_sentinel;
        if (!s.converged) {
          if (plan.senders[i] >= 1 && s.g != 0.0) {
            s.streak =
                std::fabs(r - s.prev_ratio) <= gossip_.xi ? s.streak + 1 : 0;
          }
          if (s.streak >= gossip_.convergence_rounds) {
            s.converged = 1;
            announce_messages.fetch_add(adj[i].size(),
                                        std::memory_order_relaxed);
          }
        }
        s.prev_ratio = r;
      }
    });
    res.control_messages += announce_messages.load(std::memory_order_relaxed);

    // Starvation escape + stop rule (membership-aware).
    for (NodeId i = 0; i < n; ++i) {
      NodeState& s = node[i];
      if (!s.alive || s.stopped) continue;
      bool all_stopped = true, all_converged = true;
      for (NodeId v : adj[i]) {
        if (!node[v].stopped) all_stopped = false;
        if (!node[v].converged) all_converged = false;
      }
      if (!s.converged && all_stopped && !adj[i].empty()) {
        s.converged = 1;
        res.control_messages += adj[i].size();
      }
      if (s.converged && all_converged) s.stopped = 1;
    }

    live_unstopped = count_unstopped();
    if (step > churn_.churn_steps && live_unstopped == 0) break;
  }

  const uint32_t n = static_cast<uint32_t>(node.size());
  res.steps = step;
  res.converged = (live_unstopped == 0);
  res.expected_ratio = total_g > 0.0 ? total_y / total_g : 0.0;
  res.ratios.assign(n, 0.0);
  res.alive.assign(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    res.alive[i] = node[i].alive;
    res.ratios[i] = ratio_of(i);
    if (node[i].alive) ++res.live_count;
  }
  return res;
}

}  // namespace dgt
