// Test-only splitting-optimizer oracle: the per-matrix optimizeSplitting as
// it stood before the optimizer moved to its destination-major slot arena
// (src/core/splitting_optimizer.cpp), kept verbatim apart from `inline`,
// its namespace and the names that namespace has to qualify.
//
// It propagates each pool matrix separately over dense [t * |E| + e]
// arrays and runs the forward pass on the thread pool. The library's
// optimizer must reproduce it bit for bit: same summation order for every
// per-(matrix, edge) load and per-(destination, edge) gradient, so every
// ratio and iterations_used agree under EXPECT_EQ
// (splitting_reference_test.cpp and bench_micro_core's cross-checks).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/splitting_optimizer.hpp"
#include "util/thread_pool.hpp"

namespace coyote::splitting_reference {
namespace detail {

using routing::RoutingConfig;

/// Flat phi array indexed [t * numEdges + e]; mirrors RoutingConfig.
struct Phi {
  int n, m;
  std::vector<double> v;

  Phi(int nodes, int edges)
      : n(nodes), m(edges), v(static_cast<std::size_t>(nodes) * edges, 0.0) {}

  double& at(NodeId t, EdgeId e) { return v[static_cast<std::size_t>(t) * m + e]; }
  double at(NodeId t, EdgeId e) const {
    return v[static_cast<std::size_t>(t) * m + e];
  }
};

inline Phi fromConfig(const Graph& g, const RoutingConfig& cfg) {
  Phi phi(g.numNodes(), g.numEdges());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (const EdgeId e : cfg.dags()[t].edges()) phi.at(t, e) = cfg.ratio(t, e);
  }
  return phi;
}

inline RoutingConfig toConfig(const Graph& g, const RoutingConfig& like,
                       const Phi& phi, double prune_below) {
  RoutingConfig cfg(g, like.dagsPtr());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const Dag& dag = cfg.dags()[t];
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      if (out.empty()) continue;
      // Prune negligible ratios but always keep the largest one.
      EdgeId best = out.front();
      for (const EdgeId e : out) {
        if (phi.at(t, e) > phi.at(t, best)) best = e;
      }
      for (const EdgeId e : out) {
        const double r = phi.at(t, e);
        cfg.setRatio(t, e, (e == best || r >= prune_below) ? r : 0.0);
      }
    }
  }
  cfg.normalize(g);
  return cfg;
}

/// Demand columns with any positive entry, per pool matrix.
struct ActiveDemand {
  NodeId dest;
  std::vector<double> column;  // column[s] = d(s,dest)
};

inline std::vector<std::vector<ActiveDemand>> activeColumns(
    const routing::PerformanceEvaluator& pool) {
  std::vector<std::vector<ActiveDemand>> act(pool.size());
  const int n = pool.graph().numNodes();
  for (int i = 0; i < pool.size(); ++i) {
    const tm::TrafficMatrix& d = pool.matrix(i);
    for (NodeId t = 0; t < n; ++t) {
      ActiveDemand a{t, std::vector<double>(n, 0.0)};
      bool any = false;
      for (NodeId s = 0; s < n; ++s) {
        if (s == t) continue;
        a.column[s] = d.at(s, t);
        any = any || a.column[s] > 0.0;
      }
      if (any) act[i].push_back(std::move(a));
    }
  }
  return act;
}

}  // namespace detail

inline routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const core::SplittingOptions& opt,
    int* iterations_used = nullptr) {
  require(opt.iterations >= 1, "need >= 1 iteration");
  require(pool.size() > 0, "empty demand pool");
  const int n = g.numNodes();
  const int m = g.numEdges();
  const DagSet& dags = init.dags();

  using namespace detail;
  const auto active = activeColumns(pool);
  Phi phi = fromConfig(g, init);

  // Forward state per (pool matrix, destination): inflow at every node.
  // Stored flat: flows[i] holds one vector per active destination of i.
  std::vector<std::vector<std::vector<double>>> inflow(pool.size());
  for (int i = 0; i < pool.size(); ++i) {
    inflow[i].assign(active[i].size(), std::vector<double>(n, 0.0));
  }
  std::vector<double> grad(static_cast<std::size_t>(n) * m, 0.0);
  std::vector<double> mu(n, 0.0);

  Phi best = phi;
  double best_util = std::numeric_limits<double>::infinity();
  int executed = 0;
  int since_best = 0;

  for (int iter = 0; iter < opt.iterations; ++iter) {
    ++executed;
    // ---- Forward: per-matrix link loads. Matrices are independent, so
    // they propagate on the shared thread pool; umax reduces serially
    // afterwards (max is order-insensitive, so this is bit-deterministic).
    std::vector<std::vector<double>> util(pool.size(),
                                          std::vector<double>(m, 0.0));
    util::ThreadPool::global().parallelFor(
        static_cast<std::size_t>(pool.size()), [&](std::size_t i) {
          std::vector<double> loads(m, 0.0);
          for (std::size_t k = 0; k < active[i].size(); ++k) {
            const ActiveDemand& a = active[i][k];
            const Dag& dag = dags[a.dest];
            auto& F = inflow[i][k];
            std::copy(a.column.begin(), a.column.end(), F.begin());
            for (const NodeId u : dag.topoOrder()) {
              if (u == a.dest || F[u] <= 0.0) continue;
              for (const EdgeId e : dag.outEdges(u)) {
                const double flow = F[u] * phi.at(a.dest, e);
                loads[e] += flow;
                F[g.edge(e).dst] += flow;
              }
            }
          }
          for (EdgeId e = 0; e < m; ++e) {
            util[i][e] = loads[e] / g.edge(e).capacity;
          }
        });
    double umax = 0.0;
    for (int i = 0; i < pool.size(); ++i) {
      for (EdgeId e = 0; e < m; ++e) umax = std::max(umax, util[i][e]);
    }
    // A meaningful (relative) improvement resets the patience clock; the
    // `best` snapshot itself still tracks any strict improvement.
    if (umax < best_util - 1e-9 * std::max(1.0, best_util)) {
      since_best = 0;
    } else {
      ++since_best;
    }
    if (umax < best_util) {
      best_util = umax;
      best = phi;
    }
    if (umax <= 0.0) break;
    if (opt.patience > 0 && since_best >= opt.patience) break;

    // ---- Softmax constraint weights (annealed temperature).
    const double anneal = static_cast<double>(iter) / std::max(1, opt.iterations - 1);
    const double tau =
        umax * (opt.temperature_start +
                (opt.temperature_end - opt.temperature_start) * anneal);
    double wsum = 0.0;
    for (int i = 0; i < pool.size(); ++i) {
      for (EdgeId e = 0; e < m; ++e) {
        const double w = std::exp((util[i][e] - umax) / std::max(tau, 1e-9));
        util[i][e] = (w > 1e-12) ? w : 0.0;  // reuse util[] as weight storage
        wsum += util[i][e];
      }
    }

    // ---- Backward: adjoint gradient of the weighted utilization.
    std::fill(grad.begin(), grad.end(), 0.0);
    for (int i = 0; i < pool.size(); ++i) {
      bool any = false;
      for (EdgeId e = 0; e < m && !any; ++e) any = util[i][e] > 0.0;
      if (!any) continue;
      for (std::size_t k = 0; k < active[i].size(); ++k) {
        const ActiveDemand& a = active[i][k];
        const Dag& dag = dags[a.dest];
        const auto& F = inflow[i][k];
        std::fill(mu.begin(), mu.end(), 0.0);
        const auto& topo = dag.topoOrder();
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
          const NodeId u = *it;
          if (u == a.dest) continue;
          double acc = 0.0;
          for (const EdgeId e : dag.outEdges(u)) {
            const double G = util[i][e] / (wsum * g.edge(e).capacity);
            acc += phi.at(a.dest, e) * (G + mu[g.edge(e).dst]);
          }
          mu[u] = acc;
        }
        for (const EdgeId e : dag.edges()) {
          const Edge& ed = g.edge(e);
          const double G = util[i][e] / (wsum * ed.capacity);
          grad[static_cast<std::size_t>(a.dest) * m + e] +=
              F[ed.src] * (G + mu[ed.dst]);
        }
      }
    }

    // ---- Multiplicative update per (destination, node) simplex.
    // Step size decays over the run so late iterations settle onto the
    // (annealed, nearly hard-max) optimum instead of oscillating.
    const double lr = opt.learning_rate * (1.0 - 0.9 * anneal);
    for (NodeId t = 0; t < n; ++t) {
      const Dag& dag = dags[t];
      for (NodeId u = 0; u < n; ++u) {
        if (u == t) continue;
        const auto& out = dag.outEdges(u);
        if (out.size() < 2) continue;  // single next-hop: ratio pinned to 1
        double scale = 0.0;
        for (const EdgeId e : out) {
          const double gphi = grad[static_cast<std::size_t>(t) * m + e];
          const double eff = (opt.method == core::SplitMethod::kGpCondensation)
                                 ? gphi * phi.at(t, e)
                                 : gphi;
          scale = std::max(scale, std::abs(eff));
        }
        if (scale <= 0.0) continue;
        double sum = 0.0;
        for (const EdgeId e : out) {
          const double gphi = grad[static_cast<std::size_t>(t) * m + e];
          const double eff = (opt.method == core::SplitMethod::kGpCondensation)
                                 ? gphi * phi.at(t, e)
                                 : gphi;
          double& p = phi.at(t, e);
          p = std::max(1e-12, p * std::exp(-lr * eff / scale));
          sum += p;
        }
        for (const EdgeId e : out) phi.at(t, e) /= sum;
      }
    }
  }

  if (iterations_used != nullptr) *iterations_used = executed;
  RoutingConfig cfg = toConfig(g, init, best, opt.prune_below);
  cfg.validate(g);
  return cfg;
}

}  // namespace coyote::splitting_reference
