#include "core/splitting_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace coyote::core {
namespace {

using routing::RoutingConfig;

/// The optimizer's destination-major state (see the header). Destination t
/// owns a run of node entries -- the DAG tails in topological order -- and
/// each entry owns a run of slots, its DAG out-edges in Dag::outEdges
/// order. phi and the gradient are per slot. Each destination also owns
/// its batch: the pool matrices with demand toward it, ascending, whose
/// inflows sweep together through one [node][batch] block.
struct Arena {
  struct Dest {
    int node_begin = 0, node_end = 0;    // entries [node_begin, node_end)
    int batch_begin = 0, batch_end = 0;  // into `batch`
    std::size_t block = 0;               // its [node][batch] block's offset
    [[nodiscard]] int batchSize() const { return batch_end - batch_begin; }
  };
  std::vector<Dest> dests;    // indexed by destination
  std::vector<NodeId> node;   // per entry: the tail node
  std::vector<int> first;     // entry k owns slots [first[k], first[k+1])
  std::vector<EdgeId> edge;   // per slot
  std::vector<NodeId> head;   // per slot: the edge's dst
  std::vector<int> batch;     // pool matrix ids, per destination
  std::vector<double> demand; // [node][batch] blocks: d_i(u, t)
};

Arena buildArena(const Graph& g, const routing::PerformanceEvaluator& pool,
                 const DagSet& dags) {
  const int n = g.numNodes();
  Arena a;
  a.dests.resize(n);
  a.first.push_back(0);
  for (NodeId t = 0; t < n; ++t) {
    Arena::Dest& d = a.dests[t];
    const Dag& dag = dags[t];
    d.node_begin = static_cast<int>(a.node.size());
    for (const NodeId u : dag.topoOrder()) {
      const auto& out = dag.outEdges(u);
      if (out.empty()) continue;
      a.node.push_back(u);
      for (const EdgeId e : out) {
        a.edge.push_back(e);
        a.head.push_back(g.edge(e).dst);
      }
      a.first.push_back(static_cast<int>(a.edge.size()));
    }
    d.node_end = static_cast<int>(a.node.size());
    // Sparse batch: only matrices whose demand column toward t is nonzero.
    d.batch_begin = static_cast<int>(a.batch.size());
    for (int i = 0; i < pool.size(); ++i) {
      const tm::TrafficMatrix& dm = pool.matrix(i);
      for (NodeId s = 0; s < n; ++s) {
        if (s != t && dm.at(s, t) > 0.0) {
          a.batch.push_back(i);
          break;
        }
      }
    }
    d.batch_end = static_cast<int>(a.batch.size());
    const int nb = d.batchSize();
    d.block = a.demand.size();
    a.demand.resize(d.block + static_cast<std::size_t>(n) * nb, 0.0);
    for (int j = 0; j < nb; ++j) {
      const tm::TrafficMatrix& dm = pool.matrix(a.batch[d.batch_begin + j]);
      for (NodeId s = 0; s < n; ++s) {
        if (s != t) a.demand[d.block + static_cast<std::size_t>(s) * nb + j] = dm.at(s, t);
      }
    }
  }
  return a;
}

RoutingConfig toConfig(const Graph& g, const RoutingConfig& like,
                       const Arena& a, const std::vector<double>& phi,
                       double prune_below) {
  RoutingConfig cfg(g, like.dagsPtr());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const Arena::Dest& d = a.dests[t];
    for (int k = d.node_begin; k < d.node_end; ++k) {
      // Prune negligible ratios but always keep the largest one.
      int best = a.first[k];
      for (int s = a.first[k]; s < a.first[k + 1]; ++s) {
        if (phi[s] > phi[best]) best = s;
      }
      for (int s = a.first[k]; s < a.first[k + 1]; ++s) {
        const double r = phi[s];
        cfg.setRatio(t, a.edge[s], (s == best || r >= prune_below) ? r : 0.0);
      }
    }
  }
  cfg.normalize(g);
  return cfg;
}

}  // namespace

routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt,
    int* iterations_used) {
  require(opt.iterations >= 1, "need >= 1 iteration");
  require(pool.size() > 0, "empty demand pool");
  const int n = g.numNodes();
  const int m = g.numEdges();
  const int np = pool.size();
  const Arena a = buildArena(g, pool, init.dags());
  const std::size_t slots = a.edge.size();

  std::vector<double> phi(slots);
  for (NodeId t = 0; t < n; ++t) {
    const Arena::Dest& d = a.dests[t];
    for (int s = a.first[d.node_begin]; s < a.first[d.node_end]; ++s) {
      phi[s] = init.ratio(t, a.edge[s]);
    }
  }
  std::vector<double> cap(m);
  for (EdgeId e = 0; e < m; ++e) cap[e] = g.edge(e).capacity;

  // Everything the loop touches is allocated here, so the steady state
  // allocates nothing. [edge][matrix] blocks hold the loads (then the
  // utilizations, then the softmax weights) and G = w / (wsum * c).
  std::vector<double> inflow(a.demand.size());
  std::vector<double> load(static_cast<std::size_t>(m) * np);
  std::vector<double> G(load.size());
  std::vector<char> weighted(np);
  std::vector<int> wpos(np), wmat(np);  // one destination's weighted batch
  std::vector<double> mu(static_cast<std::size_t>(n) * np);
  std::vector<double> grad(slots, 0.0);
  std::vector<double> best = phi;
  double best_util = std::numeric_limits<double>::infinity();
  int executed = 0;
  int since_best = 0;

  for (int iter = 0; iter < opt.iterations; ++iter) {
    ++executed;
    // ---- Forward: each destination propagates its whole batch in one
    // topological sweep. Per matrix, a load sums its destinations in
    // ascending order and an inflow its in-edges in sweep order, exactly
    // as a per-matrix propagation would.
    std::fill(load.begin(), load.end(), 0.0);
    for (NodeId t = 0; t < n; ++t) {
      const Arena::Dest& d = a.dests[t];
      const int nb = d.batchSize();
      if (nb == 0) continue;
      const int* mid = &a.batch[d.batch_begin];
      double* F = &inflow[d.block];
      std::copy_n(&a.demand[d.block], static_cast<std::size_t>(n) * nb, F);
      for (int k = d.node_begin; k < d.node_end; ++k) {
        const double* Fu = F + static_cast<std::size_t>(a.node[k]) * nb;
        // Demands are >= 0, so a zero inflow adds exactly nothing.
        if (std::none_of(Fu, Fu + nb, [](double f) { return f > 0.0; })) continue;
        for (int s = a.first[k]; s < a.first[k + 1]; ++s) {
          const double p = phi[s];
          double* Fv = F + static_cast<std::size_t>(a.head[s]) * nb;
          double* L = &load[static_cast<std::size_t>(a.edge[s]) * np];
          for (int j = 0; j < nb; ++j) {
            const double flow = Fu[j] * p;
            L[mid[j]] += flow;
            Fv[j] += flow;
          }
        }
      }
    }
    double umax = 0.0;
    for (EdgeId e = 0; e < m; ++e) {
      double* U = &load[static_cast<std::size_t>(e) * np];
      for (int i = 0; i < np; ++i) {
        U[i] /= cap[e];
        umax = std::max(umax, U[i]);
      }
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

    // ---- Softmax constraint weights (annealed temperature), summed matrix
    // by matrix; G is computed once for the whole backward pass.
    const double anneal = static_cast<double>(iter) / std::max(1, opt.iterations - 1);
    const double tau =
        umax * (opt.temperature_start +
                (opt.temperature_end - opt.temperature_start) * anneal);
    double wsum = 0.0;
    for (int i = 0; i < np; ++i) {
      weighted[i] = 0;
      for (EdgeId e = 0; e < m; ++e) {
        double& w = load[static_cast<std::size_t>(e) * np + i];
        const double x = std::exp((w - umax) / std::max(tau, 1e-9));
        w = (x > 1e-12) ? x : 0.0;
        wsum += w;
        weighted[i] = weighted[i] || w > 0.0;
      }
    }
    for (EdgeId e = 0; e < m; ++e) {
      for (int i = 0; i < np; ++i) {
        const std::size_t x = static_cast<std::size_t>(e) * np + i;
        G[x] = load[x] / (wsum * cap[e]);
      }
    }

    // ---- Backward: adjoint gradient of the weighted utilization, one
    // reverse sweep per destination over its weighted batch matrices. A
    // slot's gradient sums those matrices in ascending order.
    for (NodeId t = 0; t < n; ++t) {
      const Arena::Dest& d = a.dests[t];
      const int nb = d.batchSize();
      if (nb == 0) continue;
      const int* mid = &a.batch[d.batch_begin];
      int nw = 0;
      for (int j = 0; j < nb; ++j) {
        if (weighted[mid[j]]) {
          wpos[nw] = j;
          wmat[nw++] = mid[j];
        }
      }
      if (nw == 0) {
        std::fill(grad.begin() + a.first[d.node_begin],
                  grad.begin() + a.first[d.node_end], 0.0);
        continue;
      }
      const double* F = &inflow[d.block];
      std::fill_n(mu.begin(), static_cast<std::size_t>(n) * nw, 0.0);
      for (int k = d.node_end - 1; k >= d.node_begin; --k) {
        double* Mu = &mu[static_cast<std::size_t>(a.node[k]) * nw];
        for (int s = a.first[k]; s < a.first[k + 1]; ++s) {
          const double p = phi[s];
          const double* Ge = &G[static_cast<std::size_t>(a.edge[s]) * np];
          const double* Mv = &mu[static_cast<std::size_t>(a.head[s]) * nw];
          for (int j = 0; j < nw; ++j) Mu[j] += p * (Ge[wmat[j]] + Mv[j]);
        }
      }
      for (int k = d.node_begin; k < d.node_end; ++k) {
        const double* Fu = F + static_cast<std::size_t>(a.node[k]) * nb;
        for (int s = a.first[k]; s < a.first[k + 1]; ++s) {
          const double* Ge = &G[static_cast<std::size_t>(a.edge[s]) * np];
          const double* Mv = &mu[static_cast<std::size_t>(a.head[s]) * nw];
          double acc = 0.0;
          for (int j = 0; j < nw; ++j) acc += Fu[wpos[j]] * (Ge[wmat[j]] + Mv[j]);
          grad[s] = acc;
        }
      }
    }

    // ---- Multiplicative update per (destination, node) simplex.
    // Step size decays over the run so late iterations settle onto the
    // (annealed, nearly hard-max) optimum instead of oscillating.
    const double lr = opt.learning_rate * (1.0 - 0.9 * anneal);
    for (NodeId t = 0; t < n; ++t) {
      const Arena::Dest& d = a.dests[t];
      if (d.batchSize() == 0) continue;  // zero gradient: phi stays put
      for (int k = d.node_begin; k < d.node_end; ++k) {
        const int s0 = a.first[k], s1 = a.first[k + 1];
        if (s1 - s0 < 2) continue;  // single next-hop: ratio pinned to 1
        double scale = 0.0;
        for (int s = s0; s < s1; ++s) {
          const double eff = (opt.method == SplitMethod::kGpCondensation)
                                 ? grad[s] * phi[s]
                                 : grad[s];
          scale = std::max(scale, std::abs(eff));
        }
        if (scale <= 0.0) continue;
        double sum = 0.0;
        for (int s = s0; s < s1; ++s) {
          const double eff = (opt.method == SplitMethod::kGpCondensation)
                                 ? grad[s] * phi[s]
                                 : grad[s];
          double& p = phi[s];
          p = std::max(1e-12, p * std::exp(-lr * eff / scale));
          sum += p;
        }
        for (int s = s0; s < s1; ++s) phi[s] /= sum;
      }
    }
  }

  if (iterations_used != nullptr) *iterations_used = executed;
  RoutingConfig cfg = toConfig(g, init, a, best, opt.prune_below);
  cfg.validate(g);
  return cfg;
}

}  // namespace coyote::core
