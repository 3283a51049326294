#include "routing/config.hpp"

#include <cmath>
#include <string>

namespace coyote::routing {

RoutingConfig::RoutingConfig(const Graph& g, std::shared_ptr<const DagSet> dags)
    : dags_(std::move(dags)), num_nodes_(g.numNodes()), num_edges_(g.numEdges()) {
  require(dags_ != nullptr, "null dag set");
  require(static_cast<int>(dags_->size()) == num_nodes_,
          "dag set must contain one dag per destination");
  for (NodeId t = 0; t < num_nodes_; ++t) {
    require((*dags_)[t].dest() == t, "dag set must be indexed by destination");
  }
  ratios_.assign(static_cast<std::size_t>(num_nodes_) * num_edges_, 0.0);
}

RoutingConfig RoutingConfig::uniform(const Graph& g,
                                     std::shared_ptr<const DagSet> dags) {
  RoutingConfig cfg(g, std::move(dags));
  for (NodeId t = 0; t < cfg.num_nodes_; ++t) {
    const Dag& dag = (*cfg.dags_)[t];
    for (NodeId u = 0; u < cfg.num_nodes_; ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      if (out.empty()) continue;
      const double r = 1.0 / static_cast<double>(out.size());
      for (const EdgeId e : out) cfg.ratios_[cfg.index(t, e)] = r;
    }
  }
  return cfg;
}

void RoutingConfig::setRatio(NodeId t, EdgeId e, double value) {
  require(value >= 0.0 && std::isfinite(value), "ratio must be >= 0");
  require((*dags_)[t].contains(e), "ratio set on edge outside the DAG");
  ratios_[index(t, e)] = value;
}

void RoutingConfig::normalize(const Graph& g, double eps) {
  for (NodeId t = 0; t < num_nodes_; ++t) {
    const Dag& dag = (*dags_)[t];
    for (NodeId u = 0; u < num_nodes_; ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      if (out.empty()) continue;
      double sum = 0.0;
      for (const EdgeId e : out) sum += ratios_[index(t, e)];
      if (sum > eps) {
        for (const EdgeId e : out) ratios_[index(t, e)] /= sum;
      } else if (dag.reachesDest(u)) {
        const double r = 1.0 / static_cast<double>(out.size());
        for (const EdgeId e : out) ratios_[index(t, e)] = r;
      }
    }
  }
  (void)g;
}

void RoutingConfig::validate(const Graph& g, double tol) const {
  for (NodeId t = 0; t < num_nodes_; ++t) {
    const Dag& dag = (*dags_)[t];
    for (EdgeId e = 0; e < num_edges_; ++e) {
      const double r = ratios_[index(t, e)];
      ensure(r >= -tol, "negative splitting ratio");
      if (r > tol && !dag.contains(e)) {
        throw std::logic_error("positive ratio on edge outside DAG for t=" +
                               g.nodeName(t));
      }
    }
    for (NodeId u = 0; u < num_nodes_; ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      if (out.empty() || !dag.reachesDest(u)) continue;
      double sum = 0.0;
      for (const EdgeId e : out) sum += ratios_[index(t, e)];
      if (!(std::abs(sum - 1.0) <= tol)) {
        throw std::logic_error("splitting ratios at node " + g.nodeName(u) +
                               " toward " + g.nodeName(t) + " sum to " +
                               std::to_string(sum));
      }
    }
  }
}

std::size_t RoutingConfig::index(NodeId t, EdgeId e) const {
  require(t >= 0 && t < num_nodes_, "destination out of range");
  require(e >= 0 && e < num_edges_, "edge out of range");
  return static_cast<std::size_t>(t) * num_edges_ + e;
}

}  // namespace coyote::routing
