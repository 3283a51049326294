// Differential test of core::optimizeSplitting against the per-matrix
// oracle in splitting_reference.hpp: every ratio of the returned
// configuration and iterations_used must agree exactly (EXPECT_EQ on
// doubles). Cases cover dense batches (Abilene, Geant corner pools at
// margins 1.5-3), single-destination demand (the running example) and
// sparse destinations (fat-tree k4 with top-k gravity between edge
// switches), both SplitMethods, patience 0 and 20, and uniform vs warm
// (pruned, so some ratios are 0) starting points. CMake registers the
// suite at COYOTE_THREADS 1, 2 and 8; the oracle's forward pass runs on
// the thread pool, so each registration pins a different schedule.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dag_builder.hpp"
#include "core/splitting_optimizer.hpp"
#include "splitting_reference.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace coyote {
namespace {

using core::SplitMethod;
using core::SplittingOptions;
using routing::RoutingConfig;

/// A network and its normalized pool. Heap-held and never moved: the
/// evaluator keeps a reference to the graph.
struct Net {
  std::string name;
  Graph g;
  std::shared_ptr<const DagSet> dags;
  std::unique_ptr<routing::PerformanceEvaluator> pool;

  Net(std::string n, Graph graph)
      : name(std::move(n)),
        g(std::move(graph)),
        dags(core::augmentedDagsShared(g)),
        pool(std::make_unique<routing::PerformanceEvaluator>(g, dags)) {}
};
using NetPtr = std::unique_ptr<Net>;

NetPtr runningExample() {
  auto net = std::make_unique<Net>("running-example", topo::runningExample());
  const NodeId t = *net->g.findNode("t");
  for (const char* src : {"s1", "s2"}) {
    tm::TrafficMatrix d(net->g.numNodes());
    d.set(*net->g.findNode(src), t, 2.0);
    net->pool->addMatrix(d);
  }
  return net;
}

/// Corner pool around a gravity base, with the margin sweeps' pool shape
/// (27 matrices on Geant).
NetPtr cornerNet(std::string name, Graph g, const tm::GravityOptions& go,
                 double margin) {
  auto net = std::make_unique<Net>(std::move(name), std::move(g));
  tm::PoolOptions popt;
  popt.random_corners = 6;
  popt.source_hotspots = false;
  popt.max_hotspots = 12;
  popt.seed = 5;
  net->pool->addPool(tm::cornerPool(
      tm::marginBounds(tm::gravityMatrix(net->g, 1.0, go), margin), popt));
  return net;
}

std::vector<NetPtr> networks() {
  std::vector<NetPtr> nets;
  nets.push_back(runningExample());
  nets.push_back(cornerNet("Abilene", topo::makeZoo("Abilene"), {}, 2.0));
  for (const double margin : {1.5, 2.0, 2.5, 3.0}) {
    nets.push_back(cornerNet("Geant@" + std::to_string(margin),
                             topo::makeZoo("Geant"), {}, margin));
  }
  tm::GravityOptions sparse;
  sparse.top_k = 3;
  sparse.endpoint_prefix = "edge";
  nets.push_back(cornerNet("fattree-k4", topo::fatTree(4), sparse, 2.0));
  return nets;
}

void expectSameRun(const Net& net, const RoutingConfig& init,
                   const SplittingOptions& opt, const std::string& ctx) {
  int ref_used = -1;
  int lib_used = -1;
  const RoutingConfig ref = splitting_reference::optimizeSplitting(
      net.g, *net.pool, init, opt, &ref_used);
  const RoutingConfig lib =
      core::optimizeSplitting(net.g, *net.pool, init, opt, &lib_used);
  EXPECT_EQ(lib_used, ref_used) << ctx;
  int mismatches = 0;
  for (NodeId t = 0; t < net.g.numNodes(); ++t) {
    for (EdgeId e = 0; e < net.g.numEdges(); ++e) {
      if (lib.ratio(t, e) != ref.ratio(t, e) && ++mismatches <= 3) {
        EXPECT_EQ(lib.ratio(t, e), ref.ratio(t, e))
            << ctx << " t=" << t << " e=" << e;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << ctx;
}

TEST(SplittingReference, BitIdenticalAcrossNetworksMethodsAndStarts) {
  for (const NetPtr& ptr : networks()) {
    const Net& net = *ptr;
    ASSERT_GT(net.pool->size(), 0) << net.name;
    const RoutingConfig uniform = RoutingConfig::uniform(net.g, net.dags);
    // A warm start as the daemon's reoptimize uses one: a short run's
    // pruned output, so some starting ratios are exactly 0.
    SplittingOptions short_run;
    short_run.iterations = 25;
    const RoutingConfig warm =
        core::optimizeSplitting(net.g, *net.pool, uniform, short_run);
    for (const SplitMethod method :
         {SplitMethod::kGpCondensation, SplitMethod::kMirrorDescent}) {
      for (const int patience : {0, 20}) {
        for (const bool warm_start : {false, true}) {
          SplittingOptions opt;
          opt.method = method;
          opt.patience = patience;
          opt.iterations = 120;
          const std::string ctx =
              net.name +
              (method == SplitMethod::kGpCondensation ? " gp" : " mirror") +
              " patience=" + std::to_string(patience) +
              (warm_start ? " warm" : " uniform");
          expectSameRun(net, warm_start ? warm : uniform, opt, ctx);
        }
      }
    }
  }
}

TEST(SplittingReference, FullBudgetGeantPlanPool) {
  // The plan workload's exact call: Geant, margin 2, 300 iterations.
  const NetPtr ptr = cornerNet("Geant", topo::makeZoo("Geant"), {}, 2.0);
  const Net& net = *ptr;
  EXPECT_EQ(net.pool->size(), 27);
  SplittingOptions opt;
  opt.iterations = 300;
  expectSameRun(net, RoutingConfig::uniform(net.g, net.dags), opt,
                "Geant 300 iterations");
}

TEST(SplittingReference, SparseDestinationsAreSkipped) {
  // Only edge switches exchange demand on the fat-tree: most destinations
  // have an empty batch and their ratios must pass through untouched
  // (up to the final prune and normalize).
  tm::GravityOptions sparse;
  sparse.top_k = 3;
  sparse.endpoint_prefix = "edge";
  const NetPtr ptr = cornerNet("fattree-k4", topo::fatTree(4), sparse, 2.0);
  const Net& net = *ptr;
  int idle = 0;
  for (NodeId t = 0; t < net.g.numNodes(); ++t) {
    bool any = false;
    for (int i = 0; i < net.pool->size() && !any; ++i) {
      for (NodeId s = 0; s < net.g.numNodes() && !any; ++s) {
        any = s != t && net.pool->matrix(i).at(s, t) > 0.0;
      }
    }
    idle += any ? 0 : 1;
  }
  EXPECT_GT(idle, 0);
  SplittingOptions opt;
  opt.iterations = 60;
  expectSameRun(net, RoutingConfig::uniform(net.g, net.dags), opt,
                "fattree-k4 sparse");
}

}  // namespace
}  // namespace coyote
