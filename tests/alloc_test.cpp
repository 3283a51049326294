// Allocation regression test: the plan hot path must stay off the heap.
//
// This binary replaces the global operator new with a counting one. The
// accessors every optimizer and evaluator loop calls (Graph::edge,
// TrafficMatrix::at, RoutingConfig::ratio) run their precondition checks
// through require(), whose message is a std::string_view: a passing check
// must not allocate. optimizeSplitting allocates its state up front, so
// its allocation count must not depend on the iteration budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "core/dag_builder.hpp"
#include "core/splitting_optimizer.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/zoo.hpp"
#include "util/require.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coyote {
namespace {

/// Allocations made while running fn.
template <typename Fn>
long allocationsDuring(Fn&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Allocations, CounterSeesAllocations) {
  const long n = allocationsDuring([] {
    // Longer than any small-string buffer.
    const std::string s(64, 'x');
    EXPECT_EQ(s.size(), 64u);
  });
  EXPECT_GE(n, 1);
}

TEST(Allocations, AccessorChecksDoNotAllocate) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  const auto cfg = routing::RoutingConfig::uniform(g, dags);
  double sink = 0.0;
  const long n = allocationsDuring([&] {
    for (int rep = 0; rep < 100; ++rep) {
      for (EdgeId e = 0; e < g.numEdges(); ++e) sink += g.edge(e).capacity;
      for (NodeId s = 0; s < g.numNodes(); ++s) {
        for (NodeId t = 0; t < g.numNodes(); ++t) sink += d.at(s, t);
      }
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        for (EdgeId e = 0; e < g.numEdges(); ++e) sink += cfg.ratio(t, e);
      }
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(sink, 0.0);
}

TEST(Allocations, PassingChecksDoNotAllocate) {
  const long n = allocationsDuring([] {
    for (int i = 0; i < 1000; ++i) {
      require(i >= 0, "a precondition message well past the SSO buffer");
      ensure(i < 1000, "an invariant message well past the SSO buffer");
    }
  });
  EXPECT_EQ(n, 0);
}

TEST(Allocations, FailingChecksKeepTheirTypeAndText) {
  try {
    require(false, "edge id out of range");
    FAIL() << "require(false) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "edge id out of range");
  }
  try {
    ensure(false, "positive ratio on edge outside DAG");
    FAIL() << "ensure(false) did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "positive ratio on edge outside DAG");
  }
  const Graph g = topo::makeZoo("Abilene");
  EXPECT_THROW((void)g.edge(g.numEdges()), std::invalid_argument);
}

TEST(Allocations, SplittingLoopAllocatesNothing) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  routing::PerformanceEvaluator pool(g, dags);
  tm::PoolOptions popt;
  popt.random_corners = 6;
  popt.source_hotspots = false;
  popt.max_hotspots = 12;
  pool.addPool(
      tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt));
  const auto init = routing::RoutingConfig::uniform(g, dags);
  auto allocationsAt = [&](int iterations) {
    core::SplittingOptions opt;
    opt.iterations = iterations;
    int used = 0;
    const long n = allocationsDuring(
        [&] { (void)core::optimizeSplitting(g, pool, init, opt, &used); });
    EXPECT_EQ(used, iterations);
    return n;
  };
  const long short_run = allocationsAt(50);
  EXPECT_GT(short_run, 0);  // the up-front state and the result
  EXPECT_EQ(allocationsAt(300), short_run);
}

}  // namespace
}  // namespace coyote
