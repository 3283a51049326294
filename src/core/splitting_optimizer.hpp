// In-DAG traffic-splitting optimization (Sec. V-C, Appendix C).
//
// Inner problem: given per-destination DAGs and a finite set T of demand
// matrices normalized to OPTU == 1, minimize the worst link utilization
//
//     R(phi) = max over (D in T, edge e) of load_e(phi, D) / c(e).
//
// Every load is a posynomial in phi, so R is convex in the log-variables
// phi~ = log phi (a max of log-sum-exps) -- the geometric-programming
// structure the paper exploits. We solve it with exact reverse-mode
// gradients through the flow propagation (the adjoint recursion
// mu_t(u) = sum over DAG edges e=(u,v) of phi_t(e) * (G(e) + mu_t(v)),
// dObj/dphi_t(u,v) = F_t(u) * (G(e) + mu_t(v))) and two interchangeable
// first-order schemes:
//
//  * kGpCondensation -- the paper's approach: gradient steps on the
//    softmax-smoothed objective in log space, renormalizing each
//    (node,destination) splitting vector after every step. Renormalization
//    is exactly the fixed point of the monomial approximation of the
//    simplex constraint sum(phi) = 1 (Appendix C), iterated per step.
//  * kMirrorDescent -- exponentiated-gradient (multiplicative-weights)
//    updates in phi space, which keep each splitting vector on the simplex
//    by construction.
//
// Both recover the closed-form optimum of the paper's running example
// (golden-ratio splits; Appendix B) -- enforced by unit tests.
//
// Hot-path layout (docs/splitting.md). Each call builds a destination-major
// slot arena once, at O(DAG edges) cost: per destination t, its DAG tails
// in topological order, each owning a run of slots (edge id, head node)
// for its out-edges; phi and the gradient live per slot, capacities in a
// flat array. Each destination batches only the pool matrices with demand
// toward it (destinations with none are skipped), and its forward and
// backward sweeps handle the whole batch at once through a [node][matrix]
// inflow/adjoint block; loads, softmax weights and G = w / (wsum * c) sit
// in [edge][matrix] blocks, with G computed once per iteration. Every
// per-(matrix, edge) and per-(destination, edge) sum keeps the order of a
// per-matrix propagation, so results are bit-identical to the per-matrix
// oracle in tests/splitting_reference.hpp. The loop runs on the calling
// thread and allocates nothing after setup; precondition checks on the
// accessors it calls must not allocate either (util/require.hpp).
#pragma once

#include "routing/evaluator.hpp"

namespace coyote::core {

enum class SplitMethod { kGpCondensation, kMirrorDescent };

struct SplittingOptions {
  SplitMethod method = SplitMethod::kGpCondensation;
  int iterations = 600;
  double learning_rate = 0.35;
  /// Softmax temperature as a fraction of the current max utilization;
  /// annealed linearly to temperature_end over the run.
  double temperature_start = 0.15;
  double temperature_end = 0.003;
  /// Ratios below this are clamped (and renormalized) at the end; keeps the
  /// configurations implementable with few virtual links.
  double prune_below = 1e-4;
  /// Early stop: break out when the best pool utilization has not improved
  /// for this many consecutive iterations. 0 (the sweep default) runs the
  /// full budget; the serve daemon sets it so a warm-seeded `reoptimize`
  /// converges in a fraction of the budget (the skipped iterations are
  /// reported via the `iterations_used` out-param).
  int patience = 0;
};

/// Optimizes splitting ratios against the evaluator's pool, starting from
/// `init` (commonly RoutingConfig::uniform). Returns the best configuration
/// seen, by exact pool ratio. When `iterations_used` is non-null it receives
/// the number of forward/backward iterations actually executed (less than
/// opt.iterations when patience stopped early).
[[nodiscard]] routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt = {},
    int* iterations_used = nullptr);

}  // namespace coyote::core
