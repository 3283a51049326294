#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/dag_builder.hpp"
#include "core/splitting_optimizer.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "lp/stats.hpp"
#include "routing/evaluator.hpp"
#include "routing/worst_case.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "tracer.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

using namespace coyote;
namespace json = coyote::util::json;

constexpr int kMaxMultiplicity = 8;         // lie budget per next-hop
constexpr double kRatioFloor = 1.0 - 1e-9;  // no scheme beats the optimum
constexpr double kRelTol = 1e-6;            // LP round-off allowance
constexpr int kSchemeCount = 3;
constexpr const char* kFixedSchemes[kSchemeCount] = {"ecmp", "base",
                                                     "oblivious"};
constexpr const char* kServeOps[] = {"what-if", "demand", "link", "margin",
                                     "reoptimize"};
/// Span-name prefixes: the library's modules, and "bench" for the
/// benchmark's own top-level phases.
constexpr const char* kLayers[] = {"bench",  "topo",    "tm",
                                   "core",   "routing", "scheme",
                                   "fibbing", "serve",  "util"};

// ------------------------------------------------------------ helpers ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double cpuSeconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// FNV-1a over exact bit patterns: two runs agree bit for bit iff their
/// fingerprints match (up to hash collisions).
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void addBytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { addBytes(&v, sizeof v); }
  void add(const std::string& s) { addBytes(s.data(), s.size()); }
  void add(const routing::RoutingConfig& cfg) {
    for (NodeId t = 0; t < cfg.numNodes(); ++t) {
      for (const EdgeId e : cfg.dags()[t].edges()) add(cfg.ratio(t, e));
    }
  }
};

/// The LP counters the per-layer metrics report, summed over intervals
/// (lp::StatsSnapshot deltas) that exclude set-up.
struct LpWork {
  double solves = 0.0, pivots = 0.0, phase1_pivots = 0.0, dual_pivots = 0.0,
         refactorizations = 0.0, decomp_rounds = 0.0, seconds = 0.0;
  void add(const lp::StatsSnapshot& d) {
    solves += static_cast<double>(d.solves);
    pivots += static_cast<double>(d.iterations);
    phase1_pivots += static_cast<double>(d.phase1_iters);
    dual_pivots += static_cast<double>(d.dual_pivots);
    refactorizations += static_cast<double>(d.refactorizations);
    decomp_rounds += static_cast<double>(d.decomp_rounds);
    seconds += d.seconds;
  }
};

const te::Scheme& scheme(const char* key) {
  const te::Scheme* s = te::SchemeRegistry::builtin().find(key);
  if (s == nullptr) throw std::logic_error(std::string("no scheme ") + key);
  return *s;
}

/// Peak-RSS growth across the first run of each probed stage, in the
/// order the stages run (peak RSS only grows, so a later stage shows only
/// what it adds beyond every earlier peak).
struct MemProbe {
  std::map<std::string, double> growth;
  void record(const std::string& stage, double peak_before) {
    growth.emplace(stage, util::peakRssMb() - peak_before);  // first only
  }
  [[nodiscard]] double of(const std::string& stage) const {
    const auto it = growth.find(stage);
    return it == growth.end() ? 0.0 : it->second;
  }
};

// ------------------------------------------------------------- inputs ---

/// The seed perturbs every nonzero base-matrix entry by up to +-5%
/// (zeros, such as fat-tree's top-k sparsity, stay zero), and also picks
/// the corner pool's random corners.
tm::TrafficMatrix seededBase(const Graph& g, bool fattree,
                             std::uint64_t seed) {
  tm::GravityOptions go;
  if (fattree) {
    go.top_k = 8;  // host-aggregated gravity, as the fat-tree scaling ladder
    go.endpoint_prefix = "edge";
  }
  tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0, go);
  std::uint64_t state = seed;
  for (NodeId s = 0; s < g.numNodes(); ++s) {
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (d.at(s, t) <= 0.0) continue;
      const double u = util::rng::nextUnit(state);
      d.set(s, t, d.at(s, t) * (0.95 + 0.1 * u));
    }
  }
  return d;
}

struct Network {
  Graph g;
  tm::TrafficMatrix base;
  std::shared_ptr<const DagSet> dags;
};

std::unique_ptr<Network> buildNetwork(bool fattree, std::uint64_t seed,
                                      Tracer* tr, MemProbe* mem) {
  std::optional<Graph> g;
  {
    Span s(tr, "topo.build");
    g.emplace(fattree ? topo::fatTree(12) : topo::makeZoo("Geant"));
  }
  std::optional<tm::TrafficMatrix> base;
  {
    Span s(tr, "tm.base");
    base.emplace(seededBase(*g, fattree, seed));
  }
  auto net = std::make_unique<Network>(
      Network{std::move(*g), std::move(*base), nullptr});
  {
    const double rss0 = util::peakRssMb();
    Span s(tr, "core.dag");
    net->dags = core::augmentedDagsShared(net->g);
    double edges = 0.0;
    for (const Dag& d : *net->dags) {
      edges += static_cast<double>(d.edges().size());
    }
    s.count("edges", edges);
    if (mem != nullptr) mem->record("dag", rss0);
  }
  return net;
}

// ---------------------------------------------------- plan workloads ---

struct PlanSpec {
  bool fattree = false;
  std::vector<double> margins;
  bool exact_oracle = false;
  core::CoyoteOptions coyote;
  tm::PoolOptions pool;
  /// Extra set-ups before every plan, timed but thrown away, so that the
  /// set-up samples spread over the whole run instead of one burst.
  int setups_per_plan = 1;
};

PlanSpec geantPlanSpec(std::uint64_t seed) {
  PlanSpec s;
  s.margins = {1.5, 2.0, 2.5, 3.0};
  s.exact_oracle = true;
  // The margin sweeps' defaults (exp::SweepOptions, as fig06 runs them).
  s.pool.random_corners = 6;
  s.pool.source_hotspots = false;
  s.pool.max_hotspots = 12;
  s.pool.seed = seed;
  s.coyote.splitting.iterations = 300;
  s.setups_per_plan = 10;  // one set-up takes about half a millisecond
  return s;
}

PlanSpec fattreePlanSpec(std::uint64_t seed) {
  PlanSpec s;
  s.fattree = true;
  s.margins = {2.0};
  // The slave-LP oracle takes about a minute and 1 GiB per plan at this
  // size, so the fat-tree plan stops at the pool ratio.
  s.exact_oracle = false;
  // The scaling ladder's rung options (scaling-fattree-k12).
  s.pool.random_corners = 4;
  s.pool.source_hotspots = false;
  s.pool.max_hotspots = 8;
  s.pool.pair_hotspots = 4;
  s.pool.seed = seed;
  s.coyote.oblivious_pool.source_concentrated = false;
  s.coyote.oblivious_pool.uniform = false;
  s.coyote.oblivious_pool.random_sparse = 4;
  s.coyote.splitting.iterations = 120;
  s.setups_per_plan = 4;
  return s;
}

struct PlanOutcome {
  double margin = 0.0;
  double pk = 0.0, obl = 0.0, ecmp = 0.0, base = 0.0;
  double exact = std::nan("");  ///< NaN when the workload skips the oracle
  int fake_nodes = 0;
  bool realized = false;
  std::uint64_t fingerprint = 0;  ///< pk config and every ratio
};

/// One plan: the margin's corner pool -> OPTU normalisation -> COYOTE-pk
/// -> evaluation of every scheme -> exact certificate -> lies and the
/// OSPF check. Returns the pk configuration through `pk_out`.
PlanOutcome runPlan(const Network& net,
                    const std::vector<routing::RoutingConfig>& fixed,
                    const PlanSpec& spec, double margin, Tracer* tr,
                    MemProbe* mem,
                    std::optional<routing::RoutingConfig>& pk_out) {
  Span plan(tr, "plan");
  PlanOutcome out;
  out.margin = margin;
  const routing::RoutingConfig& ecmp = fixed[0];

  std::optional<tm::DemandBounds> box;
  std::vector<tm::TrafficMatrix> corners;
  {
    Span s(tr, "tm.pool");
    box.emplace(tm::marginBounds(net.base, margin));
    corners = tm::cornerPool(*box, spec.pool);
    s.count("matrices", static_cast<double>(corners.size()));
  }
  routing::PerformanceEvaluator pool(net.g, net.dags, spec.coyote.lp);
  {
    const double rss0 = util::peakRssMb();
    Span s(tr, "routing.optu");
    pool.addPool(corners);
    s.count("matrices", pool.size());
    if (mem != nullptr) mem->record("optu", rss0);
  }

  std::optional<routing::RoutingConfig> pk;
  {
    // The library's COYOTE-pk: core::optimizeAgainstPool, that is the
    // splitting optimizer from uniform splits, then its ECMP guard.
    const double rss0 = util::peakRssMb();
    Span s(tr, "scheme.partial");
    const te::SchemeContext ctx{net.g, net.dags, net.base, spec.coyote,
                                &*box, &pool};
    pk.emplace(scheme("partial").compute(ctx));
    if (mem != nullptr) mem->record("split", rss0);
  }
  {
    Span s(tr, "routing.eval");
    out.pk = pool.ratioFor(*pk);
    out.ecmp = pool.ratioFor(ecmp);
    out.base = pool.ratioFor(fixed[1]);
    out.obl = pool.ratioFor(fixed[2]);
    s.count("calls", 4);
  }
  if (spec.exact_oracle) {
    Span s(tr, "routing.oracle");
    routing::WorstCaseOracle oracle(net.g, net.dags, &*box, spec.coyote.lp);
    out.exact = oracle.find(*pk).ratio;
  }

  fib::OspfModel model(net.g);
  {
    Span s(tr, "fibbing.lies");
    for (NodeId t = 0; t < net.g.numNodes(); ++t) {
      model.advertisePrefix(t, t);
      const fib::LiePlan lies =
          fib::synthesizeLies(net.g, *pk, t, t, kMaxMultiplicity);
      fib::applyPlan(model, lies);
      out.fake_nodes += lies.fake_nodes;
    }
    s.count("fake_nodes", out.fake_nodes);
  }
  {
    Span s(tr, "fibbing.verify");
    out.realized = true;
    for (NodeId t = 0; t < net.g.numNodes(); ++t) {
      out.realized = out.realized &&
                     fib::verifyRealization(model, *pk, t, t,
                                            kMaxMultiplicity) &&
                     model.forwardingIsLoopFree(t);
    }
  }

  Fingerprint fp;
  fp.add(*pk);
  for (const double r : {out.pk, out.obl, out.ecmp, out.base, out.exact}) {
    fp.add(r);
  }
  out.fingerprint = fp.h;
  pk_out = std::move(pk);
  return out;
}

/// COYOTE-pk's splitting optimizer runs inside Scheme::compute, where no
/// span reaches it. This probe calls core::optimizeSplitting once per
/// margin, from uniform splits as optimizeAgainstPool does, under a tracer
/// of its own: it runs after the traced pass, in neither pass's wall time.
std::vector<SpanRecord> splitProbe(const Network& net, const PlanSpec& spec) {
  Tracer tr;
  for (const double m : spec.margins) {
    const tm::DemandBounds box = tm::marginBounds(net.base, m);
    routing::PerformanceEvaluator pool(net.g, net.dags, spec.coyote.lp);
    pool.addPool(tm::cornerPool(box, spec.pool));
    Span s(&tr, "core.split");
    int used = 0;
    (void)core::optimizeSplitting(
        net.g, pool, routing::RoutingConfig::uniform(net.g, net.dags),
        spec.coyote.splitting, &used);
    s.count("iters", used);
  }
  return tr.spans();
}

bool validConfig(const Graph& g, const routing::RoutingConfig& cfg) {
  try {
    cfg.validate(g);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void checkPlan(const Network& net, const routing::RoutingConfig& pk,
               const PlanOutcome& o, Checks& ck) {
  const std::string at = " (margin " + json::formatNumber(o.margin) + ")";
  ck.expect(validConfig(net.g, pk), "pk config fails validate" + at);
  ck.expect(o.pk <= o.ecmp * (1.0 + kRelTol), "pk worse than ECMP" + at);
  for (const double r : {o.pk, o.obl, o.ecmp, o.base}) {
    ck.expect(std::isfinite(r) && r >= kRatioFloor, "pool ratio below 1" + at);
  }
  if (!std::isnan(o.exact)) {
    ck.expect(o.exact >= kRatioFloor, "exact ratio below 1" + at);
    ck.expect(o.exact >= o.pk * (1.0 - kRelTol),
              "exact ratio below the pool ratio" + at);
  }
  ck.expect(o.realized, "OSPF model does not realize the lies" + at);
}

/// What every pass measures. Its units are plans or daemon events.
struct PassStats {
  std::vector<double> setup_s;
  std::vector<double> unit_s;  ///< per unit, in order
  /// One per plan or replay: the untraced and traced passes must agree.
  std::vector<std::uint64_t> fingerprints;
  double replays = 1.0;  ///< daemon replays; 1 on plan workloads
  double wall_s = 0.0;   ///< the whole pass
  double units_wall_s = 0.0;
  double units_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  LpWork units_lp;
};

struct PlanPass : PassStats {
  std::unique_ptr<Network> net;
  std::vector<routing::RoutingConfig> fixed;  ///< ecmp, base, oblivious
  std::vector<PlanOutcome> plans;
  int sweeps = 0;
};

/// A set-up, the margin-independent schemes once, then whole sweeps over
/// the margin grid: until `seconds` have passed since the schemes started
/// (sweeps < 0), or exactly `sweeps` of them. Every plan is preceded by
/// spec.setups_per_plan more set-ups, whose networks are thrown away.
PlanPass runPlanPass(const PlanSpec& spec, std::uint64_t seed, double seconds,
                     int sweeps, Tracer* tr, MemProbe* mem, Checks& ck) {
  PlanPass p;
  const Clock::time_point t_pass = Clock::now();
  const auto setup = [&] {
    Span s(tr, "setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Network> net = buildNetwork(spec.fattree, seed, tr, mem);
    p.setup_s.push_back(secondsBetween(t0, Clock::now()));
    return net;
  };
  p.net = setup();
  const Network& net = *p.net;

  const Clock::time_point t_measure = Clock::now();
  {
    Span s(tr, "schemes");
    const te::SchemeContext ctx{net.g, net.dags, net.base, spec.coyote,
                                nullptr, nullptr};
    for (const char* key : kFixedSchemes) {
      const double rss0 = util::peakRssMb();
      Span sk(tr, std::string("scheme.") + key);
      p.fixed.push_back(scheme(key).compute(ctx));
      if (mem != nullptr && std::string(key) == "oblivious") {
        mem->record("oblivious", rss0);
      }
    }
  }
  for (int i = 0; i < kSchemeCount; ++i) {
    ck.expect(validConfig(net.g, p.fixed[i]),
              std::string(kFixedSchemes[i]) + " config fails validate");
  }

  const std::size_t grid = spec.margins.size();
  do {
    for (const double m : spec.margins) {
      for (int r = 0; r < spec.setups_per_plan; ++r) setup();
      std::optional<routing::RoutingConfig> pk;
      const lp::StatsSnapshot lp0 = lp::statsSnapshot();
      const double cpu0 = cpuSeconds();
      const Clock::time_point t0 = Clock::now();
      const PlanOutcome o = runPlan(net, p.fixed, spec, m, tr, mem, pk);
      const double dt = secondsBetween(t0, Clock::now());
      p.units_cpu_s += cpuSeconds() - cpu0;
      p.units_lp.add(lp::statsSnapshot() - lp0);
      p.unit_s.push_back(dt);
      p.units_wall_s += dt;
      Span s(tr, "check");
      checkPlan(net, *pk, o, ck);
      if (p.plans.size() >= grid) {
        ck.expect(o.fingerprint == p.plans[p.plans.size() - grid].fingerprint,
                  "a repeated plan differs from the first one");
      }
      p.plans.push_back(o);
      p.fingerprints.push_back(o.fingerprint);
    }
    ++p.sweeps;
  } while (sweeps < 0 ? secondsBetween(t_measure, Clock::now()) < seconds
                      : p.sweeps < sweeps);
  p.peak_rss_mb = util::peakRssMb();
  p.wall_s = secondsBetween(t_pass, Clock::now());
  return p;
}

// ---------------------------------------------------- daemon workload ---

struct DaemonSpec {
  serve::ServeOptions serve;
  serve::TraceOptions trace;
  /// Set-ups before every replay; the last one serves the replay. About
  /// half a second each, so three keep the run short.
  int setups_per_replay = 3;
};

DaemonSpec geantDaemonSpec(std::uint64_t seed) {
  DaemonSpec s;
  s.serve.margin = 2.0;
  s.serve.pool.seed = seed;
  s.serve.coyote.splitting.iterations = 150;  // as serve-geant-500
  // generateTrace's default mix, as serve-geant-500 replays it: 40%
  // what-if reads, 60% state changes. The script's shape (which ops,
  // which links, which margins) is the same for every seed: drawn per
  // seed, 120 events vary the per-event cost by a third between seeds.
  // The seed still sets every demand event's value through the base
  // matrix, and the pool's random corners.
  s.trace.events = 120;
  s.trace.seed = 1;
  return s;
}

/// The trace, then a restore of every link it leaves down, then a what-if
/// with no extra failure: its ratios are the intact daemon's state after
/// the trace (under failures a repaired scheme may be unroutable).
std::vector<std::string> replayScript(const Graph& g,
                                      const tm::TrafficMatrix& base,
                                      const serve::TraceOptions& opt) {
  std::vector<std::string> lines = serve::generateTrace(g, base, opt);
  std::vector<std::string> down;  // link members, dumped
  for (const std::string& line : lines) {
    const json::Value req = json::parse(line);
    if (req.stringOr("op", "") != "link") continue;
    const std::string link = req.find("link")->dump(0);
    const auto it = std::find(down.begin(), down.end(), link);
    if (req.find("up")->asBool()) {
      if (it != down.end()) down.erase(it);
    } else if (it == down.end()) {
      down.push_back(link);
    }
  }
  for (const std::string& link : down) {
    lines.push_back(R"({"op":"link","link":)" + link + R"(,"up":true})");
  }
  lines.emplace_back(R"({"op":"what-if","links":[]})");
  return lines;
}

struct ReplayOutcome {
  double pk = 0.0, obl = 0.0, ecmp = 0.0;  ///< from the final probe
  double worst_pk = 0.0;  ///< worst partial ratio over every response
};

struct DaemonPass : PassStats {
  std::map<std::string, std::vector<double>> op_latency_s;
  std::vector<ReplayOutcome> outcomes;  ///< one per replay
  std::size_t script_len = 0;
};

/// Ratios of one response's "ratios" object (non-finite values, which
/// the protocol writes as tagged strings, decode to +-inf / NaN).
std::map<std::string, double> responseRatios(const json::Value& resp) {
  std::map<std::string, double> out;
  const json::Value* r = resp.find("ratios");
  if (r == nullptr || !r->isObject()) return out;
  for (const json::Member& m : r->asObject()) {
    double v = 0.0;
    if (json::decodeNumber(m.second, &v)) out[m.first] = v;
  }
  return out;
}

/// Whole replays of the seeded trace, each on a freshly constructed
/// daemon, until `seconds` of event handling have passed (replays < 0)
/// or exactly `replays` of them.
DaemonPass runDaemonPass(const DaemonSpec& spec, std::uint64_t seed,
                         double seconds, int replays, Tracer* tr,
                         MemProbe* mem, Checks& ck) {
  DaemonPass p;
  const Clock::time_point t_pass = Clock::now();
  std::vector<std::string> lines;
  std::unique_ptr<Network> net;
  std::unique_ptr<serve::TeService> svc;
  const auto setup = [&] {
    svc.reset();  // the previous daemon's teardown is not set-up
    Span s(tr, "setup");
    const Clock::time_point t0 = Clock::now();
    net = buildNetwork(false, seed, tr, mem);
    Span ss(tr, "serve.setup");
    svc = std::make_unique<serve::TeService>(net->g, net->base, spec.serve);
    p.setup_s.push_back(secondsBetween(t0, Clock::now()));
  };

  do {
    for (int r = 0; r < spec.setups_per_replay; ++r) setup();
    if (lines.empty()) {
      lines = replayScript(net->g, net->base, spec.trace);
      p.script_len = lines.size();
    }
    const double cpu0 = cpuSeconds();
    const lp::StatsSnapshot lp0 = lp::statsSnapshot();
    ReplayOutcome rep;
    Fingerprint fp;  // every response, byte for byte
    std::map<std::string, double> last;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Span ev(tr, "event", static_cast<long long>(i));
      std::string op;
      {
        Span s(tr, "util.json");
        op = json::parse(lines[i]).stringOr("op", "");
      }
      const long long saved0 = svc->reoptimizeSavedIters();
      const Clock::time_point t0 = Clock::now();
      std::string resp;
      {
        Span s(tr, "serve." + op);
        resp = svc->handleLine(lines[i]);
        if (op == "reoptimize") {
          s.count("iters_saved",
                  static_cast<double>(svc->reoptimizeSavedIters() - saved0));
        }
      }
      const double dt = secondsBetween(t0, Clock::now());
      p.unit_s.push_back(dt);
      p.op_latency_s[op].push_back(dt);
      p.units_wall_s += dt;
      fp.add(resp);
      Span s(tr, "util.json");
      const json::Value r = json::parse(resp);
      const json::Value* ok = r.find("ok");
      ck.expect(ok != nullptr && ok->isBool() && ok->asBool(),
                "daemon response " + std::to_string(i) + " has ok:false");
      last = responseRatios(r);
      bool ratios_ok = true;
      for (const auto& [key, v] : last) {
        if (!std::isfinite(v)) continue;  // listed as unroutable
        ratios_ok = ratios_ok && v >= kRatioFloor;
        if (key == "partial") rep.worst_pk = std::max(rep.worst_pk, v);
      }
      ck.expect(ratios_ok, "daemon response " + std::to_string(i) +
                               " has a ratio below 1");
    }
    p.units_cpu_s += cpuSeconds() - cpu0;
    p.units_lp.add(lp::statsSnapshot() - lp0);
    rep.pk = last.count("partial") ? last["partial"] : std::nan("");
    rep.obl = last.count("oblivious") ? last["oblivious"] : std::nan("");
    rep.ecmp = last.count("ecmp") ? last["ecmp"] : std::nan("");
    ck.expect(std::isfinite(rep.pk) && std::isfinite(rep.obl) &&
                  std::isfinite(rep.ecmp),
              "the final probe lacks a finite pk/obl/ecmp ratio");
    if (!p.fingerprints.empty()) {
      ck.expect(fp.h == p.fingerprints.front(),
                "a replay's responses differ from the first replay's");
    }
    p.fingerprints.push_back(fp.h);
    p.outcomes.push_back(rep);
  } while (replays < 0 ? p.units_wall_s < seconds
                       : static_cast<int>(p.outcomes.size()) < replays);
  p.replays = static_cast<double>(p.outcomes.size());
  p.peak_rss_mb = util::peakRssMb();
  p.wall_s = secondsBetween(t_pass, Clock::now());
  return p;
}

// ----------------------------------------------------------- metrics ---

/// Per-name totals over a traced pass.
struct SpanTotals {
  std::vector<double> seconds;
  double lp_pivots = 0.0;
  std::map<std::string, double> counters;
};

std::map<std::string, SpanTotals> totalsByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    t.seconds.push_back(s.seconds());
    t.lp_pivots += static_cast<double>(s.lp.iterations);
    for (const auto& [k, v] : s.counters) t.counters[k] += v;
  }
  return out;
}

/// A layer is the span name's module prefix; bare names are the
/// benchmark's own phases.
std::string layerOf(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

/// Self time per layer: each span's duration minus its children's.
std::map<std::string, double> selfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.seconds();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layerOf(spans[i].name)] += spans[i].seconds() - child[i];
  }
  return out;
}

double topLevelSeconds(const std::vector<SpanRecord>& spans) {
  double s = 0.0;
  for (const SpanRecord& r : spans) {
    if (r.parent < 0) s += r.seconds();
  }
  return s;
}

/// The per-layer metrics: spans and LP work from the traced pass, plus the
/// splitting probe's spans (none on the daemon); memory and CPU from the
/// untraced pass.
std::vector<Metric> perLayerMetrics(const std::vector<SpanRecord>& spans,
                                    const std::vector<SpanRecord>& probe,
                                    const PassStats& untraced,
                                    const PassStats& traced,
                                    const MemProbe& mem) {
  std::vector<SpanRecord> all = spans;
  all.insert(all.end(), probe.begin(), probe.end());
  const std::map<std::string, SpanTotals> by = totalsByName(all);
  const double units = static_cast<double>(traced.unit_s.size());
  const double setups = static_cast<double>(traced.setup_s.size());
  const auto get = [&](const std::string& n) -> const SpanTotals* {
    const auto it = by.find(n);
    return it == by.end() ? nullptr : &it->second;
  };
  const auto perSetup = [&](const std::string& n) {
    const SpanTotals* t = get(n);
    return t ? sum(t->seconds) / setups : 0.0;
  };
  const auto perUnit = [&](const std::string& n) {
    const SpanTotals* t = get(n);
    return t ? sum(t->seconds) / units : 0.0;
  };
  const auto counterPer = [&](const std::string& n, const std::string& key,
                              double per) {
    const SpanTotals* t = get(n);
    if (t == nullptr) return 0.0;
    const auto it = t->counters.find(key);
    return it == t->counters.end() ? 0.0 : it->second / per;
  };
  const auto pivotsPer = [&](const std::string& n, double per) {
    const SpanTotals* t = get(n);
    return t ? t->lp_pivots / per : 0.0;
  };
  const auto perCall = [&](const std::string& n) {
    const SpanTotals* t = get(n);
    return t ? sum(t->seconds) / static_cast<double>(t->seconds.size())
             : 0.0;
  };
  const auto callsOf = [&](const std::string& n) {
    const SpanTotals* t = get(n);
    return t ? static_cast<double>(t->seconds.size()) : 1.0;
  };

  std::vector<Metric> m;
  m.push_back({"topo.build_s", perSetup("topo.build"), "s"});
  m.push_back({"core.dag_s", perSetup("core.dag"), "s"});
  m.push_back({"core.dag_edges", counterPer("core.dag", "edges", setups),
               "count"});
  m.push_back({"tm.pool_s", perUnit("tm.pool"), "s"});
  m.push_back({"tm.pool_matrices", counterPer("tm.pool", "matrices", units),
               "count"});
  m.push_back({"routing.optu_s", perUnit("routing.optu"), "s"});
  m.push_back({"routing.optu_matrices",
               counterPer("routing.optu", "matrices", units), "count"});
  m.push_back({"core.split_s", perCall("core.split"), "s"});
  m.push_back({"core.split_iters",
               counterPer("core.split", "iters", callsOf("core.split")),
               "count"});
  m.push_back({"routing.eval_s", perUnit("routing.eval"), "s"});
  m.push_back({"routing.eval_calls",
               counterPer("routing.eval", "calls", units), "count"});
  m.push_back({"routing.oracle_s", perUnit("routing.oracle"), "s"});
  m.push_back({"routing.oracle_lp_pivots",
               pivotsPer("routing.oracle", units), "count"});
  m.push_back({"fibbing.lies_s", perUnit("fibbing.lies"), "s"});
  m.push_back({"fibbing.verify_s", perUnit("fibbing.verify"), "s"});
  m.push_back({"fibbing.fake_nodes",
               counterPer("fibbing.lies", "fake_nodes", units), "count"});
  for (const char* key : {"ecmp", "base", "oblivious", "partial"}) {
    const std::string n = std::string("scheme.") + key;
    m.push_back({n + ".s", perCall(n), "s"});
    m.push_back({n + ".lp_pivots", pivotsPer(n, callsOf(n)), "count"});
  }
  const LpWork& lp = traced.units_lp;
  m.push_back({"lp.solves", lp.solves / units, "count"});
  m.push_back({"lp.pivots", lp.pivots / units, "count"});
  m.push_back({"lp.phase1_pivots", lp.phase1_pivots / units, "count"});
  m.push_back({"lp.dual_pivots", lp.dual_pivots / units, "count"});
  m.push_back({"lp.refactorizations", lp.refactorizations / units, "count"});
  m.push_back({"lp.decomp_rounds", lp.decomp_rounds / units, "count"});
  m.push_back({"lp.time_s", lp.seconds / units, "s"});
  for (const char* stage : {"dag", "optu", "split", "oblivious"}) {
    m.push_back({std::string("mem.") + stage + "_mb", mem.of(stage), "MiB"});
  }
  m.push_back({"util.cpu_s", untraced.units_cpu_s / units, "s"});
  m.push_back({"util.cpu_per_wall",
               untraced.units_cpu_s / untraced.units_wall_s, "ratio"});
  m.push_back({"util.threads",
               static_cast<double>(util::ThreadPool::global().threadCount()),
               "count"});
  for (const char* op : kServeOps) {
    const std::string n = std::string("serve.") + op;
    const SpanTotals* t = get(n);
    const double calls = t ? static_cast<double>(t->seconds.size()) : 0.0;
    m.push_back({n + ".p50_ms", t ? 1000.0 * median(t->seconds) : 0.0, "ms"});
    m.push_back({n + ".count", calls / traced.replays, "count"});
    m.push_back({n + ".lp_pivots", calls > 0 ? pivotsPer(n, calls) : 0.0,
                 "count"});
  }
  {
    const SpanTotals* t = get("serve.reoptimize");
    m.push_back({"serve.reoptimize.iters_saved",
                 t ? counterPer("serve.reoptimize", "iters_saved",
                                static_cast<double>(t->seconds.size()))
                   : 0.0,
                 "count"});
  }
  m.push_back({"util.json_s", perUnit("util.json"), "s"});

  const std::map<std::string, double> self = selfTimeByLayer(spans);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    m.push_back({std::string("self.") + layer + "_frac",
                 it == self.end() ? 0.0 : it->second / traced.wall_s,
                 "frac"});
  }
  m.push_back({"trace.coverage", topLevelSeconds(spans) / traced.wall_s,
               "frac"});
  m.push_back({"trace.overhead_frac",
               traced.wall_s / untraced.wall_s - 1.0, "frac"});
  return m;
}

void writeTrace(const std::string& path, const RunOptions& opt,
                const std::vector<SpanRecord>& spans) {
  json::Value doc = json::Value::object();
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<double>(opt.seed);
  json::Value arr = json::Value::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    json::Value v = json::Value::object();
    v["id"] = static_cast<double>(i);
    v["parent"] = s.parent;
    v["name"] = s.name;
    if (s.request >= 0) v["request"] = static_cast<double>(s.request);
    v["start_s"] = s.start_s;
    v["end_s"] = s.end_s;
    v["lp_solves"] = static_cast<double>(s.lp.solves);
    v["lp_pivots"] = static_cast<double>(s.lp.iterations);
    if (!s.counters.empty()) {
      json::Value c = json::Value::object();
      for (const auto& [k, val] : s.counters) c[k] = val;
      v["counters"] = std::move(c);
    }
    arr.push_back(std::move(v));
  }
  doc["spans"] = std::move(arr);
  std::ofstream out(path);
  out << doc.dump(0) << "\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::string fmt(double v) { return json::formatNumber(v); }

/// Folds the traced pass into the result: the bit-for-bit comparison with
/// the untraced pass, span coverage, the per-layer metrics, the report's
/// self-time notes and the trace file.
void addTracedRun(const RunOptions& opt, const Tracer& tracer,
                  const std::vector<SpanRecord>& probe,
                  const PassStats& untraced, const PassStats& traced,
                  const MemProbe& mem, RunResult& res) {
  res.checks.expect(traced.fingerprints == untraced.fingerprints,
                    "the traced run differs from the untraced run");
  res.checks.expect(topLevelSeconds(tracer.spans()) >= 0.9 * traced.wall_s,
                    "top-level spans cover under 90% of the traced run");
  res.per_layer =
      perLayerMetrics(tracer.spans(), probe, untraced, traced, mem);
  if (!opt.trace_out.empty()) writeTrace(opt.trace_out, opt, tracer.spans());

  std::ostringstream self;
  self << "self time per layer (share of traced wall):";
  double fib = 0.0;
  double json_share = 0.0;
  for (const Metric& mt : res.per_layer) {
    if (mt.name.rfind("self.", 0) == 0) {
      self << " " << mt.name.substr(5, mt.name.size() - 10) << "="
           << fmt(std::round(mt.value * 1e4) / 1e4);
    }
    if (mt.name == "self.fibbing_frac") fib = mt.value;
    if (mt.name == "self.util_frac") json_share = mt.value;
  }
  res.notes.push_back(self.str());
  res.notes.push_back("predicted negligible: fibbing " +
                      fmt(std::round(fib * 1e4) / 100) + "% and util.json " +
                      fmt(std::round(json_share * 1e4) / 100) +
                      "% of traced wall time");
}

// ---------------------------------------------------------- reference ---

/// This seed's entry of the reference file, or null.
const json::Value* referenceFor(const json::Value& doc, const RunOptions& opt) {
  const json::Value* w = doc.find(opt.workload);
  return w == nullptr ? nullptr : w->find(std::to_string(opt.seed));
}

/// Quality may improve on the reference but not get worse than it
/// (lower is better); ECMP is fixed by the link weights, so it must match.
void compareReference(const json::Value& got, const json::Value& want,
                      Checks& ck) {
  for (const json::Member& m : want.asObject()) {
    const json::Value* g = got.find(m.first);
    if (g == nullptr) {
      ck.expect(false, "reference field missing: " + m.first);
      continue;
    }
    const auto a = m.second.isArray() ? m.second.asArray()
                                      : json::Array{m.second};
    const auto b = g->isArray() ? g->asArray() : json::Array{*g};
    if (a.size() != b.size()) {
      ck.expect(false, "reference length differs: " + m.first);
      continue;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double ref = a[i].asNumber();
      const double val = b[i].asNumber();
      const bool ok = (m.first == "ecmp")
                          ? std::abs(val - ref) <= kRelTol * ref
                          : val <= ref * (1.0 + kRelTol);
      ck.expect(ok, m.first + " " + fmt(val) + " vs reference " + fmt(ref));
    }
  }
}

json::Value numberArray(const std::vector<double>& v) {
  json::Value a = json::Value::array();
  for (const double x : v) a.push_back(x);
  return a;
}

// ---------------------------------------------------------- runners ---

void addEndToEnd(RunResult& res, const PassStats& p, double plan_s, double pk,
                 double obl, double pk_exact) {
  std::vector<double> ms;
  for (const double s : p.unit_s) ms.push_back(1000.0 * s);
  res.end_to_end = {
      {"setup_s", median(p.setup_s), "s"},
      {"plan_s", plan_s, "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MiB"},
      {"pk_pool_ratio", pk, "ratio"},
      {"obl_pool_ratio", obl, "ratio"},
      {"pk_exact_ratio", pk_exact, "ratio"},
      {"events_per_s", static_cast<double>(ms.size()) / p.units_wall_s,
       "1/s"},
      {"event_p50_ms", percentile(ms, 0.5), "ms"},
      {"event_p90_ms", percentile(ms, 0.9), "ms"},
  };
}

RunResult runPlanWorkload(const RunOptions& opt, const PlanSpec& spec,
                          const json::Value* reference) {
  RunResult res;
  MemProbe mem;
  PlanPass p = runPlanPass(spec, opt.seed, opt.seconds, -1, nullptr, &mem,
                           res.checks);
  const std::size_t grid = spec.margins.size();

  std::vector<double> pk, obl, ecmp, exact;
  for (std::size_t i = 0; i < grid; ++i) {
    pk.push_back(p.plans[i].pk);
    obl.push_back(p.plans[i].obl);
    ecmp.push_back(p.plans[i].ecmp);
    if (spec.exact_oracle) exact.push_back(p.plans[i].exact);
  }
  addEndToEnd(res, p, median(p.unit_s), mean(pk), mean(obl),
              spec.exact_oracle ? mean(exact) : mean(pk));

  res.reference_entry = json::Value::object();
  res.reference_entry["pk"] = numberArray(pk);
  res.reference_entry["obl"] = numberArray(obl);
  res.reference_entry["ecmp"] = numberArray(ecmp);
  if (spec.exact_oracle) res.reference_entry["exact"] = numberArray(exact);
  if (reference != nullptr) {
    compareReference(res.reference_entry, *reference, res.checks);
  }

  res.notes.push_back(std::to_string(p.plans.size()) + " plans in " +
                      std::to_string(p.sweeps) + " sweep(s) of " +
                      std::to_string(grid) + " margin(s); " +
                      std::to_string(p.setup_s.size()) + " set-ups");
  if (!spec.exact_oracle) {
    res.notes.push_back(
        "pk_exact_ratio: no slave-LP oracle at this size; reports the pool "
        "ratio");
  }

  if (opt.trace) {
    Tracer tracer;
    const PlanPass t = runPlanPass(spec, opt.seed, opt.seconds, p.sweeps,
                                   &tracer, nullptr, res.checks);
    addTracedRun(opt, tracer, splitProbe(*t.net, spec), p, t, mem, res);
  }
  return res;
}

RunResult runDaemonWorkload(const RunOptions& opt, const DaemonSpec& spec,
                            const json::Value* reference) {
  RunResult res;
  MemProbe mem;
  DaemonPass p = runDaemonPass(spec, opt.seed, opt.seconds, -1, nullptr, &mem,
                               res.checks);
  const ReplayOutcome& first = p.outcomes.front();
  const auto reopt = p.op_latency_s.find("reoptimize");
  const double plan_s =
      reopt == p.op_latency_s.end() ? 0.0 : median(reopt->second);
  res.checks.expect(plan_s > 0.0, "the trace holds no reoptimize event");
  addEndToEnd(res, p, plan_s, first.pk, first.obl, first.worst_pk);

  res.reference_entry = json::Value::object();
  res.reference_entry["pk"] = first.pk;
  res.reference_entry["obl"] = first.obl;
  res.reference_entry["worst_pk"] = first.worst_pk;
  res.reference_entry["ecmp"] = first.ecmp;
  if (reference != nullptr) {
    compareReference(res.reference_entry, *reference, res.checks);
  }
  res.notes.push_back(std::to_string(p.unit_s.size()) + " events in " +
                      std::to_string(p.outcomes.size()) + " replay(s) of " +
                      std::to_string(p.script_len) + "; " +
                      std::to_string(p.setup_s.size()) + " set-ups");
  res.notes.push_back(
      "plan_s: median reoptimize event; pk_exact_ratio: worst COYOTE-pk "
      "ratio over every response");

  if (opt.trace) {
    Tracer tracer;
    const DaemonPass t =
        runDaemonPass(spec, opt.seed, opt.seconds,
                      static_cast<int>(p.outcomes.size()), &tracer, nullptr,
                      res.checks);
    addTracedRun(opt, tracer, {}, p, t, mem, res);
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = {
      "geant-plan", "fattree-k12-plan", "geant-daemon"};
  return kNames;
}

RunResult runWorkload(const RunOptions& opt) {
  json::Value ref_doc;
  const json::Value* reference = nullptr;
  if (!opt.reference_path.empty()) {
    std::ifstream in(opt.reference_path);
    if (!in) {
      throw std::runtime_error("cannot read reference " + opt.reference_path);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    ref_doc = json::parse(ss.str());
    reference = referenceFor(ref_doc, opt);
  }

  RunResult res;
  if (opt.workload == "geant-plan") {
    res = runPlanWorkload(opt, geantPlanSpec(opt.seed), reference);
  } else if (opt.workload == "fattree-k12-plan") {
    res = runPlanWorkload(opt, fattreePlanSpec(opt.seed), reference);
  } else if (opt.workload == "geant-daemon") {
    res = runDaemonWorkload(opt, geantDaemonSpec(opt.seed), reference);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  res.notes.push_back(reference != nullptr
                          ? "ratios checked against the committed reference"
                          : "no committed reference for this seed");
  return res;
}

}  // namespace perfbench
