// The benchmark's workloads: each drives the COYOTE library from outside,
// through its public functions only, on inputs generated from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Committed per-seed ratios (perfbench/reference.json); empty = none.
  std::string reference_path;
  /// Where the traced pass writes its spans; empty = not written.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations and correctness checks of one run; error_rate is
/// failed / attempted.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void expect(bool ok, const std::string& what);
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled by traced runs only
  Checks checks;
  std::vector<std::string> notes;  ///< human-readable report lines
  /// This seed's ratios in the reference file's format.
  coyote::util::json::Value reference_entry;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult runWorkload(const RunOptions& opt);

}  // namespace perfbench
