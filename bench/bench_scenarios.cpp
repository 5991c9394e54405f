// Scenario-matrix bench: every method across the deployment-scenario catalog.
//
// Runs the scenario × method cross product through the evaluation harness
// (scenario/harness.h) and writes BENCH_scenarios.json — the per-PR tracked
// artifact with one row per cell: accuracy, forgetting, pseudo-label
// accuracy, shed segments, peak pool bytes, wall time. Accuracy levels are
// informational; the exit status is the number of scenario::matrix_failures
// (a missing cell, a non-finite metric, lost segments, or a mem_pressure
// pair whose int8 cache compresses < 3.5x, admits fewer sessions than fp32
// or strays > 20 points from its accuracy). This is the only binary
// that runs the matrix; CI runs it on a reduced matrix.
//
// Knobs:
//   DECO_SCENARIOS = comma list (default: the full built-in catalog)
//   DECO_METHODS   = comma list (default: every method in the matrix)
//   DECO_SEGMENTS  = per-session stream length override
//   DECO_SEED      = cell seed (default 1)
//   DECO_BENCH_SCALE = quick | full (full: longer streams, deeper updates)
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "deco/core/thread_pool.h"
#include "deco/eval/report.h"
#include "deco/scenario/harness.h"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main() {
  using namespace deco;

  const bool full = eval::full_scale();
  scenario::HarnessOptions options;
  options.seed = static_cast<uint64_t>(eval::env_int("DECO_SEED", 1));
  options.segments = eval::env_int("DECO_SEGMENTS", full ? 24 : 0);
  if (full) {
    options.model_update_epochs = 10;
    options.pretrain_epochs = 20;
    options.test_per_class = 25;
    options.condenser_iterations = 5;
  }

  std::vector<scenario::ScenarioSpec> scenarios;
  const char* sc_env = std::getenv("DECO_SCENARIOS");
  if (sc_env != nullptr && *sc_env != '\0') {
    for (const std::string& name : split_csv(sc_env))
      scenarios.push_back(scenario::scenario_by_name(name));
  } else {
    scenarios = scenario::builtin_scenarios();
  }

  std::vector<std::string> methods;
  const char* m_env = std::getenv("DECO_METHODS");
  if (m_env != nullptr && *m_env != '\0') {
    methods = split_csv(m_env);
  } else {
    methods = scenario::builtin_methods();
  }

  std::cout << "# bench_scenarios\n"
            << "scale=" << (full ? "full" : "quick")
            << " threads=" << core::num_threads()
            << " scenarios=" << scenarios.size()
            << " methods=" << methods.size() << " seed=" << options.seed
            << "\n\n";

  const double t0 = core::now_seconds();
  const scenario::MatrixReport report =
      scenario::run_matrix(scenarios, methods, options);
  const double total_s = core::now_seconds() - t0;

  std::cout << "scenario  method  acc  forget  shed  seconds\n";
  for (const scenario::CellResult& c : report.cells) {
    std::cout << c.scenario << "  " << c.method << "  " << c.accuracy << "  "
              << c.forgetting << "  " << c.segments_shed << "  "
              << c.wall_seconds << "\n";
    if (c.scenario.rfind("mem_pressure", 0) == 0)
      std::cout << "  " << c.cache_dtype << " cache: admitted "
                << c.sessions_admitted << "/" << c.sessions << ", "
                << c.cache_logical_bytes << " -> " << c.cache_stored_bytes
                << " bytes\n";
  }
  const std::vector<std::string> failures = scenario::matrix_failures(
      report, scenarios.size() * methods.size());
  for (const std::string& f : failures) std::cout << "FAIL: " << f << "\n";

  scenario::write_matrix_json(report, "BENCH_scenarios.json");
  std::cout << "\nmatrix (" << report.cells.size() << " cells, " << total_s
            << " s) written to BENCH_scenarios.json\n";

  std::cout << (failures.empty() ? "bench-scenarios: PASS"
                                 : "bench-scenarios: FAIL")
            << "\n";
  return static_cast<int>(failures.size());
}
