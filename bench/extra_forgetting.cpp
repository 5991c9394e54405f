// Extension analysis: catastrophic forgetting, measured directly.
//
// The paper's whole premise is that condensation mitigates forgetting better
// than selection under tight memory. Table I shows the end-state accuracy;
// this bench measures the forgetting itself: run_experiment snapshots
// per-class accuracy at the start and after every model update, and
// forgetting is the standard max-drop-from-peak (see eval::ForgettingTracker). Expected shape: DECO's mean forgetting is
// below the selection baselines' at equal IpC, because its buffer never
// evicts — old classes' information is not displaced by new runs.
#include <iostream>

#include "bench_util.h"
#include "deco/eval/stats.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Extension — catastrophic forgetting (CORe50)");
  const bench::BenchScale s = bench::scale();

  eval::MarkdownTable table({"method", "IpC", "final acc", "mean forgetting"});
  for (int64_t ipc : {1, 10}) {
    for (const std::string method : {"fifo", "selective_bp", "deco"}) {
      eval::RunConfig cfg = bench::base_config(data::core50_spec(), s);
      cfg.method = method;
      cfg.ipc = ipc;
      // One per-class snapshot per model update.
      cfg.eval_every_segments = cfg.deco.beta;
      eval::RunningStats acc, forg;
      for (int64_t k = 0; k < s.seeds; ++k) {
        cfg.seed = 1 + static_cast<uint64_t>(k);
        const eval::RunResult r = eval::run_experiment(cfg);
        acc.add(r.final_accuracy);
        forg.add(r.forgetting);
      }
      table.add_row({method, std::to_string(ipc), eval::fmt(acc.mean(), 2),
                     eval::fmt(forg.mean(), 2)});
      std::cout.flush();
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: DECO forgets least at equal IpC (its buffer "
               "absorbs new classes without evicting old ones).\n";
  return 0;
}
