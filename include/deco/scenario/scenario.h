// Declarative scenario catalog for the evaluation matrix.
//
// A ScenarioSpec names one deployment condition — which procedural world the
// sessions observe, how their streams are shaped, which decorators corrupt
// them (sensor faults, domain drift, label noise, class-incremental arrival),
// how segments *arrive* at the runtime's bounded queues (steady vs. bursty
// diurnal traffic), and whether the fleet is homogeneous or every session
// runs its own config/resolution. The catalog is data, not code: the harness
// (scenario/harness.h) interprets a spec identically for every method, which
// is what makes matrix cells comparable (the DC-BENCH discipline).
//
// Determinism contract: a scenario is a pure function of (spec, seed). All
// randomness flows through seeds derived from the cell seed, decorators draw
// from their own Rngs, and arrival patterns are fixed schedules — so any cell
// is byte-reproducible at any DECO_NUM_THREADS. The slow matrix test memcmps
// whole cells across thread counts to keep this true.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deco/data/decorators.h"
#include "deco/data/faults.h"
#include "deco/data/stream.h"
#include "deco/runtime/queue.h"
#include "deco/tensor/dtype.h"

namespace deco::scenario {

/// Per-session override for heterogeneous fleets. Zero means "use the
/// scenario/harness default". Sessions cycle through the variant list, so a
/// two-entry list alternates configurations across a four-session fleet.
struct SessionVariant {
  int64_t ipc = 0;         ///< condensed/replay images per class
  int64_t image_hw = 0;    ///< square resolution override (own world + test set)
  int64_t model_width = 0; ///< ConvNet width override
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  std::string dataset = "core50";  ///< world preset (data::*_spec())

  data::StreamConfig stream;       ///< per-session stream shape
  data::FaultConfig faults;        ///< sensor faults (defaults inject nothing)
  data::DriftConfig drift;         ///< domain drift (default off)
  data::LabelNoiseConfig label_noise;
  bool class_incremental = false;  ///< enable phased class arrival
  data::ClassIncrementalConfig phases;

  /// Arrival pattern against the per-session ingest queues. Steady arrival
  /// (burst_size == 0) submits one segment then drains. A bursty scenario
  /// submits `burst_size` segments back-to-back every `burst_every` arrival
  /// steps (the diurnal rush hour); with burst_size > queue_depth the
  /// kShedOldest policy must shed, and the harness reports how much.
  int64_t queue_depth = 8;
  runtime::OverflowPolicy overflow = runtime::OverflowPolicy::kBlock;
  int64_t burst_every = 0;  ///< 0 = steady arrival
  int64_t burst_size = 0;

  int64_t sessions = 1;
  std::vector<SessionVariant> variants;  ///< empty = homogeneous fleet

  /// Fleet memory budget in MiB for the runtime's admission control
  /// (0 = unbounded, the pre-existing behavior). A memory-pressure scenario
  /// sets this low enough that admission rejects part of the fleet; the
  /// harness records how many sessions actually got in (sessions_admitted).
  int64_t pool_budget_mb = 0;
  /// Storage dtype for every session's condensed/replay cache. Quantized
  /// caches report smaller memory_bytes(), so more sessions fit under the
  /// same pool budget — the trade the memory-pressure cells measure.
  DType cache_dtype = DType::kF32;

  /// Throws deco::Error on an inconsistent spec (e.g. a burst larger than
  /// the queue under kBlock, which would deadlock the single-producer
  /// harness).
  void validate() const;
};

/// The built-in catalog: clean, class_incremental, drift_abrupt,
/// drift_gradual, label_noise, faulty_sensors, bursty_shed, hetero_fleet,
/// mem_pressure_fp32, mem_pressure_int8.
std::vector<ScenarioSpec> builtin_scenarios();
std::vector<std::string> scenario_names();
/// Throws deco::Error naming the scenario when unknown.
ScenarioSpec scenario_by_name(const std::string& name);

/// Every method the matrix runs: DECO, the DC/DSA/DM condensation matchers
/// and the five replay baselines. The runner's "upper_bound" oracle is not
/// among them: it needs ground-truth labels, and the harness only streams
/// unlabelled segments, so run_cell rejects it.
std::vector<std::string> builtin_methods();

/// Dataset preset lookup ("icub1" | "core50" | "cifar100" | "imagenet10" |
/// "cifar10"); throws deco::Error naming the dataset when unknown.
data::DatasetSpec dataset_spec_by_name(const std::string& name);

}  // namespace deco::scenario
