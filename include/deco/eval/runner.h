// End-to-end experiment runner.
//
// Encapsulates the full evaluation protocol of Section IV-A: build a world,
// pre-train the model on a small labeled subset, replay an STC-controlled
// unlabeled stream through a learner (DECO, a replay baseline, a condensation
// baseline, or the unlimited upper bound), and measure accuracy on a held-out
// test set — optionally at fixed intervals for learning curves (Fig. 3).
//
// deploy() and make_learner() are the protocol's two set-up steps:
// run_experiment and the scenario harness both build their world,
// pre-trained model and learner through them, so every experiment shares one
// lineage of seeds and one recipe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "deco/baselines/replay.h"
#include "deco/core/learner.h"
#include "deco/data/faults.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"

namespace deco::eval {

/// Which learner drives the run.
/// "deco" | "random" | "fifo" | "selective_bp" | "kcenter" | "gss"
/// | "dc" | "dsa" | "dm" (condensation baselines inside the DECO pipeline)
/// | "upper_bound".
struct RunConfig {
  std::string method = "deco";
  data::DatasetSpec spec;
  data::StreamConfig stream;
  int64_t ipc = 10;

  core::DecoConfig deco;            ///< used by deco/dc/dsa/dm
  condense::BilevelConfig bilevel;  ///< used by dc/dsa (dsa_strategy is set
                                    ///< automatically for method "dsa")
  baselines::BaselineConfig baseline;

  int64_t pretrain_per_class = 6;   ///< labeled warm-start set size
  int64_t pretrain_epochs = 30;
  int64_t test_per_class = 40;
  int64_t model_width = 32;
  int64_t model_depth = 3;

  /// Evaluate on the test set every this many segments (0 = final only).
  int64_t eval_every_segments = 0;

  /// Sensor-fault injection: when any rate is non-zero the stream is wrapped
  /// in a FaultyStream seeded from `seed`, so a faulty run is sample-paired
  /// with its clean counterpart (common random numbers).
  data::FaultConfig faults;

  uint64_t seed = 1;
};

struct CurvePoint {
  int64_t samples_seen = 0;
  float accuracy = 0.0f;
};

struct RunResult {
  float pretrain_accuracy = 0.0f;
  float final_accuracy = 0.0f;
  std::vector<CurvePoint> curve;
  double condense_seconds = 0.0;  ///< selection/condensation time (Table II)
  double total_seconds = 0.0;
  double pseudo_label_accuracy = 0.0;  ///< vs ground truth, over the stream
  double retention_rate = 0.0;         ///< fraction of samples kept by voting
  /// Mean per-class forgetting (eval::ForgettingTracker) over per-class
  /// snapshots taken at the start and at every eval_every_segments point;
  /// 0 when eval_every_segments is 0.
  float forgetting = 0.0f;

  // Fault-tolerance accounting (0 unless faults/guards were active).
  data::FaultLog faults;               ///< what the injector actually did
  int64_t frames_quarantined = 0;      ///< non-finite frames excluded by guards
  int64_t segments_skipped = 0;        ///< segments with no usable frame
  int64_t steps_rolled_back = 0;       ///< diverged condensation steps undone
  int64_t batches_skipped = 0;         ///< model-update batches dropped
  int64_t grads_clipped = 0;           ///< gradient-norm clips
};

/// The deployed state the stream starts from: the world, the small labeled
/// warm-start set, the held-out test set and the model pre-trained on the
/// warm-start set.
struct Deployment {
  std::unique_ptr<data::ProceduralImageWorld> world;
  data::Dataset warm_start;
  data::Dataset test;
  std::shared_ptr<nn::ConvNet> model;
};

/// Builds the deployment of `config`. `session` perturbs only the model
/// initialisation, so the sessions of one scenario cell share the world and
/// data sets but start from different models.
Deployment deploy(const RunConfig& config, int64_t session = 0);

/// Builds the learner named by config.method around `model`, with IpC
/// config.ipc, and fills its buffer from `warm_start`. `condenser_seed` seeds
/// the condenser of the condensation methods. Throws deco::Error naming an
/// unknown method.
std::unique_ptr<core::OnDeviceLearner> make_learner(
    const RunConfig& config, nn::ConvNet& model,
    const data::Dataset& warm_start, uint64_t learner_seed,
    uint64_t condenser_seed);

/// Called once with the learner after the stream and the final evaluation.
using LearnerObserver = std::function<void(core::OnDeviceLearner&)>;

/// Runs the whole protocol for `config`. `on_finish`, when set, sees the
/// finished learner (e.g. to save its model or dump its buffer).
RunResult run_experiment(const RunConfig& config,
                         const LearnerObserver& on_finish = {});

/// Convenience: runs `seeds` seeds (config.seed, +1, …) and collects final
/// accuracies.
std::vector<RunResult> run_seeds(RunConfig config, int64_t seeds);

}  // namespace deco::eval
