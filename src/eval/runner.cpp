#include "deco/eval/runner.h"

#include <memory>

#include "deco/core/clock.h"
#include "deco/core/thread_pool.h"
#include "deco/eval/metrics.h"
#include "deco/tensor/check.h"

namespace deco::eval {

namespace {

bool is_condensation_method(const std::string& m) {
  return m == "deco" || m == "dc" || m == "dsa" || m == "dm";
}

std::unique_ptr<condense::Condenser> make_condenser(const RunConfig& cfg,
                                                    const nn::ConvNetConfig& mc,
                                                    uint64_t seed) {
  if (cfg.method == "deco")
    return std::make_unique<condense::DecoCondenser>(mc, cfg.deco.condenser,
                                                     seed);
  if (cfg.method == "dm")
    return std::make_unique<condense::DmCondenser>(mc, condense::DmConfig{},
                                                   seed);
  condense::BilevelConfig bc = cfg.bilevel;
  bc.dsa_strategy =
      cfg.method == "dsa" ? "flip_shift_scale_rotate_color_cutout" : "";
  return std::make_unique<condense::BilevelCondenser>(mc, bc, seed);
}

}  // namespace

Deployment deploy(const RunConfig& config, int64_t session) {
  auto world =
      std::make_unique<data::ProceduralImageWorld>(config.spec,
                                                   config.seed * 7919 + 17);
  data::Dataset warm_start =
      world->make_labeled_set(config.pretrain_per_class, config.seed + 1);
  data::Dataset test =
      world->make_test_set(config.test_per_class, config.seed + 2);

  nn::ConvNetConfig mc;
  mc.in_channels = config.spec.channels;
  mc.image_h = config.spec.height;
  mc.image_w = config.spec.width;
  mc.num_classes = config.spec.num_classes;
  mc.width = config.model_width;
  mc.depth = config.model_depth;

  Rng rng(config.seed * 0x9E37 + static_cast<uint64_t>(session) * 1315423911ull +
          0xC0FFEE);
  auto model = std::make_shared<nn::ConvNet>(mc, rng);

  // Pre-deployment training on the small labeled subset (paper: 1–10%).
  std::vector<int64_t> all(static_cast<size_t>(warm_start.size()));
  for (int64_t i = 0; i < warm_start.size(); ++i) all[static_cast<size_t>(i)] = i;
  core::train_classifier(*model, warm_start.batch(all), warm_start.labels(),
                         config.pretrain_epochs, config.deco.lr_model,
                         config.deco.weight_decay, config.deco.train_batch, rng);

  return {std::move(world), std::move(warm_start), std::move(test),
          std::move(model)};
}

std::unique_ptr<core::OnDeviceLearner> make_learner(
    const RunConfig& config, nn::ConvNet& model,
    const data::Dataset& warm_start, uint64_t learner_seed,
    uint64_t condenser_seed) {
  if (is_condensation_method(config.method)) {
    core::DecoConfig dc = config.deco;
    dc.ipc = config.ipc;
    auto learner = std::make_unique<core::DecoLearner>(
        model, dc, learner_seed,
        make_condenser(config, model.config(), condenser_seed));
    learner->init_buffer_from(warm_start);
    return learner;
  }
  baselines::BaselineConfig bc = config.baseline;
  bc.ipc = config.ipc;
  if (config.method == "upper_bound") {
    auto learner =
        std::make_unique<baselines::UnlimitedLearner>(model, bc, learner_seed);
    learner->init_buffer_from(warm_start);
    return learner;
  }
  baselines::Strategy strategy = baselines::Strategy::kRandom;
  try {
    strategy = baselines::strategy_from_name(config.method);
  } catch (const Error&) {
    throw Error("make_learner: unknown method '" + config.method + "'");
  }
  auto learner = std::make_unique<baselines::BaselineLearner>(
      model, strategy, bc, learner_seed);
  learner->init_buffer_from(warm_start);
  return learner;
}

RunResult run_experiment(const RunConfig& config,
                         const LearnerObserver& on_finish) {
  const double t_start = core::now_seconds();

  Deployment d = deploy(config);
  const data::Dataset& test = d.test;
  RunResult result;
  result.pretrain_accuracy = accuracy(*d.model, test);

  std::unique_ptr<core::OnDeviceLearner> learner =
      make_learner(config, *d.model, d.warm_start, config.seed + 3,
                   config.seed ^ 0xD3C0DE);
  ForgettingTracker tracker;
  if (config.eval_every_segments > 0)
    tracker.record(per_class_accuracy(learner->model(), test));

  // Stream replay, optionally through the sensor-fault injector.
  data::TemporalStream stream(*d.world, config.stream, config.seed + 4);
  std::unique_ptr<data::FaultyStream> faulty;
  if (config.faults.any())
    faulty = std::make_unique<data::FaultyStream>(stream, config.faults,
                                                  config.seed ^ 0xFA017ull);
  auto next_segment = [&](data::Segment& s) {
    return faulty != nullptr ? faulty->next(s) : stream.next(s);
  };
  data::Segment seg;
  int64_t pseudo_correct = 0, pseudo_total = 0, retained_total = 0;
  // The upper bound is an oracle: unlimited memory AND ground-truth labels
  // (the paper defines it as the accuracy achievable with unlimited buffer).
  // Only it receives the labels; every other learner stays unlabeled.
  const bool oracle = config.method == "upper_bound";
  while (next_segment(seg)) {
    core::SegmentReport rep =
        oracle ? learner->observe_labeled_segment(seg.images, seg.true_labels)
               : learner->observe_segment(seg.images);

    for (size_t i = 0; i < rep.pseudo_labels.size(); ++i) {
      if (rep.pseudo_labels[i] == seg.true_labels[i]) ++pseudo_correct;
      ++pseudo_total;
    }
    retained_total += static_cast<int64_t>(rep.retained.size());
    result.frames_quarantined += rep.frames_quarantined;
    result.segments_skipped += rep.segment_skipped;
    result.steps_rolled_back += rep.steps_rolled_back;
    result.batches_skipped += rep.batches_skipped;
    result.grads_clipped += rep.grads_clipped;

    if (config.eval_every_segments > 0 &&
        stream.segments_emitted() % config.eval_every_segments == 0) {
      result.curve.push_back(
          {stream.samples_emitted(), accuracy(learner->model(), test)});
      tracker.record(per_class_accuracy(learner->model(), test));
    }
  }

  if (faulty != nullptr) result.faults = faulty->log();
  result.final_accuracy = accuracy(learner->model(), test);
  result.condense_seconds = learner->condense_seconds();
  result.forgetting = tracker.mean_forgetting();
  result.total_seconds = core::now_seconds() - t_start;
  result.pseudo_label_accuracy =
      pseudo_total > 0
          ? static_cast<double>(pseudo_correct) / static_cast<double>(pseudo_total)
          : 0.0;
  result.retention_rate =
      pseudo_total > 0
          ? static_cast<double>(retained_total) / static_cast<double>(pseudo_total)
          : 0.0;
  if (on_finish) on_finish(*learner);
  return result;
}

std::vector<RunResult> run_seeds(RunConfig config, int64_t seeds) {
  // Each seed is a fully independent experiment, so the repeats fan out over
  // the pool (results land in their own slot, so the order is stable). The
  // kernels inside each experiment detect the nested region and run inline,
  // which keeps the fan-out free of oversubscription.
  std::vector<RunResult> out(static_cast<size_t>(seeds));
  const uint64_t base = config.seed;
  core::parallel_for(0, seeds, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      RunConfig cfg = config;
      cfg.seed = base + static_cast<uint64_t>(s);
      out[static_cast<size_t>(s)] = run_experiment(cfg);
    }
  });
  return out;
}

}  // namespace deco::eval
