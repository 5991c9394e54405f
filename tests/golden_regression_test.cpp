// Golden-value regression tests, pinned against committed fixtures at 1e-6
// tolerance:
//   * tests/golden/learner_small.txt — a tiny fixed-seed DECO run (3 classes,
//     8×8 frames, 2 stream segments). Any change to the numerics — kernels,
//     layer order, rng consumption, condenser update rule — shows up here as
//     a precise diff instead of a silent drift.
//   * tests/golden/run_experiment_mini.txt — eval::run_experiment for every
//     runner method at runner_test's mini config. This pins the experiment
//     lineage itself: world, warm-start and test seeds, the pre-training
//     recipe, and the learner and condenser seeds each method is built with.
//
// Both fixtures hold the floating-point results of the default Release build
// (-O3 -march=native) on x86-64 with AVX-512. A build with other flags or for
// another vector width rounds differently, and a flipped pseudo-label vote
// moves the run_experiment values by a whole sample.
//
// Regenerating a fixture (after an INTENDED numeric change):
//
//   DECO_REGEN_GOLDEN=1 ./deco_slow_tests --gtest_filter='GoldenRegression*'
//
// then commit the rewritten fixture together with the change that motivated
// it, and say why in the commit message. The files are found via the
// DECO_SOURCE_DIR compile definition, so regeneration works from any build
// directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "deco/core/learner.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/eval/runner.h"
#include "deco/nn/convnet.h"

namespace deco {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DECO_SOURCE_DIR) + "/tests/golden/" + name;
}

// One deterministic tiny run; every scalar it returns is golden-pinned.
// Ordered map so the regenerated fixture is stable line-for-line.
std::map<std::string, double> run_scenario() {
  data::DatasetSpec spec = data::icub1_spec();
  spec.num_classes = 3;
  spec.height = spec.width = 8;

  Rng rng(41);
  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 8;
  mc.num_classes = 3;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, rng);

  data::ProceduralImageWorld world(spec, 9);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  data::Dataset test = world.make_test_set(6, 2);

  core::DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;  // the second segment triggers a model update
  cfg.model_update_epochs = 3;
  cfg.condenser.iterations = 2;
  core::DecoLearner learner(model, cfg, 51);
  learner.init_buffer_from(labeled);

  std::map<std::string, double> out;
  out["pretrain_accuracy"] = eval::accuracy(model, test);
  for (int64_t seg = 0; seg < 2; ++seg) {
    Tensor images({6, 3, 8, 8});
    for (int64_t i = 0; i < 6; ++i) {
      Tensor img = world.render((seg + i) % 3, 0, 0, 500 + seg * 16 + i);
      std::copy(img.data(), img.data() + img.numel(),
                images.data() + i * img.numel());
    }
    core::SegmentReport rep = learner.observe_segment(images);
    const std::string pre = "segment" + std::to_string(seg) + "_";
    out[pre + "condense_distance"] = rep.condense_distance;
    out[pre + "active_classes"] = static_cast<double>(rep.active_class_count);
    out[pre + "retained"] = static_cast<double>(rep.retained.size());
    double label_sum = 0.0;
    for (int64_t l : rep.pseudo_labels) label_sum += static_cast<double>(l);
    out[pre + "pseudo_label_sum"] = label_sum;
  }
  out["final_accuracy"] = eval::accuracy(model, test);

  const Tensor& buf = learner.buffer().images();
  double sum = 0.0;
  for (int64_t i = 0; i < buf.numel(); ++i) sum += buf[i];
  out["buffer_mean"] = sum / static_cast<double>(buf.numel());
  out["buffer_min"] = buf.min();
  out["buffer_max"] = buf.max();
  return out;
}

std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, double> out;
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  return out;
}

void write_golden(const std::string& path,
                  const std::map<std::string, double>& values) {
  std::ofstream out(path);
  out.precision(12);
  for (const auto& [key, value] : values) out << key << " " << value << "\n";
}

// Compares `got` against the fixture `name`, or rewrites the fixture under
// DECO_REGEN_GOLDEN.
void expect_matches_golden(const std::string& name,
                           const std::map<std::string, double>& got) {
  const std::string path = golden_path(name);
  if (std::getenv("DECO_REGEN_GOLDEN") != nullptr) {
    write_golden(path, got);
    SUCCEED() << "regenerated " << path;
    return;
  }

  const std::map<std::string, double> want = read_golden(path);
  ASSERT_FALSE(want.empty())
      << "missing fixture " << path
      << " — run with DECO_REGEN_GOLDEN=1 to create it";
  ASSERT_EQ(got.size(), want.size()) << "scenario keys changed; regenerate";
  for (const auto& [key, expected] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "scenario no longer produces " << key;
    const double tol = 1e-6 * std::max(1.0, std::abs(expected));
    EXPECT_NEAR(it->second, expected, tol) << "golden drift in " << key;
  }
}

TEST(GoldenRegression, TinyLearnerRunMatchesFixture) {
  expect_matches_golden("learner_small.txt", run_scenario());
}

// runner_test's mini config: iCub1, 4 segments of 12 frames, IpC 2, beta 2.
eval::RunConfig mini_config(const std::string& method) {
  eval::RunConfig cfg;
  cfg.method = method;
  cfg.spec = data::icub1_spec();
  cfg.stream.stc = 12;
  cfg.stream.segment_size = 12;
  cfg.stream.total_segments = 4;
  cfg.ipc = 2;
  cfg.deco.beta = 2;
  cfg.deco.model_update_epochs = 3;
  cfg.deco.condenser.iterations = 2;
  cfg.baseline.beta = 2;
  cfg.baseline.model_update_epochs = 3;
  cfg.pretrain_per_class = 4;
  cfg.pretrain_epochs = 10;
  cfg.test_per_class = 8;
  cfg.model_width = 8;
  cfg.model_depth = 2;
  cfg.seed = 1;
  return cfg;
}

TEST(GoldenRegression, RunExperimentLineageMatchesFixture) {
  std::map<std::string, double> got;
  for (const char* method : {"deco", "dc", "dsa", "dm", "random", "fifo",
                             "selective_bp", "kcenter", "gss", "upper_bound"}) {
    const eval::RunResult r = eval::run_experiment(mini_config(method));
    const std::string pre = std::string(method) + "_";
    got[pre + "pretrain_accuracy"] = r.pretrain_accuracy;
    got[pre + "final_accuracy"] = r.final_accuracy;
    got[pre + "pseudo_label_accuracy"] = r.pseudo_label_accuracy;
    got[pre + "retention_rate"] = r.retention_rate;
  }
  expect_matches_golden("run_experiment_mini.txt", got);
}

}  // namespace
}  // namespace deco
