// End-to-end integration tests of the experiment runner — miniature versions
// of the paper's evaluation protocol across all learner types.
#include "deco/eval/runner.h"

#include <gtest/gtest.h>

#include <string>

#include "deco/eval/metrics.h"
#include "deco/tensor/check.h"

namespace deco::eval {
namespace {

RunConfig mini_config(const std::string& method) {
  RunConfig cfg;
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

class RunnerMethodSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerMethodSweep, RunsEndToEnd) {
  RunConfig cfg = mini_config(GetParam());
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.pretrain_accuracy, 0.0f);
  EXPECT_GT(res.final_accuracy, 0.0f);
  EXPECT_LE(res.final_accuracy, 100.0f);
  EXPECT_GT(res.pseudo_label_accuracy, 0.05);  // far above never-correct
  EXPECT_GE(res.retention_rate, 0.0);
  EXPECT_LE(res.retention_rate, 1.0);
  EXPECT_GT(res.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RunnerMethodSweep,
                         ::testing::Values("deco", "random", "fifo",
                                           "selective_bp", "kcenter", "gss",
                                           "dm", "upper_bound"));

TEST(RunnerTest, CondensationMethodsReportCondenseTime) {
  RunConfig cfg = mini_config("deco");
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

TEST(RunnerTest, CurveIsRecordedAtRequestedInterval) {
  RunConfig cfg = mini_config("fifo");
  cfg.eval_every_segments = 2;
  RunResult res = run_experiment(cfg);
  ASSERT_EQ(res.curve.size(), 2u);
  EXPECT_EQ(res.curve[0].samples_seen, 24);
  EXPECT_EQ(res.curve[1].samples_seen, 48);
}

TEST(RunnerTest, SameSeedReproduces) {
  RunConfig cfg = mini_config("deco");
  RunResult a = run_experiment(cfg);
  RunResult b = run_experiment(cfg);
  EXPECT_FLOAT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.pseudo_label_accuracy, b.pseudo_label_accuracy);
}

TEST(RunnerTest, RunSeedsProducesOnePerSeed) {
  RunConfig cfg = mini_config("random");
  auto results = run_seeds(cfg, 2);
  ASSERT_EQ(results.size(), 2u);
}

TEST(RunnerTest, UnknownMethodThrows) {
  RunConfig cfg = mini_config("definitely_not_a_method");
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(RunnerTest, UnknownMethodErrorNamesTheMethod) {
  RunConfig cfg = mini_config("definitely_not_a_method");
  Deployment d = deploy(cfg);
  try {
    make_learner(cfg, *d.model, d.warm_start, 1, 2);
    FAIL() << "make_learner accepted an unknown method";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("definitely_not_a_method"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunnerTest, DeployMatchesRunExperimentAndSessionOnlyMovesTheModel) {
  RunConfig cfg = mini_config("fifo");
  Deployment d = deploy(cfg);
  EXPECT_FLOAT_EQ(accuracy(*d.model, d.test),
                  run_experiment(cfg).pretrain_accuracy);

  // Another session shares the world and data sets but not the model init.
  Deployment other = deploy(cfg, 1);
  EXPECT_EQ(other.warm_start.labels(), d.warm_start.labels());
  EXPECT_EQ(other.test.labels(), d.test.labels());
  const Tensor& w0 = *d.model->parameters()[0].value;
  const Tensor& w1 = *other.model->parameters()[0].value;
  ASSERT_EQ(w0.numel(), w1.numel());
  bool differs = false;
  for (int64_t i = 0; i < w0.numel(); ++i) differs |= w0[i] != w1[i];
  EXPECT_TRUE(differs) << "session must perturb the model initialisation";
}

TEST(RunnerTest, ObserverSeesTheLearnerBehindFinalAccuracy) {
  for (const char* method : {"deco", "fifo"}) {
    RunConfig cfg = mini_config(method);
    const Deployment d = deploy(cfg);  // same test set as the run
    int calls = 0;
    float observed = -1.0f;
    const RunResult res =
        run_experiment(cfg, [&](core::OnDeviceLearner& learner) {
          ++calls;
          observed = accuracy(learner.model(), d.test);
        });
    EXPECT_EQ(calls, 1) << method;
    EXPECT_EQ(observed, res.final_accuracy) << method;
  }
}

TEST(RunnerTest, ForgettingIsMeasuredOnlyWithSnapshots) {
  RunConfig cfg = mini_config("fifo");
  EXPECT_EQ(run_experiment(cfg).forgetting, 0.0f) << "no eval points";
  cfg.eval_every_segments = 2;
  const RunResult res = run_experiment(cfg);
  EXPECT_GE(res.forgetting, 0.0f);
  EXPECT_LE(res.forgetting, 100.0f);
}

TEST(RunnerTest, DcRunsEndToEndSmall) {
  // DC is the slowest method; keep it tiny but exercised.
  RunConfig cfg = mini_config("dc");
  cfg.stream.total_segments = 2;
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

TEST(RunnerTest, DsaRunsEndToEndSmall) {
  RunConfig cfg = mini_config("dsa");
  cfg.stream.total_segments = 2;
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

}  // namespace
}  // namespace deco::eval
