// The three parts every benchmark run executes, their shared inputs and the
// benchmark-side subclasses that time learner phases from outside the
// library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deco/condense/buffer.h"
#include "deco/condense/method.h"
#include "deco/core/learner.h"
#include "deco/data/dataset.h"
#include "deco/data/world.h"
#include "deco/nn/convnet.h"
#include "json.h"
#include "trace.h"

namespace perfbench {

struct Options {
  int64_t ipc = 10;       ///< buffer size of deco_stream and condense_table2
  uint64_t seed = 1;
  double seconds = 30.0;  ///< measured time of one run, split over the parts
  bool trace = false;
  int threads = 4;        ///< pool width of deco_stream and fleet
  std::string scratch;    ///< checkpoint directory of the fleet part
};

/// Everything the timed regions consume, rendered and trained in set-up.
struct Inputs {
  std::unique_ptr<deco::data::ProceduralImageWorld> world;
  deco::data::Dataset pretrain{3, 16, 16};
  deco::data::Dataset test{3, 16, 16};
  std::unique_ptr<deco::nn::ConvNet> pretrained;

  std::vector<deco::Tensor> stream_segments;

  // condense_table2: one pseudo-labelled segment and the buffer every call
  // starts from.
  deco::Tensor t2_x;
  std::vector<int64_t> t2_y;
  std::vector<float> t2_w;
  std::vector<int64_t> t2_active;
  std::unique_ptr<deco::condense::SyntheticBuffer> t2_buffer;

  deco::data::Dataset fleet_labeled{3, 16, 16};
  std::vector<std::vector<deco::Tensor>> fleet_segments;  ///< per session
  std::vector<double> fleet_offsets;  ///< session start within the period, in periods
};

struct SetupTimes {
  double total_s = 0.0;
  double render_s = 0.0;
  double pretrain_s = 0.0;
  double learners_s = 0.0;
};

Inputs make_inputs(const Options& opt, SetupTimes& times);

/// CRC32 over a model's parameters and a buffer's stored bytes.
uint32_t digest(deco::nn::ConvNet& model,
                const deco::condense::SyntheticBuffer& buffer,
                uint32_t seed = 0);

/// DECO condenser that times every condense() call.
class TimedDecoCondenser : public deco::condense::DecoCondenser {
 public:
  using DecoCondenser::DecoCondenser;
  void condense(const deco::condense::CondenseContext& ctx) override;
  std::vector<int64_t> call_ns;
};

/// Per-segment timestamps of one learner.
struct SegmentStamp {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// DecoLearner that stamps each observe_segment call and times model
/// updates and checkpoint saves.
class TimedLearner : public deco::core::DecoLearner {
 public:
  TimedLearner(deco::nn::ConvNet& model, deco::core::DecoConfig config,
               uint64_t seed, int32_t session, int64_t expected_segments);
  deco::core::SegmentReport observe_segment(const deco::Tensor& images) override;
  void update_model_now() override;
  void save_state(const std::string& path) const override;

  TimedDecoCondenser& condenser() { return *condenser_; }
  const std::vector<SegmentStamp>& stamps() const { return stamps_; }
  const std::vector<int64_t>& update_ns() const { return update_ns_; }
  const std::vector<int64_t>& save_ns() const { return save_ns_; }
  int64_t frames() const { return frames_; }
  int64_t retained() const { return retained_; }
  int64_t skipped() const { return skipped_; }
  /// Segments completed so far; safe to poll from another thread.
  int64_t done() const { return done_.load(std::memory_order_acquire); }

 private:
  TimedLearner(deco::nn::ConvNet& model, deco::core::DecoConfig config,
               uint64_t seed, int32_t session, int64_t expected_segments,
               TimedDecoCondenser* condenser);

  TimedDecoCondenser* condenser_;
  int32_t session_;
  std::vector<SegmentStamp> stamps_;
  std::vector<int64_t> update_ns_;
  mutable std::vector<int64_t> save_ns_;
  int64_t frames_ = 0;
  int64_t retained_ = 0;
  int64_t skipped_ = 0;
  std::atomic<int64_t> done_{0};
};

/// A part's raw measurements, the output checks it failed, and how many
/// segments or condense calls it attempted and lost.
struct PartResult {
  Obj json;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

PartResult run_deco_stream(const Options& opt, const Inputs& in, double seconds);
PartResult run_condense_table2(const Options& opt, const Inputs& in,
                               double seconds);
PartResult run_fleet(const Options& opt, const Inputs& in);

}  // namespace perfbench
