#include "deco/data/decorators.h"

#include <algorithm>
#include <cmath>

#include "deco/tensor/check.h"

namespace deco::data {

// ---- DriftStream ------------------------------------------------------------

void DriftConfig::validate() const {
  DECO_CHECK(mode == "none" || mode == "abrupt" || mode == "gradual",
             "drift: mode must be none|abrupt|gradual, got '" + mode + "'");
  DECO_CHECK(severity >= 0.0f && severity <= 1.0f,
             "drift: severity must be in [0, 1]");
  DECO_CHECK(onset_segment >= 0, "drift: onset_segment must be >= 0");
  DECO_CHECK(ramp_segments >= 1, "drift: ramp_segments must be >= 1");
}

DriftStream::DriftStream(SegmentSource& inner, DriftConfig config,
                         uint64_t seed)
    : inner_(inner), config_(std::move(config)) {
  config_.validate();
  // The drift direction is the decorator's identity: one draw at
  // construction, so two decorators with the same seed shift identically and
  // different seeds shift along different directions.
  Rng rng(seed);
  for (float& b : bias_) b = static_cast<float>(rng.uniform(-0.25, 0.25));
  gain_ = static_cast<float>(rng.uniform(0.6, 1.4));
}

float DriftStream::severity_at(int64_t segment_index) const {
  if (!config_.active() || segment_index < config_.onset_segment) return 0.0f;
  if (config_.mode == "abrupt") return config_.severity;
  const int64_t into = segment_index - config_.onset_segment;
  const float frac = std::min(
      1.0f, static_cast<float>(into + 1) /
                static_cast<float>(config_.ramp_segments));
  return config_.severity * frac;
}

bool DriftStream::next(Segment& out) {
  if (!inner_.next(out)) return false;
  const float s = severity_at(segments_emitted_);
  ++segments_emitted_;
  if (s <= 0.0f) return true;

  // Per-channel affine shift around mid-gray, interpolated toward the drawn
  // drift endpoint by severity. Channels beyond 3 reuse the bias cyclically.
  const auto& shape = out.images.shape();
  DECO_CHECK(shape.size() == 4, "drift: segment images must be [S,C,H,W]");
  const int64_t S = shape[0], C = shape[1], hw = shape[2] * shape[3];
  float* p = out.images.data();
  for (int64_t i = 0; i < S; ++i) {
    for (int64_t c = 0; c < C; ++c) {
      const float gain = 1.0f + s * (gain_ - 1.0f);
      const float bias = s * bias_[static_cast<size_t>(c % 3)];
      float* px = p + (i * C + c) * hw;
      for (int64_t k = 0; k < hw; ++k) {
        const float v = (px[k] - 0.5f) * gain + 0.5f + bias;
        // NaN/Inf pixels (an upstream FaultyStream may have injected them)
        // pass through unchanged: drift must not mask sensor faults.
        px[k] = std::isfinite(v) ? std::min(1.0f, std::max(0.0f, v)) : px[k];
      }
    }
  }
  return true;
}

// ---- LabelNoiseStream -------------------------------------------------------

void LabelNoiseConfig::validate() const {
  DECO_CHECK(flip_rate >= 0.0 && flip_rate <= 1.0,
             "label_noise: flip_rate must be in [0, 1]");
}

LabelNoiseStream::LabelNoiseStream(SegmentSource& inner,
                                   LabelNoiseConfig config,
                                   int64_t num_classes, uint64_t seed)
    : inner_(inner),
      config_(config),
      num_classes_(num_classes),
      rng_(seed) {
  config_.validate();
  DECO_CHECK(num_classes_ >= 2, "label_noise: needs at least 2 classes");
}

bool LabelNoiseStream::next(Segment& out) {
  if (!inner_.next(out)) return false;
  for (int64_t& label : out.true_labels) {
    if (!rng_.bernoulli(config_.flip_rate)) continue;
    // Uniform over the other classes: draw in [0, n-1) and skip the original.
    int64_t flipped = rng_.uniform_int(num_classes_ - 1);
    if (flipped >= label) ++flipped;
    label = flipped;
    ++labels_flipped_;
  }
  return true;
}

// ---- ClassIncrementalStream -------------------------------------------------

void ClassIncrementalConfig::validate() const {
  DECO_CHECK(initial >= 1, "class_incremental: initial must be >= 1");
  DECO_CHECK(per_phase >= 1, "class_incremental: per_phase must be >= 1");
  DECO_CHECK(segments_per_phase >= 1,
             "class_incremental: segments_per_phase must be >= 1");
}

int64_t ClassIncrementalConfig::arrived_at(int64_t segment_index,
                                           int64_t num_classes) const {
  const int64_t phase = segment_index / segments_per_phase;
  return std::min<int64_t>(num_classes, initial + phase * per_phase);
}

ClassIncrementalStream::ClassIncrementalStream(
    const ProceduralImageWorld& world, SegmentSource& inner,
    ClassIncrementalConfig config, uint64_t seed)
    : world_(world), inner_(inner), config_(config), rng_(seed) {
  config_.validate();
}

bool ClassIncrementalStream::next(Segment& out) {
  if (!inner_.next(out)) return false;
  const auto& spec = world_.spec();
  const int64_t arrived =
      config_.arrived_at(segments_emitted_, spec.num_classes);
  ++segments_emitted_;

  const auto& shape = out.images.shape();
  DECO_CHECK(shape.size() == 4,
             "class_incremental: segment images must be [S,C,H,W]");
  const int64_t per = shape[1] * shape[2] * shape[3];
  float* p = out.images.data();
  for (size_t i = 0; i < out.true_labels.size(); ++i) {
    const int64_t inner_label = out.true_labels[i];
    if (inner_label != run_inner_class_) {
      // Run boundary in the inner stream: decide this run's fate once, so a
      // remapped run keeps video-like continuity on one (instance, env).
      run_inner_class_ = inner_label;
      if (inner_label < arrived) {
        run_mapped_class_ = -1;  // pass-through run
      } else {
        run_mapped_class_ = inner_label % arrived;
        run_instance_ = rng_.uniform_int(spec.instances_per_class);
        run_environment_ = rng_.uniform_int(spec.environments);
        run_frame_ = rng_.uniform_int(1000);
      }
    } else if (run_mapped_class_ >= 0 && inner_label < arrived) {
      // A remapped run whose class arrives mid-run switches to pass-through:
      // from here on the class genuinely exists in the stream.
      run_mapped_class_ = -1;
    }
    if (run_mapped_class_ < 0) continue;

    Tensor img = world_.render(run_mapped_class_, run_instance_,
                               run_environment_, run_frame_++);
    std::copy(img.data(), img.data() + per,
              p + static_cast<int64_t>(i) * per);
    out.true_labels[i] = run_mapped_class_;
    ++samples_remapped_;
  }
  return true;
}

}  // namespace deco::data
