#include "deco/baselines/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "deco/core/clock.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::baselines {

namespace {

float cosine(const Tensor& a, const Tensor& b) { return cosine_similarity(a, b); }

// Greedy k-center: returns the indices of `k` points that greedily minimize
// the maximum distance of any candidate to its nearest selected center.
// Seeded with the point closest to the candidate centroid for determinism.
std::vector<size_t> greedy_k_center(const std::vector<const Tensor*>& feats,
                                    size_t k) {
  const size_t n = feats.size();
  if (k >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  const int64_t d = feats[0]->numel();
  Tensor centroid({d});
  for (const Tensor* f : feats) centroid.add_(*f);
  centroid.scale_(1.0f / static_cast<float>(n));

  std::vector<size_t> selected;
  size_t first = 0;
  float best = std::numeric_limits<float>::max();
  for (size_t i = 0; i < n; ++i) {
    Tensor diff = *feats[i] - centroid;
    const float dist = diff.squared_norm();
    if (dist < best) {
      best = dist;
      first = i;
    }
  }
  selected.push_back(first);

  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  while (selected.size() < k) {
    const Tensor* latest = feats[selected.back()];
    size_t farthest = 0;
    float far_val = -1.0f;
    for (size_t i = 0; i < n; ++i) {
      Tensor diff = *feats[i] - *latest;
      min_dist[i] = std::min(min_dist[i], diff.squared_norm());
      if (min_dist[i] > far_val &&
          std::find(selected.begin(), selected.end(), i) == selected.end()) {
        far_val = min_dist[i];
        farthest = i;
      }
    }
    selected.push_back(farthest);
  }
  return selected;
}

}  // namespace

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRandom: return "random";
    case Strategy::kFifo: return "fifo";
    case Strategy::kSelectiveBp: return "selective_bp";
    case Strategy::kKCenter: return "kcenter";
    case Strategy::kGssGreedy: return "gss";
  }
  return "unknown";
}

Strategy strategy_from_name(const std::string& name) {
  if (name == "random") return Strategy::kRandom;
  if (name == "fifo") return Strategy::kFifo;
  if (name == "selective_bp") return Strategy::kSelectiveBp;
  if (name == "kcenter") return Strategy::kKCenter;
  if (name == "gss") return Strategy::kGssGreedy;
  DECO_CHECK(false, "unknown baseline strategy '" + name + "'");
  return Strategy::kRandom;
}

ReplayBuffer::ReplayBuffer(int64_t num_classes, int64_t ipc, Strategy strategy,
                           DType dtype, int64_t block)
    : num_classes_(num_classes),
      ipc_(ipc),
      strategy_(strategy),
      dtype_(dtype),
      block_(block) {
  DECO_CHECK(num_classes >= 1 && ipc >= 1, "ReplayBuffer: bad dimensions");
  StoragePolicy p;
  p.cache_dtype = dtype;
  p.block = block;
  p.validate();
  slots_.resize(static_cast<size_t>(num_classes));
  seen_per_class_.assign(static_cast<size_t>(num_classes), 0);
}

int64_t ReplayBuffer::size() const {
  int64_t n = 0;
  for (const auto& s : slots_) n += static_cast<int64_t>(s.size());
  return n;
}

void ReplayBuffer::offer(StoredSample sample, Rng& rng) {
  const int64_t cls = sample.label;
  DECO_CHECK(cls >= 0 && cls < num_classes_, "ReplayBuffer: label range");
  if (dtype_ != DType::kF32 && sample.image.numel() > 0) {
    // Quantize at the door: the row is stored (and counted) encoded, and
    // the fp32 pixels are dropped immediately.
    sample.stored = QTensor::encode(sample.image, dtype_, block_);
    sample.image = Tensor();
  }
  auto& slot = slots_[static_cast<size_t>(cls)];
  ++seen_per_class_[static_cast<size_t>(cls)];

  if (static_cast<int64_t>(slot.size()) < ipc_) {
    slot.push_back(std::move(sample));
    return;
  }

  switch (strategy_) {
    case Strategy::kRandom: {
      // Vitter's reservoir: keep each of the n seen samples with prob ipc/n.
      const int64_t n = seen_per_class_[static_cast<size_t>(cls)];
      const int64_t j = rng.uniform_int(n);
      if (j < ipc_) slot[static_cast<size_t>(j)] = std::move(sample);
      break;
    }
    case Strategy::kFifo: {
      size_t oldest = 0;
      for (size_t i = 1; i < slot.size(); ++i)
        if (slot[i].arrival < slot[oldest].arrival) oldest = i;
      slot[oldest] = std::move(sample);
      break;
    }
    case Strategy::kSelectiveBp: {
      // Keep hard (low-confidence) samples: evict the most confident stored
      // sample if the newcomer is less confident than it.
      size_t most_conf = 0;
      for (size_t i = 1; i < slot.size(); ++i)
        if (slot[i].confidence > slot[most_conf].confidence) most_conf = i;
      if (sample.confidence < slot[most_conf].confidence)
        slot[most_conf] = std::move(sample);
      break;
    }
    case Strategy::kKCenter: {
      DECO_CHECK(sample.feature.numel() > 0, "K-Center requires features");
      std::vector<const Tensor*> feats;
      feats.reserve(slot.size() + 1);
      for (const auto& s : slot) feats.push_back(&s.feature);
      feats.push_back(&sample.feature);
      const auto keep = greedy_k_center(feats, static_cast<size_t>(ipc_));
      // If the newcomer (index slot.size()) was selected, it replaces the
      // one stored sample the cover dropped.
      const size_t newcomer = slot.size();
      if (std::find(keep.begin(), keep.end(), newcomer) == keep.end()) break;
      std::vector<bool> kept(slot.size(), false);
      for (size_t i : keep)
        if (i < slot.size()) kept[i] = true;
      for (size_t i = 0; i < slot.size(); ++i) {
        if (!kept[i]) {
          slot[i] = std::move(sample);
          break;
        }
      }
      break;
    }
    case Strategy::kGssGreedy: {
      DECO_CHECK(sample.gradient.numel() > 0, "GSS requires gradient sketches");
      // Max cosine similarity of the newcomer to the stored gradients, and of
      // each stored gradient to its stored peers.
      float new_max = -1.0f;
      for (const auto& s : slot) new_max = std::max(new_max, cosine(sample.gradient, s.gradient));
      size_t victim = 0;
      float victim_sim = -1.0f;
      for (size_t i = 0; i < slot.size(); ++i) {
        float mx = -1.0f;
        for (size_t j = 0; j < slot.size(); ++j) {
          if (i == j) continue;
          mx = std::max(mx, cosine(slot[i].gradient, slot[j].gradient));
        }
        if (mx > victim_sim) {
          victim_sim = mx;
          victim = i;
        }
      }
      // Replace the most redundant stored sample if the newcomer is more
      // diverse than that sample is.
      if (new_max < victim_sim) slot[victim] = std::move(sample);
      break;
    }
  }
}

Tensor ReplayBuffer::all_images() const {
  std::vector<Tensor> items;
  for (const auto& slot : slots_)
    for (const auto& s : slot)
      items.push_back(dtype_ == DType::kF32 ? s.image : s.stored.decode());
  DECO_CHECK(!items.empty(), "ReplayBuffer::all_images: buffer empty");
  return stack(items);
}

int64_t ReplayBuffer::image_stored_bytes() const {
  int64_t bytes = 0;
  for (const auto& slot : slots_)
    for (const auto& s : slot)
      bytes += dtype_ == DType::kF32
                   ? s.image.numel() * static_cast<int64_t>(sizeof(float))
                   : s.stored.stored_bytes();
  return bytes;
}

int64_t ReplayBuffer::image_logical_bytes() const {
  int64_t floats = 0;
  for (const auto& slot : slots_)
    for (const auto& s : slot)
      floats += dtype_ == DType::kF32 ? s.image.numel() : s.stored.numel();
  return floats * static_cast<int64_t>(sizeof(float));
}

std::vector<int64_t> ReplayBuffer::all_labels() const {
  std::vector<int64_t> out;
  for (const auto& slot : slots_)
    for (const auto& s : slot) out.push_back(s.label);
  return out;
}

// ---- BaselineLearner ------------------------------------------------------------

BaselineLearner::BaselineLearner(nn::ConvNet& model, Strategy strategy,
                                 BaselineConfig config, uint64_t seed)
    : model_(model),
      strategy_(strategy),
      config_(config),
      rng_(seed),
      buffer_(model.config().num_classes, config.ipc, strategy,
              config.storage.cache_dtype, config.storage.block) {}

void BaselineLearner::init_buffer_from(const data::Dataset& labeled) {
  const bool needs_feats =
      strategy_ == Strategy::kKCenter || strategy_ == Strategy::kGssGreedy;
  for (int64_t cls = 0; cls < buffer_.num_classes(); ++cls) {
    auto pool = labeled.indices_of_class(cls);
    rng_.shuffle(pool);
    const int64_t take_n =
        std::min<int64_t>(config_.ipc, static_cast<int64_t>(pool.size()));
    for (int64_t k = 0; k < take_n; ++k) {
      StoredSample s;
      s.image = labeled.image(pool[static_cast<size_t>(k)]);
      s.label = cls;
      s.confidence = 1.0f;  // ground-truth labeled
      s.arrival = arrivals_++;
      if (needs_feats) {
        Tensor batch = s.image.reshaped({1, labeled.channels(),
                                         labeled.height(), labeled.width()});
        Tensor logits = model_.forward(batch);
        // Feature and gradient sketches are described in observe_segment.
        Tensor emb = model_.embed(batch);
        s.feature = emb.reshaped({emb.numel()});
        Tensor probs = softmax_rows(logits);
        Tensor g({probs.numel()});
        for (int64_t c = 0; c < probs.dim(1); ++c)
          g[c] = probs.at2(0, c) - (c == cls ? 1.0f : 0.0f);
        // Last-layer gradient sketch: (p − y) ⊗ features, flattened.
        Tensor sketch({g.numel() * s.feature.numel()});
        for (int64_t c = 0; c < g.numel(); ++c)
          for (int64_t j = 0; j < s.feature.numel(); ++j)
            sketch[c * s.feature.numel() + j] = g[c] * s.feature[j];
        s.gradient = std::move(sketch);
      }
      buffer_.offer(std::move(s), rng_);
    }
  }
}

core::SegmentReport BaselineLearner::observe_segment(const Tensor& images) {
  // Plain pseudo-labels (threshold 0: no majority-voting filter).
  core::PseudoLabelResult pl = core::pseudo_label_segment(model_, images, 0.0f);

  core::SegmentReport report;
  report.pseudo_labels = pl.labels;
  report.confidences = pl.confidences;
  report.retained = pl.retained;
  report.active_class_count = static_cast<int64_t>(pl.active_classes.size());

  const bool needs_feats =
      strategy_ == Strategy::kKCenter || strategy_ == Strategy::kGssGreedy;
  Tensor emb, probs;
  if (needs_feats) {
    emb = model_.embed(images);
    Tensor logits = model_.forward(images);
    probs = softmax_rows(logits);
  }

  const double t0 = core::now_seconds();
  const int64_t n = images.dim(0);
  const int64_t per = images.numel() / n;
  for (int64_t i = 0; i < n; ++i) {
    StoredSample s;
    s.image = Tensor({images.dim(1), images.dim(2), images.dim(3)});
    std::copy(images.data() + i * per, images.data() + (i + 1) * per,
              s.image.data());
    s.label = pl.labels[static_cast<size_t>(i)];
    s.confidence = pl.confidences[static_cast<size_t>(i)];
    s.arrival = arrivals_++;
    if (needs_feats) {
      const int64_t d = emb.dim(1);
      s.feature = Tensor({d});
      std::copy(emb.data() + i * d, emb.data() + (i + 1) * d, s.feature.data());
      const int64_t c_count = probs.dim(1);
      Tensor sketch({c_count * d});
      for (int64_t c = 0; c < c_count; ++c) {
        const float g = probs.at2(i, c) - (c == s.label ? 1.0f : 0.0f);
        for (int64_t j = 0; j < d; ++j) sketch[c * d + j] = g * s.feature[j];
      }
      s.gradient = std::move(sketch);
    }
    buffer_.offer(std::move(s), rng_);
  }
  select_seconds_ += core::now_seconds() - t0;

  ++segments_seen_;
  if (segments_seen_ % config_.beta == 0) update_model_now();
  return report;
}

void BaselineLearner::update_model_now() {
  if (buffer_.size() == 0) return;
  core::train_classifier(model_, buffer_.all_images(), buffer_.all_labels(),
                         config_.model_update_epochs, config_.lr_model,
                         config_.weight_decay, config_.train_batch, rng_);
}

int64_t BaselineLearner::memory_bytes() const {
  // Pixel rows count at their *stored* (post-quantization) size; the
  // strategy sketches and the model remain fp32-resident.
  int64_t floats = 0;
  for (int64_t cls = 0; cls < buffer_.num_classes(); ++cls)
    for (const StoredSample& s : buffer_.slot(cls))
      floats += s.feature.numel() + s.gradient.numel();
  for (const nn::ParamRef& p : model_.parameters()) floats += p.value->numel();
  return buffer_.image_stored_bytes() +
         floats * static_cast<int64_t>(sizeof(float));
}

// ---- UnlimitedLearner ------------------------------------------------------------

UnlimitedLearner::UnlimitedLearner(nn::ConvNet& model, BaselineConfig config,
                                   uint64_t seed)
    : model_(model), config_(config), rng_(seed) {}

void UnlimitedLearner::store_image(const Tensor& img) {
  if (config_.storage.cache_dtype == DType::kF32)
    images_.push_back(img);
  else
    qimages_.push_back(QTensor::encode(img, config_.storage.cache_dtype,
                                       config_.storage.block));
}

Tensor UnlimitedLearner::stacked_images() const {
  if (config_.storage.cache_dtype == DType::kF32) return stack(images_);
  std::vector<Tensor> decoded;
  decoded.reserve(qimages_.size());
  for (const QTensor& q : qimages_) decoded.push_back(q.decode());
  return stack(decoded);
}

void UnlimitedLearner::init_buffer_from(const data::Dataset& labeled) {
  for (int64_t i = 0; i < labeled.size(); ++i) {
    store_image(labeled.image(i));
    labels_.push_back(labeled.label(i));
  }
}

core::SegmentReport UnlimitedLearner::observe_segment(const Tensor& images) {
  core::PseudoLabelResult pl = core::pseudo_label_segment(model_, images, 0.0f);
  return store_and_train(images, pl.labels, pl);
}

core::SegmentReport UnlimitedLearner::observe_labeled_segment(
    const Tensor& images, const std::vector<int64_t>& true_labels) {
  DECO_CHECK(images.dim(0) == static_cast<int64_t>(true_labels.size()),
             "observe_labeled_segment: label count mismatch");
  // Report still carries pseudo-label diagnostics for the harness.
  core::PseudoLabelResult pl = core::pseudo_label_segment(model_, images, 0.0f);
  return store_and_train(images, true_labels, pl);
}

core::SegmentReport UnlimitedLearner::store_and_train(
    const Tensor& images, const std::vector<int64_t>& labels,
    const core::PseudoLabelResult& pl) {
  core::SegmentReport report;
  report.pseudo_labels = pl.labels;
  report.confidences = pl.confidences;
  report.retained = pl.retained;
  report.active_class_count = static_cast<int64_t>(pl.active_classes.size());

  const int64_t n = images.dim(0);
  const int64_t per = images.numel() / n;
  for (int64_t i = 0; i < n; ++i) {
    Tensor img({images.dim(1), images.dim(2), images.dim(3)});
    std::copy(images.data() + i * per, images.data() + (i + 1) * per, img.data());
    store_image(img);
    labels_.push_back(labels[static_cast<size_t>(i)]);
  }

  ++segments_seen_;
  if (segments_seen_ % config_.beta == 0) update_model_now();
  return report;
}

void UnlimitedLearner::update_model_now() {
  if (labels_.empty()) return;
  core::train_classifier(model_, stacked_images(), labels_,
                         config_.model_update_epochs, config_.lr_model,
                         config_.weight_decay, config_.train_batch, rng_);
}

int64_t UnlimitedLearner::memory_bytes() const {
  int64_t floats = 0;
  for (const nn::ParamRef& p : model_.parameters()) floats += p.value->numel();
  return cache_stored_bytes() + floats * static_cast<int64_t>(sizeof(float));
}

int64_t UnlimitedLearner::cache_stored_bytes() const {
  int64_t bytes = 0;
  for (const Tensor& img : images_)
    bytes += img.numel() * static_cast<int64_t>(sizeof(float));
  for (const QTensor& q : qimages_) bytes += q.stored_bytes();
  return bytes;
}

int64_t UnlimitedLearner::cache_logical_bytes() const {
  int64_t floats = 0;
  for (const Tensor& img : images_) floats += img.numel();
  for (const QTensor& q : qimages_) floats += q.numel();
  return floats * static_cast<int64_t>(sizeof(float));
}

}  // namespace deco::baselines
