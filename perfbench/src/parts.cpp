#include "parts.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "deco/core/pseudo_label.h"
#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/data/stream.h"
#include "deco/eval/metrics.h"
#include "deco/runtime/session_manager.h"
#include "deco/tensor/buffer_pool.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "deco/tensor/serialize.h"

namespace perfbench {

using namespace deco;
namespace telemetry = core::telemetry;

namespace {

// The deployment is fixed: the procedural world, the labelled warm-start
// data, the test set and the initial models do not change with --seed. The
// seed draws what a device meets in the field: the streams (and so the
// condense_table2 segment), the learners' own randomness and the fleet's
// arrival phases. Accuracy then moves with the stream, not with a new model.
constexpr uint64_t kWorldSeed = 20250;
constexpr uint64_t kDataSeed = 7;

// deco_stream: run_experiment's defaults. One pass is β segments, so every
// pass ends with exactly one model update.
constexpr int64_t kPretrainPerClass = 6;
constexpr int64_t kPretrainEpochs = 30;
constexpr int64_t kTestPerClass = 100;
constexpr int64_t kStreamSegments = 10;
constexpr int64_t kRenderedStreamSegments = 40;  // table2 picks from these
// The 1-thread replay that checks byte identity across thread counts covers
// this prefix in untraced runs and the whole pass in traced runs.
constexpr int64_t kPrefixSegments = 2;

// condense_table2: one segment with a single active class, cut to a fixed
// number of frames so every seed asks for the same amount of work.
constexpr int64_t kTable2Frames = 16;
const char* const kTable2Methods[] = {"dc", "dsa", "dm", "deco"};
const char* const kTable2Spans[] = {"condense.dc", "condense.dsa", "condense.dm",
                                    "condense.deco"};

// fleet: Fleet's small on-device learner (as in bench_runtime), int8 cache,
// periodic checkpoints, an open-loop steady phase and a burst.
constexpr int64_t kFleetSessions = 8;
constexpr double kFleetSteadyRate = 100.0;  // segments/s over all sessions
constexpr int64_t kFleetSteadyPerSession = 130;  // 1040 samples: >= 10 beyond p99
constexpr int64_t kFleetBurstPerSession = 60;
constexpr int64_t kFleetCheckpointEvery = 8;

struct Usage {
  int64_t user_us = 0;
  int64_t sys_us = 0;
};

int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_utime.tv_sec * 1000000 + ru.ru_utime.tv_usec,
          ru.ru_stime.tv_sec * 1000000 + ru.ru_stime.tv_usec};
}

nn::ConvNetConfig model_config(int64_t width, int64_t depth) {
  const data::DatasetSpec spec = data::core50_spec();
  nn::ConvNetConfig mc;
  mc.in_channels = spec.channels;
  mc.image_h = spec.height;
  mc.image_w = spec.width;
  mc.num_classes = spec.num_classes;
  mc.width = width;
  mc.depth = depth;
  return mc;
}

core::DecoConfig stream_config(const Options& opt) {
  core::DecoConfig dc;
  dc.ipc = opt.ipc;
  return dc;
}

core::DecoConfig fleet_config() {
  core::DecoConfig dc;
  dc.ipc = 2;
  dc.beta = 4;
  dc.model_update_epochs = 2;
  dc.train_batch = 16;
  dc.condenser.iterations = 2;
  dc.storage.cache_dtype = DType::kQ8;
  return dc;
}

data::StreamConfig fleet_stream_config(int64_t segments) {
  data::StreamConfig sc;
  sc.stc = 16;
  sc.segment_size = 16;
  sc.total_segments = segments;
  return sc;
}

std::vector<Tensor> render(const data::ProceduralImageWorld& world,
                           const data::StreamConfig& config, uint64_t seed) {
  data::TemporalStream stream(world, config, seed);
  std::vector<Tensor> out;
  data::Segment seg;
  while (stream.next(seg)) out.push_back(seg.images);
  return out;
}

struct OwnedLearner {
  std::shared_ptr<nn::ConvNet> model;
  std::unique_ptr<TimedLearner> learner;
};

OwnedLearner make_stream_learner(const Options& opt, const Inputs& in) {
  OwnedLearner o;
  o.model = nn::clone_convnet(*in.pretrained);
  o.learner = std::make_unique<TimedLearner>(*o.model, stream_config(opt),
                                             opt.seed + 3, 0, kStreamSegments);
  o.learner->init_buffer_from(in.pretrain);
  return o;
}

// Mirrors runtime::Fleet::make_learner's seed lineage.
OwnedLearner make_fleet_learner(const Options& opt, const Inputs& in,
                                int64_t i) {
  const uint64_t si = static_cast<uint64_t>(i);
  Rng model_rng(kDataSeed * 0x9E37 + si * 1315423911ull + 0xC0FFEE);
  OwnedLearner o;
  o.model = std::make_shared<nn::ConvNet>(model_config(16, 2), model_rng);
  o.learner = std::make_unique<TimedLearner>(
      *o.model, fleet_config(), opt.seed + 1000 + si, static_cast<int32_t>(i),
      kFleetSteadyPerSession + kFleetBurstPerSession);
  o.learner->init_buffer_from(in.fleet_labeled);
  return o;
}

std::unique_ptr<condense::Condenser> make_table2_condenser(
    const std::string& method, const nn::ConvNetConfig& mc, uint64_t seed) {
  if (method == "dc" || method == "dsa") {
    condense::BilevelConfig bc;
    if (method == "dsa") bc.dsa_strategy = "flip_shift_scale_rotate_color_cutout";
    return std::make_unique<condense::BilevelCondenser>(mc, bc, seed);
  }
  if (method == "dm")
    return std::make_unique<condense::DmCondenser>(mc, condense::DmConfig{}, seed);
  return std::make_unique<condense::DecoCondenser>(
      mc, condense::DecoCondenserConfig{}, seed);
}

std::string span_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "[" + json_quote(s.name) + "," + std::to_string(s.start_ns) + "," +
           std::to_string(s.end_ns) + "," + std::to_string(s.parent) + "," +
           std::to_string(s.tid) + "," + std::to_string(s.request.session) +
           "," + std::to_string(s.request.seq) + "]";
  }
  return out + "]";
}

/// Switches tracing (the library's registry and the benchmark's spans) on
/// for one pass and collects both at the end; measures CPU time, hot-path
/// allocations and the tensor pool alongside.
class PassProbe {
 public:
  explicit PassProbe(bool traced) : traced_(traced) {
    if (traced_) {
      telemetry::reset();
      tracer().take();
      telemetry::set_enabled(true);
      tracer().set_enabled(true);
    }
    hot0_ = core::memstats().hot_allocs();
    usage0_ = usage_now();
    wall0_ = now_ns();
  }

  /// Ends the measured region; returns its wall time.
  int64_t stop() {
    wall_ = now_ns() - wall0_;
    const Usage u = usage_now();
    user_us_ = u.user_us - usage0_.user_us;
    sys_us_ = u.sys_us - usage0_.sys_us;
    hot_ = core::memstats().hot_allocs() - hot0_;
    if (traced_) {
      telemetry::set_enabled(false);
      tracer().set_enabled(false);
    }
    return wall_;
  }

  /// Adds the pass's common fields to `o` (call after stop()).
  void write(Obj& o) const {
    o.add("traced", traced_ ? "true" : "false")
        .integer("wall_ns", wall_)
        .integer("cpu_user_us", user_us_)
        .integer("cpu_sys_us", sys_us_)
        .integer("hot_allocs", hot_)
        .integer("pool_cached_bytes", detail::tensor_pool_cached_bytes())
        .integer("threads", core::num_threads());
    if (traced_) {
      o.add("telemetry", telemetry::aggregate_json(telemetry::snapshot()));
      o.add("spans", span_json(tracer().take()));
    }
  }

 private:
  bool traced_;
  int64_t hot0_ = 0, hot_ = 0;
  Usage usage0_;
  int64_t wall0_ = 0, wall_ = 0;
  int64_t user_us_ = 0, sys_us_ = 0;
};

/// True when one more repetition, as long as the mean of the `done` so far,
/// still ends within `seconds` of `t_begin`.
bool time_for_another(int64_t t_begin, double seconds, int done) {
  const double elapsed = 1e-9 * static_cast<double>(now_ns() - t_begin);
  return elapsed * (done + 1) / done <= seconds;
}

void check(PartResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

std::string hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

}  // namespace

// ---- timed subclasses --------------------------------------------------------

void TimedDecoCondenser::condense(const condense::CondenseContext& ctx) {
  Tracer::Scope span("learner.condense");
  const int64_t t0 = now_ns();
  DecoCondenser::condense(ctx);
  call_ns.push_back(now_ns() - t0);
}

// DecoLearner's own constructor seeds its DECO condenser the same way.
TimedLearner::TimedLearner(nn::ConvNet& model, core::DecoConfig config,
                           uint64_t seed, int32_t session,
                           int64_t expected_segments)
    : TimedLearner(model, config, seed, session, expected_segments,
                   new TimedDecoCondenser(model.config(), config.condenser,
                                          seed ^ 0xD3C0ull)) {}

TimedLearner::TimedLearner(nn::ConvNet& model, core::DecoConfig config,
                           uint64_t seed, int32_t session,
                           int64_t expected_segments,
                           TimedDecoCondenser* condenser)
    : DecoLearner(model, config, seed,
                  std::unique_ptr<condense::Condenser>(condenser)),
      condenser_(condenser),
      session_(session) {
  stamps_.reserve(static_cast<size_t>(expected_segments));
  condenser_->call_ns.reserve(static_cast<size_t>(expected_segments));
}

core::SegmentReport TimedLearner::observe_segment(const Tensor& images) {
  Tracer::Scope span("learner.segment", {session_, segments_seen()});
  SegmentStamp stamp;
  stamp.start_ns = now_ns();
  core::SegmentReport report = DecoLearner::observe_segment(images);
  stamp.end_ns = now_ns();
  stamps_.push_back(stamp);
  frames_ += images.dim(0);
  retained_ += static_cast<int64_t>(report.retained.size());
  skipped_ += report.segment_skipped;
  done_.fetch_add(1, std::memory_order_release);
  return report;
}

void TimedLearner::update_model_now() {
  Tracer::Scope span("learner.update");
  const int64_t t0 = now_ns();
  DecoLearner::update_model_now();
  update_ns_.push_back(now_ns() - t0);
}

void TimedLearner::save_state(const std::string& path) const {
  Tracer::Scope span("runtime.checkpoint");
  const int64_t t0 = now_ns();
  DecoLearner::save_state(path);
  save_ns_.push_back(now_ns() - t0);
}

uint32_t digest(nn::ConvNet& model, const condense::SyntheticBuffer& buffer,
                uint32_t seed) {
  uint32_t crc = seed;
  for (const nn::ParamRef& p : model.parameters())
    crc = crc32(p.value->data(), sizeof(float) * p.value->numel(), crc);
  if (buffer.storage_dtype() == DType::kF32) {
    crc = crc32(buffer.images().data(), sizeof(float) * buffer.images().numel(),
                crc);
  } else {
    crc = crc32(buffer.stored_images().data(),
                static_cast<size_t>(buffer.stored_images().stored_bytes()), crc);
  }
  return crc;
}

// ---- set-up ------------------------------------------------------------------

Inputs make_inputs(const Options& opt, SetupTimes& times) {
  const int64_t t0 = now_ns();
  Inputs in;
  in.world = std::make_unique<data::ProceduralImageWorld>(data::core50_spec(),
                                                          kWorldSeed);
  const data::ProceduralImageWorld& world = *in.world;
  in.pretrain = world.make_labeled_set(kPretrainPerClass, kDataSeed + 1);
  in.test = world.make_test_set(kTestPerClass, kDataSeed + 2);
  data::StreamConfig sc;
  sc.total_segments = kRenderedStreamSegments;
  in.stream_segments = render(world, sc, opt.seed + 4);

  in.fleet_labeled = world.make_labeled_set(2, kDataSeed + 1);
  const data::StreamConfig fsc =
      fleet_stream_config(kFleetSteadyPerSession + kFleetBurstPerSession);
  Rng phase_rng(opt.seed * 31 + 7);
  for (int64_t i = 0; i < kFleetSessions; ++i) {
    in.fleet_segments.push_back(
        render(world, fsc, opt.seed + 100 + static_cast<uint64_t>(i)));
    // Session i starts in its own slot of the period, so β-updates of
    // different sessions do not line up.
    in.fleet_offsets.push_back((static_cast<double>(i) + phase_rng.uniform()) /
                               static_cast<double>(kFleetSessions));
  }
  const int64_t t1 = now_ns();

  Rng rng(kDataSeed * 0x9E37 + 0xC0FFEE);
  in.pretrained = std::make_unique<nn::ConvNet>(model_config(32, 3), rng);
  {
    std::vector<int64_t> all(static_cast<size_t>(in.pretrain.size()));
    for (int64_t i = 0; i < in.pretrain.size(); ++i)
      all[static_cast<size_t>(i)] = i;
    const core::DecoConfig dc;
    core::train_classifier(*in.pretrained, in.pretrain.batch(all),
                           in.pretrain.labels(), kPretrainEpochs, dc.lr_model,
                           dc.weight_decay, dc.train_batch, rng);
  }
  const int64_t t2 = now_ns();

  // condense_table2's segment: the first stream segment the pretrained model
  // labels as a single class with enough retained frames.
  for (const Tensor& seg : in.stream_segments) {
    core::PseudoLabelResult pl =
        core::pseudo_label_segment(*in.pretrained, seg, stream_config(opt).threshold_m);
    if (pl.active_classes.size() != 1 ||
        static_cast<int64_t>(pl.retained.size()) < kTable2Frames)
      continue;
    const std::vector<int64_t> rows(pl.retained.begin(),
                                    pl.retained.begin() + kTable2Frames);
    in.t2_x = take(seg, rows);
    for (int64_t r : rows) {
      in.t2_y.push_back(pl.labels[static_cast<size_t>(r)]);
      in.t2_w.push_back(pl.confidences[static_cast<size_t>(r)]);
    }
    in.t2_active = pl.active_classes;
    break;
  }
  DECO_CHECK(!in.t2_y.empty(), "perfbench: no single-class stream segment");
  const nn::ConvNetConfig mc = model_config(32, 3);
  in.t2_buffer = std::make_unique<condense::SyntheticBuffer>(
      mc.num_classes, opt.ipc, mc.in_channels, mc.image_h, mc.image_w);
  Rng buffer_rng(kDataSeed + 5);
  in.t2_buffer->init_from_dataset(in.pretrain, buffer_rng);

  // Learner construction is part of set-up: build one of each and drop them.
  {
    OwnedLearner stream = make_stream_learner(opt, in);
    for (int64_t i = 0; i < kFleetSessions; ++i) make_fleet_learner(opt, in, i);
  }
  const int64_t t3 = now_ns();
  times.render_s = 1e-9 * static_cast<double>(t1 - t0);
  times.pretrain_s = 1e-9 * static_cast<double>(t2 - t1);
  times.learners_s = 1e-9 * static_cast<double>(t3 - t2);
  times.total_s = 1e-9 * static_cast<double>(t3 - t0);
  return in;
}

// ---- deco_stream ---------------------------------------------------------------

PartResult run_deco_stream(const Options& opt, const Inputs& in,
                           double seconds) {
  PartResult r;
  core::set_num_threads(opt.threads);
  std::vector<std::string> passes;
  uint32_t first_digest = 0, prefix_digest = 0;
  float acc = 0.0f;
  const int64_t t_begin = now_ns();
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass == 1;
    OwnedLearner o = make_stream_learner(opt, in);
    TimedLearner& learner = *o.learner;
    uint32_t pass_prefix = 0;
    PassProbe probe(traced);
    for (int64_t i = 0; i < kStreamSegments; ++i) {
      learner.observe_segment(in.stream_segments[static_cast<size_t>(i)]);
      if (i + 1 == kPrefixSegments) pass_prefix = digest(learner.model(), learner.buffer());
    }
    probe.stop();

    const uint32_t d = digest(learner.model(), learner.buffer());
    if (pass == 0) {
      first_digest = d;
      prefix_digest = pass_prefix;
      acc = eval::accuracy(learner.model(), in.test);
    }
    check(r, d == first_digest,
          std::string("deco_stream: ") + (traced ? "traced" : "repeated") +
              " pass digest " + hex(d) + " != " + hex(first_digest));
    r.attempted += kStreamSegments;
    r.failed += learner.skipped();

    Obj p;
    probe.write(p);
    std::vector<int64_t> lat;
    for (const SegmentStamp& s : learner.stamps()) lat.push_back(s.end_ns - s.start_ns);
    p.add("lat_ns", json_array(lat))
        .add("condense_ns", json_array(learner.condenser().call_ns))
        .add("update_ns", json_array(learner.update_ns()))
        .integer("frames", learner.frames())
        .integer("retained", learner.retained())
        .integer("rollbacks", learner.guard().stats().steps_rolled_back)
        .str("digest", hex(d));
    passes.push_back(p.text());
    if (opt.trace ? pass == 1 : !time_for_another(t_begin, seconds, pass + 1)) break;
  }

  // Byte identity across thread counts: replay at one thread.
  const int64_t replay = opt.trace ? kStreamSegments : kPrefixSegments;
  const uint32_t expected = opt.trace ? first_digest : prefix_digest;
  core::set_num_threads(1);
  {
    OwnedLearner o = make_stream_learner(opt, in);
    for (int64_t i = 0; i < replay; ++i)
      o.learner->observe_segment(in.stream_segments[static_cast<size_t>(i)]);
    const uint32_t d1 = digest(o.learner->model(), o.learner->buffer());
    check(r, d1 == expected,
          "deco_stream: 1-thread digest after " + std::to_string(replay) +
              " segments " + hex(d1) + " != " + std::to_string(opt.threads) +
              "-thread " + hex(expected));
  }
  core::set_num_threads(opt.threads);

  r.json.add("passes", json_list(passes))
      .integer("segments_per_pass", kStreamSegments)
      .integer("threads", opt.threads)
      .num("acc_pct", acc)
      .integer("thread_check_segments", replay);
  return r;
}

// ---- condense_table2 -----------------------------------------------------------

namespace {

/// One condense_table2 lane's calls: per method, the call times (wall and
/// thread CPU) and digests.
struct LaneCalls {
  std::vector<int64_t> ns[4];
  std::vector<int64_t> cpu_ns[4];
  std::vector<uint32_t> digests[4];
  int64_t rollbacks = 0;
};

/// Runs rounds of the four methods on one single-threaded lane: until the
/// time share is used up, or exactly `rounds` when rounds > 0. Lanes rotate
/// the method order so different methods overlap.
void table2_lane(const Options& opt, const Inputs& in, int lane, int rounds,
                 double seconds, LaneCalls& out) {
  const nn::ConvNetConfig mc = model_config(32, 3);
  // DECO's feature discrimination runs the deployed model, whose layers
  // cache activations: every lane needs its own copy.
  std::unique_ptr<nn::ConvNet> deployed = nn::clone_convnet(*in.pretrained);
  const int64_t t_begin = now_ns();
  for (int round = 0;; ++round) {
    for (int j = 0; j < 4; ++j) {
      const int m = (j + lane) % 4;
      condense::SyntheticBuffer buffer = *in.t2_buffer;
      auto condenser = make_table2_condenser(kTable2Methods[m], mc, opt.seed ^ 0xD3C0DE);
      Rng rng(opt.seed + 6);
      core::NumericGuard guard{core::GuardConfig{}};
      condense::CondenseContext ctx;
      ctx.buffer = &buffer;
      ctx.x_real = &in.t2_x;
      ctx.y_real = &in.t2_y;
      ctx.w_real = &in.t2_w;
      ctx.active_classes = &in.t2_active;
      ctx.deployed_model = deployed.get();
      ctx.rng = &rng;
      ctx.guard = &guard;
      const int64_t t0 = now_ns();
      const int64_t c0 = thread_cpu_ns();
      {
        Tracer::Scope span(kTable2Spans[m], {lane, round});
        condenser->condense(ctx);
      }
      out.cpu_ns[m].push_back(thread_cpu_ns() - c0);
      out.ns[m].push_back(now_ns() - t0);
      out.rollbacks += guard.stats().steps_rolled_back;
      out.digests[m].push_back(digest(*deployed, buffer));
    }
    if (rounds > 0 ? round + 1 == rounds
                   : !time_for_another(t_begin, seconds, round + 1))
      break;
  }
}

}  // namespace

PartResult run_condense_table2(const Options& opt, const Inputs& in,
                               double seconds) {
  // Every call runs its kernels on one thread. One lane per core runs side
  // by side: each call then sees all-core clocks, which vary far less from
  // run to run than a lone busy core's, and a run collects more calls.
  PartResult r;
  core::set_num_threads(1);
  const int lanes = opt.threads;
  uint32_t reference[4] = {0, 0, 0, 0};
  bool have_reference[4] = {false, false, false, false};
  std::vector<std::string> phases;
  for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
    std::vector<LaneCalls> calls(static_cast<size_t>(lanes));
    PassProbe probe(phase == 1);
    {
      std::vector<std::thread> threads;
      std::vector<std::exception_ptr> errors(static_cast<size_t>(lanes));
      for (int l = 0; l < lanes; ++l)
        threads.emplace_back([&, l] {
          try {
            table2_lane(opt, in, l, opt.trace ? 1 : 0, seconds,
                        calls[static_cast<size_t>(l)]);
          } catch (...) {
            errors[static_cast<size_t>(l)] = std::current_exception();
          }
        });
      for (std::thread& t : threads) t.join();
      for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
    }
    probe.stop();

    Obj p;
    probe.write(p);
    std::vector<std::string> per_method, per_method_cpu;
    int64_t rollbacks = 0;
    for (int m = 0; m < 4; ++m) {
      std::vector<int64_t> ns, cpu_ns;
      for (const LaneCalls& c : calls) {
        ns.insert(ns.end(), c.ns[m].begin(), c.ns[m].end());
        cpu_ns.insert(cpu_ns.end(), c.cpu_ns[m].begin(), c.cpu_ns[m].end());
        for (uint32_t d : c.digests[m]) {
          if (!have_reference[m]) reference[m] = d, have_reference[m] = true;
          check(r, d == reference[m],
                std::string("condense_table2: ") + kTable2Methods[m] +
                    " digest " + hex(d) + " != " + hex(reference[m]));
          ++r.attempted;
        }
      }
      per_method.push_back(json_array(ns));
      per_method_cpu.push_back(json_array(cpu_ns));
    }
    for (const LaneCalls& c : calls) rollbacks += c.rollbacks;
    p.add("call_ns", json_list(per_method))
        .add("call_cpu_ns", json_list(per_method_cpu))
        .integer("rollbacks", rollbacks);
    phases.push_back(p.text());
  }
  r.json.add("phases", json_list(phases))
      .add("methods", "[\"dc\",\"dsa\",\"dm\",\"deco\"]")
      .integer("lanes", lanes)
      .integer("frames", kTable2Frames)
      .integer("ipc", opt.ipc);
  return r;
}

// ---- fleet ---------------------------------------------------------------------

namespace {

struct Arrival {
  int64_t due_ns = 0;  ///< relative to the start of the phase
  int32_t session = 0;
  int32_t seq = 0;
};

struct FleetPass {
  uint32_t digest = 0;
  float acc = 0.0f;
  int64_t failed = 0;
  std::string json;
};

FleetPass fleet_pass(const Options& opt, const Inputs& in, bool traced,
                     std::vector<std::string>& failures) {
  core::set_num_threads(opt.threads);
  runtime::RuntimeConfig rc;
  rc.overflow = runtime::OverflowPolicy::kBlock;
  rc.checkpoint_every = kFleetCheckpointEvery;
  rc.checkpoint_dir = opt.scratch;
  const int64_t steady = kFleetSteadyPerSession;
  const int64_t burst = kFleetBurstPerSession;
  const int64_t per_session = steady + burst;

  std::vector<TimedLearner*> learners;
  std::vector<std::string> names;
  std::vector<std::vector<Tensor>> segments = in.fleet_segments;
  runtime::SessionManager manager(rc);
  for (int64_t i = 0; i < kFleetSessions; ++i) {
    OwnedLearner o = make_fleet_learner(opt, in, i);
    learners.push_back(o.learner.get());
    names.push_back("session" + std::to_string(i));
    manager.add_session(names.back(), std::move(o.learner), o.model);
  }

  // Open-loop steady phase: session i submits every `period`, in its own
  // phase slot.
  const double period_ns =
      1e9 * static_cast<double>(kFleetSessions) / kFleetSteadyRate;
  std::vector<Arrival> schedule;
  for (int64_t i = 0; i < kFleetSessions; ++i)
    for (int64_t k = 0; k < steady; ++k)
      schedule.push_back(
          {static_cast<int64_t>(period_ns * (in.fleet_offsets[static_cast<size_t>(i)] +
                                             static_cast<double>(k))),
           static_cast<int32_t>(i), static_cast<int32_t>(k)});
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_ns != b.due_ns ? a.due_ns < b.due_ns
                                          : a.session < b.session;
            });

  const size_t n_all = static_cast<size_t>(kFleetSessions * per_session);
  std::vector<int64_t> due(n_all, 0), submit_begin(n_all, 0), submit_end(n_all, 0);
  auto slot = [&](int64_t s, int64_t k) {
    return static_cast<size_t>(s * per_session + k);
  };
  int64_t rejected = 0;
  auto submit = [&](int64_t s, int64_t k) {
    submit_begin[slot(s, k)] = now_ns();
    if (!manager.submit(names[static_cast<size_t>(s)],
                        std::move(segments[static_cast<size_t>(s)][static_cast<size_t>(k)])))
      ++rejected;
    submit_end[slot(s, k)] = now_ns();
  };
  auto completed = [&] {
    int64_t n = 0;
    for (TimedLearner* l : learners) n += l->done();
    return n;
  };

  PassProbe probe(traced);
  manager.start();
  const int64_t steady_t0 = now_ns() + 5'000'000;
  const auto clock_t0 = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(steady_t0 - now_ns());
  for (const Arrival& a : schedule) {
    std::this_thread::sleep_until(clock_t0 + std::chrono::nanoseconds(a.due_ns));
    due[slot(a.session, a.seq)] = steady_t0 + a.due_ns;
    submit(a.session, a.seq);
  }
  const int64_t steady_submitted = now_ns();
  while (completed() < kFleetSessions * steady)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  // Burst: every session reconnects with a backlog at once.
  const int64_t burst_t0 = now_ns();
  for (int64_t k = steady; k < per_session; ++k)
    for (int64_t s = 0; s < kFleetSessions; ++s) {
      due[slot(s, k)] = burst_t0;
      submit(s, k);
    }
  manager.stop();
  probe.stop();

  FleetPass out;
  Obj p;
  probe.write(p);
  std::vector<int64_t> session, start, end, service_sum;
  uint32_t crc = 0;
  double acc_sum = 0.0;
  int64_t saves = 0;
  std::vector<int64_t> save_ns, update_ns, condense_ns;
  int64_t frames = 0, retained = 0, rollbacks = 0;
  for (int64_t s = 0; s < kFleetSessions; ++s) {
    TimedLearner& l = *learners[static_cast<size_t>(s)];
    const runtime::SessionStatus st = manager.status(names[static_cast<size_t>(s)]);
    const int64_t lost = per_session - static_cast<int64_t>(l.stamps().size());
    out.failed += st.segments_failed + st.queue.shed + st.queue.rejected + lost +
                  (st.state == runtime::SessionState::kActive ? 0 : 1);
    if (st.segments_failed + st.queue.shed + st.queue.rejected + lost > 0 ||
        st.state != runtime::SessionState::kActive)
      failures.push_back("fleet: " + st.name + " failed=" +
                         std::to_string(st.segments_failed) + " shed=" +
                         std::to_string(st.queue.shed) + " rejected=" +
                         std::to_string(st.queue.rejected) + " unprocessed=" +
                         std::to_string(lost) + " state=" +
                         runtime::session_state_name(st.state) + " " +
                         st.last_error);
    for (const SegmentStamp& stamp : l.stamps()) {
      start.push_back(stamp.start_ns);
      end.push_back(stamp.end_ns);
    }
    save_ns.insert(save_ns.end(), l.save_ns().begin(), l.save_ns().end());
    update_ns.insert(update_ns.end(), l.update_ns().begin(), l.update_ns().end());
    condense_ns.insert(condense_ns.end(), l.condenser().call_ns.begin(),
                       l.condenser().call_ns.end());
    frames += l.frames();
    retained += l.retained();
    rollbacks += l.guard().stats().steps_rolled_back;
    crc = digest(l.model(), l.buffer(), crc);
    acc_sum += eval::accuracy(l.model(), in.test);
    saves += st.checkpoints_written;
    p.integer("queue_max_depth_" + std::to_string(s), st.queue.max_depth)
        .integer("queue_block_wait_ns_" + std::to_string(s), st.queue.block_wait_ns);
  }
  out.failed += rejected;
  out.digest = crc;
  out.acc = static_cast<float>(acc_sum / static_cast<double>(kFleetSessions));
  p.integer("sessions", kFleetSessions)
      .integer("steady_per_session", steady)
      .integer("burst_per_session", burst)
      .num("steady_rate", kFleetSteadyRate)
      .integer("steady_t0_ns", steady_t0)
      .integer("steady_submitted_ns", steady_submitted)
      .integer("burst_t0_ns", burst_t0)
      .add("due_ns", json_array(due))
      .add("submit_begin_ns", json_array(submit_begin))
      .add("submit_end_ns", json_array(submit_end))
      .add("start_ns", json_array(start))
      .add("end_ns", json_array(end))
      .add("condense_ns", json_array(condense_ns))
      .add("update_ns", json_array(update_ns))
      .add("checkpoint_ns", json_array(save_ns))
      .integer("checkpoints", saves)
      .integer("frames", frames)
      .integer("retained", retained)
      .integer("rollbacks", rollbacks)
      .num("acc_pct", out.acc)
      .str("digest", hex(crc));
  out.json = p.text();
  return out;
}

}  // namespace

PartResult run_fleet(const Options& opt, const Inputs& in) {
  PartResult r;
  std::vector<std::string> passes;
  uint32_t first = 0;
  for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
    FleetPass fp = fleet_pass(opt, in, pass == 1, r.failures);
    if (pass == 0) first = fp.digest;
    check(r, fp.digest == first,
          "fleet: traced pass digest " + hex(fp.digest) + " != " + hex(first));
    r.attempted += kFleetSessions * (kFleetSteadyPerSession + kFleetBurstPerSession);
    r.failed += fp.failed;
    passes.push_back(fp.json);
  }
  r.json.add("passes", json_list(passes)).integer("threads", opt.threads);
  return r;
}

}  // namespace perfbench
