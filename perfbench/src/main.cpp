// perfbench_deco: runs the benchmark's three parts once and writes their raw
// measurements as JSON; perfbench/run.py turns them into metrics.
//
//   perfbench_deco --out FILE --scratch DIR [--ipc N] [--seed N]
//                  [--seconds S] [--trace 0|1] [--threads N] [--setups N]
//
// Set-up runs on one thread. Untraced runs switch the library's telemetry
// off. A traced run measures every part twice, untraced and then traced, so
// the digests of both can be compared and the tracing overhead read off.
#include <sys/resource.h>

#include <cpuid.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "parts.h"

namespace {

using perfbench::Obj;
using perfbench::json_quote;

std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string cpu_flags() {
  std::vector<std::string> out;
  auto flag = [&](const char* name, bool on) {
    if (on) out.push_back(json_quote(name));
  };
  __builtin_cpu_init();
  flag("sse4.2", __builtin_cpu_supports("sse4.2"));
  flag("avx", __builtin_cpu_supports("avx"));
  flag("avx2", __builtin_cpu_supports("avx2"));
  flag("fma", __builtin_cpu_supports("fma"));
  flag("avx512f", __builtin_cpu_supports("avx512f"));
  flag("avx512bw", __builtin_cpu_supports("avx512bw"));
  flag("avx512vl", __builtin_cpu_supports("avx512vl"));
  flag("avx512vnni", __builtin_cpu_supports("avx512vnni"));
  return perfbench::json_list(out);
}

std::string fingerprint(const perfbench::Options& opt) {
  Obj o;
  o.str("cpu_model", cpu_model())
      .add("cpu_flags", cpu_flags())
      .integer("nproc", std::thread::hardware_concurrency())
      .str("compiler", PERFBENCH_CXX_ID)
      .str("cmake_cxx_flags_release", PERFBENCH_CXX_FLAGS)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .add("telemetry_compiled", DECO_TELEMETRY_COMPILED ? "true" : "false")
      .integer("deco_num_threads_deco_stream", opt.threads)
      .integer("deco_num_threads_condense_table2", 1)
      .integer("deco_num_threads_fleet", opt.threads);
  return o.text();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int run(int argc, char** argv) {
  perfbench::Options opt;
  std::string out_path;
  int setups = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--ipc") opt.ipc = std::stoll(v);
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--threads") opt.threads = std::stoi(v);
    else if (k == "--setups") setups = std::stoi(v);
    else if (k == "--scratch") opt.scratch = v;
    else if (k == "--out") out_path = v;
    else {
      std::cerr << "perfbench_deco: unknown option " << k << "\n";
      return 2;
    }
  }
  if (out_path.empty() || opt.scratch.empty() || setups < 1 || opt.ipc < 1 ||
      opt.threads < 1 || opt.seconds <= 0.0) {
    std::cerr << "perfbench_deco: bad arguments\n";
    return 2;
  }
  deco::core::telemetry::set_enabled(false);
  perfbench::tracer().set_enabled(false);

  // Set-up runs several times, on one thread; the inputs of the last one are
  // used, and every repetition must produce the same pretrained model.
  std::vector<double> total, cpu, render, pretrain, learners;
  std::vector<std::string> failures;
  perfbench::Inputs in;
  uint32_t setup_digest = 0;
  deco::core::set_num_threads(1);
  for (int i = 0; i < setups; ++i) {
    perfbench::SetupTimes t;
    const double cpu0 = process_cpu_s();
    in = perfbench::make_inputs(opt, t);
    cpu.push_back(process_cpu_s() - cpu0);
    total.push_back(t.total_s);
    render.push_back(t.render_s);
    pretrain.push_back(t.pretrain_s);
    learners.push_back(t.learners_s);
    const uint32_t d = perfbench::digest(*in.pretrained, *in.t2_buffer);
    if (i == 0) setup_digest = d;
    if (d != setup_digest) failures.push_back("set-up is not deterministic");
  }

  // Shares of --seconds; the fleet's open-loop schedule has a fixed length.
  perfbench::PartResult stream =
      perfbench::run_deco_stream(opt, in, 0.25 * opt.seconds);
  perfbench::PartResult table2 =
      perfbench::run_condense_table2(opt, in, 0.45 * opt.seconds);
  perfbench::PartResult fleet = perfbench::run_fleet(opt, in);

  int64_t attempted = 0, failed = 0;
  Obj parts;
  for (auto* p : {&stream, &table2, &fleet}) {
    attempted += p->attempted;
    failed += p->failed;
    failures.insert(failures.end(), p->failures.begin(), p->failures.end());
  }
  parts.add("deco_stream", stream.json.text())
      .add("condense_table2", table2.json.text())
      .add("fleet", fleet.json.text());
  std::vector<std::string> quoted;
  for (const std::string& f : failures) quoted.push_back(json_quote(f));
  Obj setup;
  setup.add("total_s", perfbench::json_array(total))
      .add("cpu_s", perfbench::json_array(cpu))
      .add("render_s", perfbench::json_array(render))
      .add("pretrain_s", perfbench::json_array(pretrain))
      .add("learners_s", perfbench::json_array(learners));
  Obj doc;
  doc.add("fingerprint", fingerprint(opt))
      .integer("seed", static_cast<int64_t>(opt.seed))
      .integer("ipc", opt.ipc)
      .add("traced", opt.trace ? "true" : "false")
      .add("setup", setup.text())
      .add("parts", parts.text())
      .integer("attempted", attempted)
      .integer("failed", failed)
      .add("failures", perfbench::json_list(quoted))
      .integer("peak_rss_kb", peak_rss_kb());
  std::ofstream f(out_path);
  f << doc.text() << "\n";
  f.close();
  if (!f) {
    std::cerr << "perfbench_deco: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_deco: " << e.what() << "\n";
    return 1;
  }
}
