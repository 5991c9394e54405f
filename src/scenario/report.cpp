#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "deco/scenario/harness.h"
#include "deco/tensor/check.h"

namespace deco::scenario {

namespace {

// Fixed-width formatting keeps the document byte-stable across runs: the
// determinism tests memcmp whole JSON cells, so "%g"-style shortest-round-trip
// output (which can differ by libc) is off the table.
std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string cell_fields(const CellResult& c, bool with_wall) {
  std::string out;
  out += "\"scenario\": " + quoted(c.scenario);
  out += ", \"method\": " + quoted(c.method);
  out += ", \"sessions\": " + std::to_string(c.sessions);
  out += ", \"sessions_admitted\": " + std::to_string(c.sessions_admitted);
  out += ", \"cache_dtype\": " + quoted(c.cache_dtype);
  out += ", \"cache_stored_bytes\": " + std::to_string(c.cache_stored_bytes);
  out += ", \"cache_logical_bytes\": " + std::to_string(c.cache_logical_bytes);
  out += ", \"segments_submitted\": " + std::to_string(c.segments_submitted);
  out += ", \"segments_processed\": " + std::to_string(c.segments_processed);
  out += ", \"segments_shed\": " + std::to_string(c.segments_shed);
  out += ", \"accuracy\": " + fixed6(c.accuracy);
  out += ", \"forgetting\": " + fixed6(c.forgetting);
  out += ", \"pseudo_label_accuracy\": " + fixed6(c.pseudo_label_accuracy);
  out += ", \"peak_pool_bytes\": " + std::to_string(c.peak_pool_bytes);
  if (with_wall) out += ", \"wall_seconds\": " + fixed6(c.wall_seconds);
  return out;
}

}  // namespace

std::string CellResult::deterministic_json() const {
  return "{" + cell_fields(*this, /*with_wall=*/false) + "}";
}

std::string matrix_json(const MatrixReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"deco.bench_scenarios.v2\",\n";
  out += "  \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < report.cells.size(); ++i) {
    out += "    {" + cell_fields(report.cells[i], /*with_wall=*/true) + "}";
    out += i + 1 < report.cells.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

void write_matrix_json(const MatrixReport& report, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DECO_CHECK(os.is_open(), "scenario: cannot open " + path + " for writing");
  os << matrix_json(report);
  DECO_CHECK(os.good(), "scenario: short write to " + path);
}

std::vector<std::string> matrix_failures(const MatrixReport& report,
                                         size_t expected_cells) {
  std::vector<std::string> failures;
  for (const CellResult& c : report.cells) {
    if (!std::isfinite(c.accuracy) || !std::isfinite(c.forgetting)) {
      std::ostringstream msg;
      msg << "non-finite metric in cell " << c.scenario << "/" << c.method;
      failures.push_back(msg.str());
    }
    if (c.segments_processed + c.segments_shed != c.segments_submitted) {
      std::ostringstream msg;
      msg << c.scenario << "/" << c.method << " lost "
          << c.segments_submitted - c.segments_processed - c.segments_shed
          << " segments (submitted " << c.segments_submitted
          << ", processed " << c.segments_processed << ", shed "
          << c.segments_shed << ")";
      failures.push_back(msg.str());
    }
  }
  // Paired memory-pressure gates: whenever a method ran both mem_pressure
  // cells, the int8 cache must actually compress (>= 3.5x vs the logical
  // fp32 bytes), admit at least as many sessions under the same budget, and
  // stay within a smoke-test accuracy band of the fp32 cell.
  for (const CellResult& f32 : report.cells) {
    if (f32.scenario != "mem_pressure_fp32") continue;
    for (const CellResult& q8 : report.cells) {
      if (q8.scenario != "mem_pressure_int8" || q8.method != f32.method)
        continue;
      const double ratio =
          q8.cache_stored_bytes > 0
              ? static_cast<double>(q8.cache_logical_bytes) /
                    static_cast<double>(q8.cache_stored_bytes)
              : 0.0;
      if (ratio < 3.5) {
        std::ostringstream msg;
        msg << "mem_pressure_int8/" << q8.method << " cache compression "
            << ratio << "x < 3.5x";
        failures.push_back(msg.str());
      }
      if (q8.sessions_admitted < f32.sessions_admitted) {
        std::ostringstream msg;
        msg << "mem_pressure_int8/" << q8.method << " admitted "
            << q8.sessions_admitted << " sessions < fp32's "
            << f32.sessions_admitted;
        failures.push_back(msg.str());
      }
      if (std::abs(q8.accuracy - f32.accuracy) > 20.0f) {
        std::ostringstream msg;
        msg << "mem_pressure int8 vs fp32 accuracy delta "
            << std::abs(q8.accuracy - f32.accuracy) << " > 20 for "
            << q8.method;
        failures.push_back(msg.str());
      }
    }
  }
  if (report.cells.size() != expected_cells) {
    std::ostringstream msg;
    msg << "expected " << expected_cells << " cells, got "
        << report.cells.size();
    failures.push_back(msg.str());
  }
  return failures;
}

}  // namespace deco::scenario
