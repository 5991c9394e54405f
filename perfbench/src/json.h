// Minimal JSON text writer for the harness's raw-measurement file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>)
      out += json_num(v[i]);
    else
      out += std::to_string(v[i]);
  }
  return out + "]";
}

/// A list of already-serialized values.
inline std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) out += (i > 0 ? "," : "") + items[i];
  return out + "]";
}

/// An object under construction; add() takes already-serialized values.
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& json_value) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_quote(key) + ":" + json_value;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return add(key, json_num(v)); }
  Obj& integer(const std::string& key, int64_t v) {
    return add(key, std::to_string(v));
  }
  Obj& str(const std::string& key, const std::string& v) {
    return add(key, json_quote(v));
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
