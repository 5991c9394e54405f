#include "deco/nn/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "deco/tensor/check.h"
#include "deco/tensor/serialize.h"

namespace deco::nn {

namespace {
constexpr char kMagic[8] = {'D', 'E', 'C', 'O', 'C', 'K', 'P', 'T'};
}  // namespace

void save_checkpoint(const std::string& path, Module& model) {
  save_checkpoint(path, model, DType::kF32);
}

void save_checkpoint(const std::string& path, Module& model, DType dtype,
                     int64_t block) {
  // Serialize to memory first, then write atomically: a crash mid-save must
  // never clobber the previous on-disk checkpoint.
  std::ostringstream os(std::ios::binary);
  os.write(kMagic, sizeof(kMagic));
  auto params = model.parameters();
  write_pod(os, static_cast<uint32_t>(params.size()));
  for (ParamRef& p : params) {
    write_string(os, p.name);
    // fp32 keeps the legacy v2 record so default checkpoints stay
    // byte-identical; other dtypes emit dtype-tagged v3 records.
    if (dtype == DType::kF32)
      write_tensor(os, *p.value);
    else
      write_tensor(os, *p.value, dtype, block);
  }
  DECO_CHECK(static_cast<bool>(os), "save_checkpoint: serialization failed");
  atomic_write_file(path, os.str());
}

void load_checkpoint(const std::string& path, Module& model) {
  std::ifstream is(path, std::ios::binary);
  DECO_CHECK(is.is_open(), "load_checkpoint: cannot open " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  DECO_CHECK(static_cast<bool>(is) && std::equal(magic, magic + 8, kMagic),
             "load_checkpoint: not a DECO checkpoint");
  const uint32_t count = read_pod<uint32_t>(is);
  auto params = model.parameters();
  DECO_CHECK(count == params.size(),
             "load_checkpoint: parameter count mismatch (file " +
                 std::to_string(count) + ", model " +
                 std::to_string(params.size()) + ")");
  // Stage every tensor and validate the full file before touching the model:
  // a truncated or mismatched checkpoint must not leave the model half-loaded.
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (ParamRef& p : params) {
    const std::string name = read_string(is);
    DECO_CHECK(name == p.name, "load_checkpoint: parameter order mismatch: "
                               "expected " + p.name + ", found " + name);
    Tensor t = read_tensor(is);
    DECO_CHECK(t.shape() == p.value->shape(),
               "load_checkpoint: shape mismatch for " + p.name);
    staged.push_back(std::move(t));
  }
  for (size_t i = 0; i < params.size(); ++i)
    *params[i].value = std::move(staged[i]);
}

}  // namespace deco::nn
