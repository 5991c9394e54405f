// Binary tensor serialization and PPM image export.
//
// On-device deployments need to persist two things across power cycles: the
// model parameters and the condensed buffer (which *is* the distilled
// knowledge). The format is a deliberately simple little-endian container:
//
//   v2: magic "DECOTNSR" | u32 version=2 | u32 ndim | i64 dims[ndim]
//       | f32 data[] | u32 crc32
//   v3: magic "DECOTNSR" | u32 version=3 | u8 dtype | u8 reserved=0
//       | u16 block | u32 ndim | i64 dims[ndim] | payload[] | u32 crc32
//
// v3 carries a storage dtype tag (deco/tensor/dtype.h): fp32 payloads are
// raw f32 (bit-exact round-trip with the source tensor), fp16 payloads are
// binary16, int8 payloads are block-quantized (per-block f16 scale +
// zero-point; `block` is the block length in elements, 0 for non-quantized
// dtypes). The CRC32 trailer (IEEE polynomial, over everything between the
// magic and the trailer) detects the torn/bit-rotted files a
// power-loss-prone device produces — in v3 it covers the *encoded* payload,
// so corruption is caught before any dequantization. v1 (no trailer) and v2
// files remain readable forever; the 2-argument write_tensor still emits v2
// byte-identically so existing fp32 files and golden fixtures are stable.
// File-path saves are atomic: data is written to `<path>.tmp` and renamed
// over the target, so a crash mid-save never destroys the previous state.
//
// The field helpers below (pod, string, RNG state) are the one record codec
// every binary container here — DECOTNSR, DECOCKPT, DECOLSAV and the
// condenser blobs inside it — is written and read with.
//
// PPM export renders CHW float images (clamped to [0,1]) as 8-bit P6 files —
// the standard way condensation papers visualize synthetic images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "deco/tensor/check.h"
#include "deco/tensor/dtype.h"
#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco {

/// IEEE CRC32 (the zlib/PNG polynomial) of `n` bytes, continuing from `seed`
/// (pass the previous return value to checksum data in chunks; 0 to start).
uint32_t crc32(const void* data, size_t n, uint32_t seed = 0);

/// Writes the raw (little-endian host) bytes of one trivially copyable value.
template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads one value written by write_pod, optionally folding its raw bytes
/// into a running CRC. Throws deco::Error on a truncated stream.
template <typename T>
T read_pod(std::istream& is, uint32_t* crc = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DECO_CHECK(static_cast<bool>(is), "binary record truncated");
  if (crc != nullptr) *crc = crc32(&v, sizeof(T), *crc);
  return v;
}

/// Writes a u32 length followed by the string's bytes.
void write_string(std::ostream& os, const std::string& s);

/// Reads a string written by write_string. Throws deco::Error on a declared
/// length of 4096 or more (names and tags only) or a truncated body.
std::string read_string(std::istream& is);

/// Writes a generator state: 4 × u64 words, u8 has_cached_normal, f64 cache.
void write_rng_state(std::ostream& os, const RngState& st);
RngState read_rng_state(std::istream& is);

/// Writes `bytes` to `path` atomically: the payload goes to `<path>.tmp`
/// first and is renamed over `path` only after a successful flush, so readers
/// never observe a torn file. Throws deco::Error on I/O failure.
void atomic_write_file(const std::string& path, const std::string& bytes);

/// Writes one fp32 tensor to a binary stream (format v2, CRC32-trailed).
/// Kept byte-identical to the pre-dtype writer so legacy fixtures and
/// default-policy state files never change. Throws deco::Error on failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Writes one tensor at storage dtype `dtype` (format v3, CRC32-trailed).
/// kF32 stores the exact bits (read_tensor round-trips bit-exactly); kF16 /
/// kQ8 quantize through the scalar reference codec in dtype.h. `block` is
/// the kQ8 block length (ignored for other dtypes).
void write_tensor(std::ostream& os, const Tensor& t, DType dtype,
                  int64_t block = kDefaultQuantBlock);

/// Writes an already-encoded quantized tensor (format v3) without
/// re-encoding — the stored bytes go to the stream verbatim, which is what
/// makes save -> load -> save byte-identical for quantized caches even
/// though quantization itself is not idempotent.
void write_qtensor(std::ostream& os, const QTensor& q);

/// Reads one tensor written by any write_tensor — v3 (dtype-aware, payload
/// dequantized to fp32), v2 (CRC-verified) or legacy v1. Throws deco::Error
/// on malformed, truncated, oversized or corrupted input, before any
/// allocation for implausible headers.
Tensor read_tensor(std::istream& is);

/// Reads one tensor record into its *stored* form without dequantizing:
/// v3 records keep their encoded payload byte-for-byte; v1/v2 records come
/// back as fp32 QTensors wrapping the raw data. Same validation and CRC
/// discipline as read_tensor.
QTensor read_qtensor(std::istream& is);

/// Convenience file-path wrappers. save_tensor is atomic (see above).
void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

/// Shape/version/dtype metadata of one serialized tensor, read without
/// touching its payload (checkpoint-inspection tooling).
struct TensorInfo {
  uint32_t version = 0;            ///< container version (1, 2 or 3)
  DType dtype = DType::kF32;       ///< storage dtype (always kF32 for v1/v2)
  int64_t block = 0;               ///< kQ8 block length; 0 otherwise
  std::vector<int64_t> shape;
  int64_t numel = 0;
  int64_t payload_bytes = 0;       ///< stored (possibly compressed) payload
                                   ///< bytes, CRC trailer excluded
};

/// Reads one tensor HEADER from the stream and seeks past the payload (and
/// v2/v3 CRC trailer) without loading or checksumming the data, leaving the
/// stream at the next record. Throws deco::Error on malformed headers or a
/// stream too short to contain the declared payload.
TensorInfo skip_tensor(std::istream& is);

/// Writes a [3, H, W] (or [1, H, W]) float image in [0, 1] as binary PPM/PGM.
void write_ppm(const std::string& path, const Tensor& image_chw);

}  // namespace deco
