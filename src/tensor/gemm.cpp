// Packed blocked GEMM (GotoBLAS/BLIS structure, scalar-source microkernel).
//
// Layout: A is packed into MR-row strips (strip s holds rows [s*MR, s*MR+MR),
// element (kk, r) at offset kk*MR + r), B into NR-column strips (element
// (kk, c) at kk*NR + c). Edge strips are zero-padded to full width — padding
// only ever lands in output lanes that the masked writeback discards, so
// Inf/NaN semantics of the real elements are untouched. The k dimension is
// never padded.
//
// Compute walks KC-sized k blocks in ascending order; within a block the
// microkernel accumulates k ascending into a local MR×NR register tile, then
// adds the tile into C (or stores it, for the first block of a non-accumulate
// call). Each output element's accumulation order is therefore a pure
// function of (k, KC) — never of the thread count. Parallelism only carves
// ownership: pack strips have disjoint destinations, and each MC×NC output
// tile is written by exactly one task. That satisfies contract shapes (a)
// and (c) in core/thread_pool.h, so results are bitwise identical at any
// DECO_NUM_THREADS.
//
// Both pack panels come from the calling thread's Workspace arena, so a
// steady-state training loop runs this kernel with zero heap traffic.

#include "deco/tensor/gemm.h"

#include <algorithm>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"

namespace deco::detail {

namespace {

// Register tile. MR*NR accumulators must fit the vector register file:
// 8 rows × 32 columns = 16 AVX-512 (or 32 AVX2) vector accumulators plus a
// broadcast register — comfortably inside 32 zmm / tight but viable in ymm.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 32;
// Cache blocking. KC sizes one packed B strip (KC*NR floats = 32 KiB) to
// roughly L1; MC*KC (64 KiB) stays well inside L2 alongside it. MC and NC
// are ownership granularity for the parallel split and must be multiples of
// MR / NR respectively.
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 64;
constexpr int64_t kNC = 512;

static_assert(kMC % kMR == 0, "MC must be a multiple of MR");
static_assert(kNC % kNR == 0, "NC must be a multiple of NR");

int64_t div_up(int64_t a, int64_t b) { return (a + b - 1) / b; }

void pack_a(const float* a, int64_t a_rs, int64_t a_cs, int64_t m, int64_t k,
            float* pack) {
  const int64_t strips = div_up(m, kMR);
  core::parallel_for(0, strips, core::grain_for(k * kMR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* dst = pack + s * k * kMR;
      const int64_t i0 = s * kMR;
      const int64_t rows = std::min<int64_t>(kMR, m - i0);
      const float* src0 = a + i0 * a_rs;
      for (int64_t kk = 0; kk < k; ++kk) {
        float* d = dst + kk * kMR;
        const float* src = src0 + kk * a_cs;
        int64_t r = 0;
        for (; r < rows; ++r) d[r] = src[r * a_rs];
        for (; r < kMR; ++r) d[r] = 0.0f;
      }
    }
  });
}

void pack_b(const float* b, int64_t b_rs, int64_t b_cs, int64_t k, int64_t n,
            float* pack) {
  const int64_t strips = div_up(n, kNR);
  core::parallel_for(0, strips, core::grain_for(k * kNR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* dst = pack + s * k * kNR;
      const int64_t j0 = s * kNR;
      const int64_t cols = std::min<int64_t>(kNR, n - j0);
      const float* src0 = b + j0 * b_cs;
      for (int64_t kk = 0; kk < k; ++kk) {
        float* d = dst + kk * kNR;
        const float* src = src0 + kk * b_rs;
        int64_t c = 0;
        for (; c < cols; ++c) d[c] = src[c * b_cs];
        for (; c < kNR; ++c) d[c] = 0.0f;
      }
    }
  });
}

// acc[r][c] += sum over kc of Apack(kk, r) * Bpack(kk, c). The fixed trip
// counts let the compiler unroll r fully and keep the whole tile in vector
// registers; k ascends, which is the accumulation order the determinism
// contract pins down.
void micro_kernel(const float* ap, const float* bp, int64_t kc,
                  float acc[kMR * kNR]) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float ar = arow[r];
      for (int64_t c = 0; c < kNR; ++c) acc[r * kNR + c] += ar * brow[c];
    }
  }
}

}  // namespace

void gemm_strided(int64_t m, int64_t n, int64_t k,
                  const float* a, int64_t a_rs, int64_t a_cs,
                  const float* b, int64_t b_rs, int64_t b_cs,
                  float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Empty contraction: the k-block loop below would never write C.
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }

  const int64_t a_strips = div_up(m, kMR);
  const int64_t b_strips = div_up(n, kNR);

  // Throughput accounting (multiply-add = 2 flops) and packing traffic; the
  // span aggregates kernel wall time per phase for the telemetry exports.
  DECO_TRACE_SCOPE("tensor/gemm");
  {
    namespace telem = core::telemetry;
    static telem::Counter& c_calls = telem::counter("gemm/calls");
    static telem::Counter& c_flops = telem::counter("gemm/flops");
    static telem::Counter& c_pack = telem::counter("gemm/pack_bytes");
    c_calls.add(1);
    c_flops.add(2 * m * n * k);
    c_pack.add((a_strips * kMR + b_strips * kNR) * k *
               static_cast<int64_t>(sizeof(float)));
  }

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  float* packB = scratch.alloc_floats(b_strips * kNR * k);
  pack_a(a, a_rs, a_cs, m, k, packA);
  pack_b(b, b_rs, b_cs, k, n, packB);

  const int64_t tiles_m = div_up(m, kMC);
  const int64_t tiles_n = div_up(n, kNC);
  core::parallel_for(0, tiles_m * tiles_n, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t ti = t / tiles_n;
      const int64_t tj = t % tiles_n;
      const int64_t i_begin = ti * kMC, i_end = std::min(i_begin + kMC, m);
      const int64_t j_begin = tj * kNC, j_end = std::min(j_begin + kNC, n);
      for (int64_t kc_begin = 0; kc_begin < k; kc_begin += kKC) {
        const int64_t kc = std::min(kKC, k - kc_begin);
        const bool store = kc_begin == 0 && !accumulate;
        for (int64_t jr = j_begin; jr < j_end; jr += kNR) {
          const float* bp = packB + ((jr / kNR) * k + kc_begin) * kNR;
          const int64_t cols = std::min(kNR, j_end - jr);
          for (int64_t ir = i_begin; ir < i_end; ir += kMR) {
            const float* ap = packA + ((ir / kMR) * k + kc_begin) * kMR;
            const int64_t rows = std::min(kMR, i_end - ir);
            alignas(64) float acc[kMR * kNR] = {};
            micro_kernel(ap, bp, kc, acc);
            for (int64_t r = 0; r < rows; ++r) {
              float* crow = c + (ir + r) * n + jr;
              const float* arow = acc + r * kNR;
              if (store) {
                for (int64_t cc = 0; cc < cols; ++cc) crow[cc] = arow[cc];
              } else {
                for (int64_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace deco::detail
