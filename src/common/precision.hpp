#pragma once
/// \file precision.hpp
/// Precision policies: the paper's FP64, FP32, and mixed FP16-storage/FP32-
/// compute modes (§5.6).  Solvers are templated on a policy; `storage_t` is
/// what lives in the big state arrays, `compute_t` is what flux kernels use.
///
/// Besides the per-element `load`/`store`, policies expose *batch* line
/// hooks: `load_line`/`store_line` convert whole contiguous (or strided)
/// spans between storage and compute precision.  For FP64 and FP32 these are
/// identity pass-throughs (a memcpy / strided copy); for FP16/32 and
/// BF16/32 they hit the batched conversion lanes in common::half /
/// common::bfloat16, which is what makes mixed-precision storage
/// competitive on CPUs (see PERF.md).  The batch hooks are element-wise
/// bitwise-identical to the per-element `load`/`store`
/// (tests/test_half_batch.cpp, tests/test_bfloat16.cpp).  The solver hot
/// paths of converting policies always go through the batch hooks; those of
/// identity policies read and write the fields directly.

#include <cstddef>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/bfloat16.hpp"
#include "common/half.hpp"

namespace igr::common {

/// Full double precision (the CFD status quo the paper compares against).
struct Fp64 {
  using storage_t = double;
  using compute_t = double;
  static constexpr std::string_view name = "FP64";
};

/// Single-precision storage and compute.
struct Fp32 {
  using storage_t = float;
  using compute_t = float;
  static constexpr std::string_view name = "FP32";
};

/// Mixed mode: binary16 storage, binary32 compute (§5.6).  Viable for IGR
/// because its numerics are well-conditioned; WENO/HLLC baselines are not
/// stable below FP64 (§4.3), which the test suite demonstrates.
struct Fp16x32 {
  using storage_t = half;
  using compute_t = float;
  static constexpr std::string_view name = "FP16/32";
};

/// Mixed mode: bfloat16 storage, binary32 compute.  Trades binary16's 11
/// mantissa bits for binary32's full exponent range — the right end of the
/// range-vs-precision axis for blast/jet workloads whose pressures span
/// decades (Sedov, the Mach-10 jet family).
struct Bf16x32 {
  using storage_t = bfloat16;
  using compute_t = float;
  static constexpr std::string_view name = "BF16/32";
};

/// Storage types whose batch span converters live in a dedicated conversion
/// lane (common::half / common::bfloat16) rather than a cast loop.
template <class S>
inline constexpr bool has_conversion_lane =
    std::is_same_v<S, half> || std::is_same_v<S, bfloat16>;

/// Load a stored value at compute precision.
template <class Policy>
typename Policy::compute_t load(typename Policy::storage_t v) {
  return static_cast<typename Policy::compute_t>(v);
}

/// Round a computed value into storage precision.
template <class Policy>
typename Policy::storage_t store(typename Policy::compute_t v) {
  return static_cast<typename Policy::storage_t>(v);
}

/// True when the policy stores at a different precision than it computes
/// (i.e. loads/stores actually convert).
template <class Policy>
inline constexpr bool converts_storage =
    !std::is_same_v<typename Policy::storage_t, typename Policy::compute_t>;

/// Batch load: `dst[i] = compute(src[i])` for `n` contiguous elements.
template <class Policy>
inline void load_line(const typename Policy::storage_t* src,
                      typename Policy::compute_t* dst, std::size_t n) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  if constexpr (std::is_same_v<S, C>) {
    std::memcpy(dst, src, n * sizeof(C));
  } else if constexpr (has_conversion_lane<S>) {
    convert_to_float(src, dst, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<C>(src[i]);
  }
}

/// Batch store: `dst[i] = storage(src[i])` for `n` contiguous elements.
template <class Policy>
inline void store_line(const typename Policy::compute_t* src,
                       typename Policy::storage_t* dst, std::size_t n) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  if constexpr (std::is_same_v<S, C>) {
    std::memcpy(dst, src, n * sizeof(S));
  } else if constexpr (has_conversion_lane<S>) {
    convert_from_float(src, dst, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<S>(src[i]);
  }
}

/// Strided batch load: `dst[i] = compute(src[i * stride])`.  For converting
/// policies the elements are gathered (cheap 2-byte moves for binary16)
/// into a small stack chunk and converted through the batch lane, so even
/// non-unit-stride sweeps pay SIMD conversion cost, not scalar.
template <class Policy>
inline void load_line_strided(const typename Policy::storage_t* src,
                              std::ptrdiff_t stride,
                              typename Policy::compute_t* dst, std::size_t n) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  if (stride == 1) return load_line<Policy>(src, dst, n);
  if constexpr (has_conversion_lane<S>) {
    constexpr std::size_t kChunk = 256;
    S tmp[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = (n - base < kChunk) ? (n - base) : kChunk;
      const S* s = src + static_cast<std::ptrdiff_t>(base) * stride;
      for (std::size_t i = 0; i < m; ++i)
        tmp[i] = s[static_cast<std::ptrdiff_t>(i) * stride];
      convert_to_float(tmp, dst + base, m);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = static_cast<C>(src[static_cast<std::ptrdiff_t>(i) * stride]);
  }
}

/// Strided batch store: `dst[i * stride] = storage(src[i])`.
template <class Policy>
inline void store_line_strided(const typename Policy::compute_t* src,
                               typename Policy::storage_t* dst,
                               std::ptrdiff_t stride, std::size_t n) {
  using S = typename Policy::storage_t;
  if (stride == 1) return store_line<Policy>(src, dst, n);
  if constexpr (has_conversion_lane<S>) {
    constexpr std::size_t kChunk = 256;
    S tmp[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = (n - base < kChunk) ? (n - base) : kChunk;
      convert_from_float(src + base, tmp, m);
      S* d = dst + static_cast<std::ptrdiff_t>(base) * stride;
      for (std::size_t i = 0; i < m; ++i)
        d[static_cast<std::ptrdiff_t>(i) * stride] = tmp[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      dst[static_cast<std::ptrdiff_t>(i) * stride] = static_cast<S>(src[i]);
  }
}

}  // namespace igr::common
