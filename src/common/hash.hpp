#pragma once
/// \file hash.hpp
/// Checksum primitives for the fault-tolerance layer:
///
///   - CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-component
///     payload checksums of the v2 checkpoint format (src/io/checkpoint.hpp).
///     Detects torn writes and bit corruption before a restart consumes bad
///     data.
///   - FNV-1a 64-bit — the canonical conserved-state field checksum recorded
///     per case by the golden-regression suite (cases::RunResult::state_fnv).
///
/// Both are incremental (streaming) so large fields hash row-by-row without
/// staging a copy.  The canonical state hash walks the interior in
/// (component, k, j, i) order over double-cast values, making it a
/// precision-independent *encoding* (the hashed values themselves still carry
/// the storage precision, so FP64 and FP16/32 runs hash differently — as they
/// must: the hash is a bitwise fingerprint of the computed state).

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/field3.hpp"

namespace igr::common {

namespace detail {

constexpr std::uint32_t crc32_entry(std::uint32_t i) {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k)
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  return c;
}

/// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][b] is
/// the CRC register contribution of byte b followed by k zero bytes, so
/// eight table lookups advance the register by eight bytes at once.
struct Crc32Table {
  std::uint32_t t[8][256];
  constexpr Crc32Table() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) t[0][i] = crc32_entry(i);
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
  }
};

inline constexpr Crc32Table kCrc32Table{};

/// Little-endian 32-bit load (one mov on x86; byte order fixed everywhere).
constexpr std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Streaming CRC32 (IEEE), slicing-by-8: eight bytes per step through
/// eight independent table lookups, the tail a byte at a time.  Same
/// polynomial and values as the byte-at-a-time table walk.  value() may be
/// read at any point; update may continue afterwards.
class Crc32 {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    const auto& t = detail::kCrc32Table.t;
    std::uint32_t c = state_;
    for (; n >= 8; n -= 8, p += 8) {
      const std::uint32_t lo = detail::load_le32(p) ^ c;
      const std::uint32_t hi = detail::load_le32(p + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    state_ = c;
  }
  [[nodiscard]] std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n) {
  Crc32 c;
  c.update(data, n);
  return c.value();
}

/// Streaming FNV-1a (64-bit).
class Fnv1a64 {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
    state_ = h;
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

/// Canonical conserved-state fingerprint: FNV-1a over the interior values,
/// double-cast, in (component, k, j, i) order.  Identical state bits =>
/// identical hash, independent of storage layout, ghost depth, or rank
/// decomposition of the run that produced the state.
template <class T>
[[nodiscard]] std::uint64_t state_fnv1a(const StateField3<T>& q) {
  Fnv1a64 h;
  for (int c = 0; c < kNumVars; ++c) {
    for (int k = 0; k < q.nz(); ++k) {
      for (int j = 0; j < q.ny(); ++j) {
        for (int i = 0; i < q.nx(); ++i) {
          const double v = static_cast<double>(q[c](i, j, k));
          unsigned char bytes[sizeof(double)];
          std::memcpy(bytes, &v, sizeof(double));
          h.update(bytes, sizeof(double));
        }
      }
    }
  }
  return h.value();
}

}  // namespace igr::common
