// Bit-level utilities used by the SWIFI fault injector and the Fig. 15
// bit-flip magnitude study: generating error masks with a prescribed number
// of set bits ("number of error bits" in the paper), and flipping bits of
// 32-bit architecture state regardless of its interpretation (F32/I32/PTR).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/rng.hpp"

namespace hauberk::common {

/// Generate a random 32-bit mask with exactly `bits` set bits (1 <= bits <= 32).
/// This emulates a single- or multi-bit error pattern in one word of
/// architecture state, as in Section VII(ii) / Fig. 14 of the paper.
std::uint32_t random_mask(Rng& rng, int bits);

/// Apply an error mask to a raw 32-bit word (the SWIFI primitive: the paper's
/// FI library XORs the mask into the target state via the ALU).
constexpr std::uint32_t apply_mask(std::uint32_t word, std::uint32_t mask) noexcept {
  return word ^ mask;
}

/// Reinterpret helpers between float and its bit pattern.
constexpr std::uint32_t f32_bits(float v) noexcept { return std::bit_cast<std::uint32_t>(v); }
constexpr float bits_f32(std::uint32_t b) noexcept { return std::bit_cast<float>(b); }

/// Flip `bits` random bits of a float value (Fig. 15 study).
inline float flip_float_bits(Rng& rng, float v, int bits) {
  return bits_f32(apply_mask(f32_bits(v), random_mask(rng, bits)));
}

/// Order-of-magnitude bucket index of |x| for power-of-ten histograms:
/// returns floor(log10(|x|)) clamped to [lo, hi]; `zero_bucket` semantics are
/// handled by callers (|x| == 0 maps to lo).
int magnitude_decade(double x, int lo, int hi) noexcept;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range, resumable:
/// pass the previous return value as `seed` to extend a running checksum.
/// Guards the on-disk campaign checkpoint payloads and result-log streams —
/// unlike the FNV digests used for in-memory identity, CRC detects the
/// torn/truncated/bit-flipped file states a killed campaign run can leave.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0) noexcept;

/// 64-bit FNV-1a, fed byte by byte: the in-memory identity digests
/// (programs, plans, campaigns, translator remarks, interval environments,
/// guardian outputs).  The basis, the bytes fed and their order are part of
/// each digest's definition.
class Fnv1a {
 public:
  /// The standard FNV-1a offset basis.
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  /// The standard basis's decimal form with its last digit dropped.  Every
  /// digest except the translator's remark digest starts from it; they are
  /// persisted (golden files, checkpoints, campaign headers), so it stays.
  static constexpr std::uint64_t kLegacyBasis = 1469598103934665603ull;

  explicit Fnv1a(std::uint64_t basis = kOffsetBasis) noexcept : h_(basis) {}

  Fnv1a& bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) mix(p[i]);
    return *this;
  }
  /// The object representation of a trivially copyable value.
  template <typename T>
  Fnv1a& pod(const T& v) noexcept {
    return bytes(&v, sizeof v);
  }
  /// `v` as 8 bytes, least significant first.
  Fnv1a& u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  /// The length as u64, then the characters.
  Fnv1a& str(std::string_view s) noexcept { return u64(s.size()).bytes(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(unsigned char c) noexcept { h_ = (h_ ^ c) * 0x100000001b3ull; }

  std::uint64_t h_;
};

}  // namespace hauberk::common
