// Vectorized first-match search over packed keys.
//
// The cache's per-set partial-tag rows and the streamer's page keys (u16)
// and the MSHR file's outstanding-line array (u64) are tiny packed arrays
// scanned on every simulated access. This header builds an equality bitmask over such an
// array — 8 u16 keys per SSE2 compare; 2 u64 keys with SSE2, 4 with AVX2 —
// so callers resolve "which slot holds this key" with one countr_zero
// instead of a branchy element-at-a-time loop. Bit i of the mask corresponds
// to slot i, so countr_zero preserves lowest-slot-wins order and artifacts
// stay byte-identical with the scalar scan.
//
// Two escape hatches keep the scalar path honest:
//   - compile time: define SPF_NO_SIMD (SPF_SIMD_MATCH stays undefined);
//   - run time: set the SPF_FORCE_SCALAR_TAGS environment variable (any
//     value) — callers check `force_scalar` before taking the vector path,
//     which is how CI exercises the fallback on SIMD hardware.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>

#if (defined(__SSE2__) || defined(__AVX2__)) && !defined(SPF_NO_SIMD)
#define SPF_SIMD_MATCH 1
#include <immintrin.h>
#endif

namespace spf::simd {

/// Read once per process; pins every match to the scalar path when set.
inline const bool force_scalar =
    std::getenv("SPF_FORCE_SCALAR_TAGS") != nullptr;

#ifdef SPF_SIMD_MATCH
/// Bit i set iff vals[i] == needle, for i in [0, n). n may exceed 64 only if
/// the caller ignores the high matches; all current users keep n <= 64.
inline std::uint64_t match_mask_u64(const std::uint64_t* vals, std::uint32_t n,
                                    std::uint64_t needle) noexcept {
  std::uint64_t m = 0;
  std::uint32_t i = 0;
#ifdef __AVX2__
  const __m256i needle4 = _mm256_set1_epi64x(static_cast<long long>(needle));
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i eq = _mm256_cmpeq_epi64(v, needle4);
    m |= static_cast<std::uint64_t>(
             _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
         << i;
  }
#endif
  const __m128i needle2 = _mm_set1_epi64x(static_cast<long long>(needle));
  for (; i + 2 <= n; i += 2) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i));
    // SSE2 has no 64-bit integer compare; build one from the 32-bit compare
    // by requiring both halves of each lane to match.
    const __m128i eq32 = _mm_cmpeq_epi32(v, needle2);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    m |= static_cast<std::uint64_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)))
         << i;
  }
  for (; i < n; ++i) {
    m |= static_cast<std::uint64_t>(vals[i] == needle) << i;
  }
  return m;
}

/// Bit i set iff keys[i] == needle, for i in [0, n). n must be a multiple of
/// 8 and at most 64 (the cache pads its partial-tag rows to 8 keys).
inline std::uint64_t match_mask_u16(const std::uint16_t* keys, std::uint32_t n,
                                    std::uint16_t needle) noexcept {
  const __m128i needle8 = _mm_set1_epi16(static_cast<short>(needle));
  std::uint64_t m = 0;
  std::uint32_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i lo = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i)), needle8);
    const __m128i hi = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i + 8)),
        needle8);
    // Saturating pack turns each all-ones/all-zero u16 lane into one byte,
    // so movemask yields exactly one bit per key.
    m |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
             _mm_movemask_epi8(_mm_packs_epi16(lo, hi))))
         << i;
  }
  if (i < n) {
    const __m128i eq = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i)), needle8);
    m |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
             _mm_movemask_epi8(_mm_packs_epi16(eq, _mm_setzero_si128()))))
         << i;
  }
  return m;
}
#endif  // SPF_SIMD_MATCH

}  // namespace spf::simd
