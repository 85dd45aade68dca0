#include "xml/char_class.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define XQMFT_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define XQMFT_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace xqmft {

namespace {

bool SimdDefault() {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  const char* e = std::getenv("XQMFT_SIMD");
  if (e != nullptr &&
      (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0)) {
    return false;
  }
  return true;
#else
  return false;
#endif
}

std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> flag{SimdDefault()};
  return flag;
}

// ---------------------------------------------------------------------------
// Scalar fallbacks (always present; also finish SIMD tails)
// ---------------------------------------------------------------------------

std::size_t ScalarTextRun(const char* p, std::size_t n, std::size_t i,
                          bool* all_ws) {
  bool ws = true;
  for (; i < n; ++i) {
    char c = p[i];
    if (c == '<' || c == '&') break;
    ws = ws && (CharClassOf(c) & kClsWs) != 0;
  }
  *all_ws = *all_ws && ws;
  return i;
}

std::size_t ScalarNameRun(const char* p, std::size_t n, std::size_t i) {
  for (; i < n; ++i) {
    if (!(CharClassOf(p[i]) & kClsNameChar)) break;
  }
  return i;
}

std::size_t ScalarWsRun(const char* p, std::size_t n, std::size_t i) {
  for (; i < n; ++i) {
    if (!(CharClassOf(p[i]) & kClsWs)) break;
  }
  return i;
}

std::size_t ScalarAttrRun(const char* p, std::size_t n, std::size_t i,
                          char quote) {
  for (; i < n; ++i) {
    char c = p[i];
    if (c == quote || c == '&') break;
  }
  return i;
}

// Finishes a skip run from offset i, adding to the caller's newline tally.
std::size_t ScalarSkipRun(const char* p, std::size_t n, std::size_t i,
                          std::size_t* newlines, std::size_t* line_end) {
  for (; i < n; ++i) {
    char c = p[i];
    if (c == '<' || c == '&') break;
    if (c == '\n') {
      ++*newlines;
      *line_end = i + 1;
    }
  }
  return i;
}

#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
inline unsigned CountTrailingZeros(unsigned long long mask) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(mask));
#else
  unsigned k = 0;
  while ((mask & 1u) == 0) {
    mask >>= 1;
    ++k;
  }
  return k;
#endif
}

inline unsigned PopCount(unsigned long long mask) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_popcountll(mask));
#else
  unsigned k = 0;
  for (; mask != 0; mask &= mask - 1) ++k;
  return k;
#endif
}

// Index of the highest set bit of a non-zero mask.
inline unsigned HighestBit(unsigned long long mask) {
#if defined(__GNUC__) || defined(__clang__)
  return 63u - static_cast<unsigned>(__builtin_clzll(mask));
#else
  unsigned k = 0;
  while (mask >>= 1) ++k;
  return k;
#endif
}
#endif

#if defined(XQMFT_SIMD_SSE2)

// 16-byte classification blocks. Stop masks come from byte-equality
// compares; the whitespace mask is the union of the four kClsWs bytes, so
// both halves of the old two-pass (memchr then IsAllWs) fold into one sweep.

inline unsigned WsMask16(__m128i v) {
  __m128i ws = _mm_or_si128(
      _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(' ')),
                   _mm_cmpeq_epi8(v, _mm_set1_epi8('\t'))),
      _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('\n')),
                   _mm_cmpeq_epi8(v, _mm_set1_epi8('\r'))));
  return static_cast<unsigned>(_mm_movemask_epi8(ws));
}

std::size_t SimdTextRun(const char* p, std::size_t n, bool* all_ws) {
  std::size_t i = 0;
  bool ws = true;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    __m128i stop = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('<')),
                                _mm_cmpeq_epi8(v, _mm_set1_epi8('&')));
    unsigned stop_mask = static_cast<unsigned>(_mm_movemask_epi8(stop));
    unsigned ws_mask = WsMask16(v);
    if (stop_mask != 0) {
      unsigned k = CountTrailingZeros(stop_mask);
      ws = ws && ((~ws_mask & ((1u << k) - 1)) == 0);
      *all_ws = *all_ws && ws;
      return i + k;
    }
    ws = ws && (ws_mask == 0xFFFFu);
  }
  *all_ws = *all_ws && ws;
  return ScalarTextRun(p, n, i, all_ws);
}

std::size_t SimdNameRun(const char* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    // Case-folded alpha range: high-bit (UTF-8) bytes stay negative under
    // the signed compares and correctly classify as non-name.
    __m128i lower = _mm_or_si128(v, _mm_set1_epi8(0x20));
    __m128i alpha =
        _mm_and_si128(_mm_cmpgt_epi8(lower, _mm_set1_epi8('a' - 1)),
                      _mm_cmpgt_epi8(_mm_set1_epi8('z' + 1), lower));
    __m128i digit =
        _mm_and_si128(_mm_cmpgt_epi8(v, _mm_set1_epi8('0' - 1)),
                      _mm_cmpgt_epi8(_mm_set1_epi8('9' + 1), v));
    __m128i punct = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('_')),
                     _mm_cmpeq_epi8(v, _mm_set1_epi8(':'))),
        _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('.')),
                     _mm_cmpeq_epi8(v, _mm_set1_epi8('-'))));
    __m128i name = _mm_or_si128(_mm_or_si128(alpha, digit), punct);
    unsigned not_name =
        0xFFFFu ^ static_cast<unsigned>(_mm_movemask_epi8(name));
    if (not_name != 0) return i + CountTrailingZeros(not_name);
  }
  return ScalarNameRun(p, n, i);
}

std::size_t SimdWsRun(const char* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    unsigned not_ws = 0xFFFFu ^ WsMask16(v);
    if (not_ws != 0) return i + CountTrailingZeros(not_ws);
  }
  return ScalarWsRun(p, n, i);
}

std::size_t SimdAttrRun(const char* p, std::size_t n, char quote) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    __m128i stop = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(quote)),
                                _mm_cmpeq_epi8(v, _mm_set1_epi8('&')));
    unsigned stop_mask = static_cast<unsigned>(_mm_movemask_epi8(stop));
    if (stop_mask != 0) return i + CountTrailingZeros(stop_mask);
  }
  return ScalarAttrRun(p, n, i, quote);
}

// One sweep finds the first '<' or '&' and counts the '\n' bytes before it.
std::size_t SimdSkipRun(const char* p, std::size_t n, std::size_t* newlines,
                        std::size_t* line_end) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    __m128i stop = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('<')),
                                _mm_cmpeq_epi8(v, _mm_set1_epi8('&')));
    unsigned stop_mask = static_cast<unsigned>(_mm_movemask_epi8(stop));
    unsigned nl_mask = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8('\n'))));
    unsigned k = 16;
    if (stop_mask != 0) {
      k = CountTrailingZeros(stop_mask);
      nl_mask &= (1u << k) - 1;
    }
    if (nl_mask != 0) {
      *newlines += PopCount(nl_mask);
      *line_end = i + HighestBit(nl_mask) + 1;
    }
    if (stop_mask != 0) return i + k;
  }
  return ScalarSkipRun(p, n, i, newlines, line_end);
}

#elif defined(XQMFT_SIMD_NEON)

// NEON lacks movemask; narrow each comparison byte to a nibble so a 16-byte
// mask fits one uint64 (4 bits per lane, any-set semantics preserved).
inline unsigned long long Nibbles16(uint8x16_t m) {
  uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(m), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

inline uint8x16_t WsBytes16(uint8x16_t v) {
  return vorrq_u8(vorrq_u8(vceqq_u8(v, vdupq_n_u8(' ')),
                           vceqq_u8(v, vdupq_n_u8('\t'))),
                  vorrq_u8(vceqq_u8(v, vdupq_n_u8('\n')),
                           vceqq_u8(v, vdupq_n_u8('\r'))));
}

std::size_t SimdTextRun(const char* p, std::size_t n, bool* all_ws) {
  std::size_t i = 0;
  bool ws = true;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    uint8x16_t stop = vorrq_u8(vceqq_u8(v, vdupq_n_u8('<')),
                               vceqq_u8(v, vdupq_n_u8('&')));
    unsigned long long stop_mask = Nibbles16(stop);
    unsigned long long ws_mask = Nibbles16(WsBytes16(v));
    if (stop_mask != 0) {
      unsigned k = CountTrailingZeros(stop_mask) >> 2;
      unsigned long long prefix =
          k == 0 ? 0 : (~0ULL >> (64 - 4 * k));
      ws = ws && ((~ws_mask & prefix) == 0);
      *all_ws = *all_ws && ws;
      return i + k;
    }
    ws = ws && (ws_mask == ~0ULL);
  }
  *all_ws = *all_ws && ws;
  return ScalarTextRun(p, n, i, all_ws);
}

std::size_t SimdNameRun(const char* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    // Unsigned compares: UTF-8 bytes (>= 0x80) fold to >= 0xA0, above 'z',
    // so they classify as non-name without a separate ASCII mask.
    uint8x16_t lower = vorrq_u8(v, vdupq_n_u8(0x20));
    uint8x16_t alpha = vandq_u8(vcgeq_u8(lower, vdupq_n_u8('a')),
                                vcleq_u8(lower, vdupq_n_u8('z')));
    uint8x16_t digit = vandq_u8(vcgeq_u8(v, vdupq_n_u8('0')),
                                vcleq_u8(v, vdupq_n_u8('9')));
    uint8x16_t punct = vorrq_u8(
        vorrq_u8(vceqq_u8(v, vdupq_n_u8('_')), vceqq_u8(v, vdupq_n_u8(':'))),
        vorrq_u8(vceqq_u8(v, vdupq_n_u8('.')),
                 vceqq_u8(v, vdupq_n_u8('-'))));
    uint8x16_t name = vorrq_u8(vorrq_u8(alpha, digit), punct);
    unsigned long long not_name = ~Nibbles16(name);
    if (not_name != 0) return i + (CountTrailingZeros(not_name) >> 2);
  }
  return ScalarNameRun(p, n, i);
}

std::size_t SimdWsRun(const char* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    unsigned long long not_ws = ~Nibbles16(WsBytes16(v));
    if (not_ws != 0) return i + (CountTrailingZeros(not_ws) >> 2);
  }
  return ScalarWsRun(p, n, i);
}

std::size_t SimdAttrRun(const char* p, std::size_t n, char quote) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    uint8x16_t stop =
        vorrq_u8(vceqq_u8(v, vdupq_n_u8(static_cast<std::uint8_t>(quote))),
                 vceqq_u8(v, vdupq_n_u8('&')));
    unsigned long long stop_mask = Nibbles16(stop);
    if (stop_mask != 0) return i + (CountTrailingZeros(stop_mask) >> 2);
  }
  return ScalarAttrRun(p, n, i, quote);
}

// Nibble masks: 4 bits per lane, so counts divide by 4 and indices shift 2.
std::size_t SimdSkipRun(const char* p, std::size_t n, std::size_t* newlines,
                        std::size_t* line_end) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    uint8x16_t stop = vorrq_u8(vceqq_u8(v, vdupq_n_u8('<')),
                               vceqq_u8(v, vdupq_n_u8('&')));
    unsigned long long stop_mask = Nibbles16(stop);
    unsigned long long nl_mask = Nibbles16(vceqq_u8(v, vdupq_n_u8('\n')));
    unsigned k = 16;
    if (stop_mask != 0) {
      k = CountTrailingZeros(stop_mask) >> 2;
      nl_mask &= k == 0 ? 0 : (~0ULL >> (64 - 4 * k));
    }
    if (nl_mask != 0) {
      *newlines += PopCount(nl_mask) >> 2;
      *line_end = i + (HighestBit(nl_mask) >> 2) + 1;
    }
    if (stop_mask != 0) return i + k;
  }
  return ScalarSkipRun(p, n, i, newlines, line_end);
}

#endif

inline bool UseSimd(std::size_t n) {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  return n >= 16 && SimdFlag().load(std::memory_order_relaxed);
#else
  (void)n;
  return false;
#endif
}

}  // namespace

bool SimdScanEnabled() {
  return SimdFlag().load(std::memory_order_relaxed);
}

void SetSimdScanEnabled(bool on) {
  SimdFlag().store(on && SimdScanAvailable(), std::memory_order_relaxed);
}

bool SimdScanAvailable() {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

std::size_t ScanTextRun(const char* p, std::size_t n, bool* all_ws) {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  if (UseSimd(n)) return SimdTextRun(p, n, all_ws);
#endif
  return ScalarTextRun(p, n, 0, all_ws);
}

std::size_t ScanNameRun(const char* p, std::size_t n) {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  if (UseSimd(n)) return SimdNameRun(p, n);
#endif
  return ScalarNameRun(p, n, 0);
}

std::size_t ScanWsRun(const char* p, std::size_t n) {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  if (UseSimd(n)) return SimdWsRun(p, n);
#endif
  return ScalarWsRun(p, n, 0);
}

std::size_t ScanAttrRun(const char* p, std::size_t n, char quote) {
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  if (UseSimd(n)) return SimdAttrRun(p, n, quote);
#endif
  return ScalarAttrRun(p, n, 0, quote);
}

std::size_t ScanSkipRun(const char* p, std::size_t n, std::size_t* newlines,
                        std::size_t* line_end) {
  *newlines = 0;
  *line_end = 0;
#if defined(XQMFT_SIMD_SSE2) || defined(XQMFT_SIMD_NEON)
  if (UseSimd(n)) return SimdSkipRun(p, n, newlines, line_end);
#endif
  return ScalarSkipRun(p, n, 0, newlines, line_end);
}

}  // namespace xqmft
