// NEON kernel variants (aarch64). NEON is architecturally mandatory on
// aarch64, so unlike AVX2 there is no runtime capability probe — the gate
// is compile-time only. Untested on x86 CI; kept deliberately simple and
// pinned by the same bit-exactness parity gates when run on arm hardware.

#include "util/simd/kernels.hpp"

#if defined(GRAPHENE_SIMD_HAVE_NEON)

#include <arm_neon.h>

namespace graphene::util::simd::detail {
namespace {

constexpr std::size_t kCellBytes = 16;

// One 16-byte cell per 128-bit op: XOR everything, subtract the u32 lanes,
// then select the count lane (bytes 8..11 = u32 lane 2) from the arithmetic
// result via a bit-select mask.
void cells_sub_neon(void* dst, const void* src, std::size_t n_cells) {
  static const std::uint32_t kCountLane[4] = {0u, 0u, ~0u, 0u};
  const uint8x16_t count_mask = vreinterpretq_u8_u32(vld1q_u32(kCountLane));
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  for (std::size_t c = 0; c < n_cells; ++c, d += kCellBytes, s += kCellBytes) {
    const uint8x16_t a = vld1q_u8(d);
    const uint8x16_t b = vld1q_u8(s);
    const uint8x16_t x = veorq_u8(a, b);
    const uint32x4_t aw = vreinterpretq_u32_u8(a);
    const uint32x4_t bw = vreinterpretq_u32_u8(b);
    const uint32x4_t m = vsubq_u32(aw, bw);
    vst1q_u8(d, vbslq_u8(count_mask, vreinterpretq_u8_u32(m), x));
  }
}

bool all_zero_neon(const std::uint8_t* p, std::size_t n) {
  uint8x16_t acc = vdupq_n_u8(0);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) acc = vorrq_u8(acc, vld1q_u8(p + i));
  std::uint8_t tail = 0;
  for (; i < n; ++i) tail = static_cast<std::uint8_t>(tail | p[i]);
  return vmaxvq_u8(acc) == 0 && tail == 0;
}

}  // namespace

const Kernels& neon_kernels() noexcept {
  static constexpr Kernels kTable{&cells_sub_neon, &all_zero_neon};
  return kTable;
}

}  // namespace graphene::util::simd::detail

#endif  // GRAPHENE_SIMD_HAVE_NEON
