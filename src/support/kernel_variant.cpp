#include "support/kernel_variant.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace lra {
namespace {

constexpr int kUnset = -1;

std::atomic<int>& cached() {
  static std::atomic<int> v{kUnset};
  return v;
}

int from_env() {
  if (const char* env = std::getenv("LRA_KERNEL_VARIANT")) {
    KernelVariant v;
    if (parse_kernel_variant(env, &v)) return static_cast<int>(v);
    std::fprintf(stderr,
                 "lra: LRA_KERNEL_VARIANT=%s is not a kernel variant "
                 "(%s); using simd\n",
                 env, kKernelVariantNames);
  }
  return static_cast<int>(KernelVariant::kSimd);
}

}  // namespace

KernelVariant kernel_variant() {
  int v = cached().load(std::memory_order_relaxed);
  if (v == kUnset) {
    v = from_env();
    // Another thread may race the first read; both compute the same value.
    cached().store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelVariant>(v);
}

void set_kernel_variant(KernelVariant v) {
  cached().store(static_cast<int>(v), std::memory_order_relaxed);
}

bool parse_kernel_variant(std::string_view text, KernelVariant* out) {
  if (text == "simd") {
    *out = KernelVariant::kSimd;
    return true;
  }
  if (text == "simd-strict") {
    *out = KernelVariant::kSimdStrict;
    return true;
  }
  return false;
}

const char* to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::kSimd:
      return "simd";
    case KernelVariant::kSimdStrict:
      return "simd-strict";
  }
  return "?";
}

}  // namespace lra
