#include "support/autotune.hpp"

#include "support/simd.hpp"

namespace lra {

std::string kernel_config_summary(const KernelConfig& cfg) {
  return "mc=" + std::to_string(cfg.mc) + " kc=" + std::to_string(cfg.kc) +
         " mr=" + std::to_string(cfg.mv * simd::simd_width()) +
         " nr=" + std::to_string(cfg.nr);
}

}  // namespace lra
