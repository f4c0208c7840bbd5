// The oracle's two process-wide switches: SIMD dispatch (util::simd mode)
// and the bound-tier gate. Neither may move an answer, so differential
// tests run under each setting.
#pragma once

#include "minmach/core/bounds.hpp"
#include "minmach/util/simd.hpp"

namespace minmach {

// Restores both switches on destruction, also when an assertion fails.
class GlobalModesGuard {
 public:
  GlobalModesGuard() = default;
  ~GlobalModesGuard() {
    util::simd::set_mode(mode_);
    set_bounds_tier_enabled(bounds_);
  }
  GlobalModesGuard(const GlobalModesGuard&) = delete;
  GlobalModesGuard& operator=(const GlobalModesGuard&) = delete;

 private:
  util::simd::Mode mode_ = util::simd::mode();
  bool bounds_ = bounds_tier_enabled();
};

// Runs `body` under each combination of SIMD dispatch (auto, scalar) and
// the bound-tier gate (on, off).
template <typename Body>
void for_each_global_mode(Body&& body) {
  GlobalModesGuard guard;
  for (util::simd::Mode mode :
       {util::simd::Mode::kAuto, util::simd::Mode::kScalar}) {
    for (bool bounds : {true, false}) {
      util::simd::set_mode(mode);
      set_bounds_tier_enabled(bounds);
      body();
    }
  }
}

}  // namespace minmach
