#pragma once

#include "harness/system.h"

namespace hht::harness {

/// The N-tile machine is harness::System (DESIGN.md §13). This alias and
/// header remain only because the benchmark (simbench/simbench.cc), which
/// is frozen between benchmark revisions, includes it by this name.
using MultiTileSystem = System;

}  // namespace hht::harness
