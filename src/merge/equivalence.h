#pragma once
// Two-sided constraint-set equivalence (paper §2): two constraint sets are
// equivalent iff every timing relationship induced by one is induced by the
// other, in both directions. The merge flow runs this at the end — the
// paper's "in-built, correct by construction validation step".

#include <string>
#include <vector>

#include "merge/refine_context.h"

namespace mm::merge {

struct EquivalenceReport {
  size_t keys_compared = 0;
  size_t matches = 0;           // identical state sets
  size_t optimism_violations = 0;  // individual times it, merged does not —
                                   // NEVER acceptable for sign-off
  size_t pessimism_keys = 0;    // merged times something no mode times
  size_t state_mismatches = 0;  // both timed but with different states
                                // (e.g. MCP value lost) — pessimistic-safe
  std::vector<std::string> examples;  // first few findings, human-readable

  bool equivalent() const {
    return optimism_violations == 0 && pessimism_keys == 0 &&
           state_mismatches == 0;
  }
  bool signoff_safe() const { return optimism_violations == 0; }
};

/// Compare the merged mode against the union of individual modes at
/// timing-relationship granularity (per endpoint, launch, capture). With
/// `startpoint_level` the comparison runs per (startpoint, endpoint, ...)
/// instead — slower, finer.
///
/// The merged deck is always walked fresh. With `use_batched_sta` (the
/// default, the production path) the members' side reuses the relation maps
/// refinement pass 1 left on this context (ctx.member_relations, endpoint
/// level only); a context without them walks each member afresh on the
/// pool. `false` always walks every member afresh, kept as the independent
/// serial reference. Report counters are identical on both paths; only
/// `examples` ordering may differ.
EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level = false,
                                    size_t num_threads = 0,
                                    bool use_batched_sta = true);

}  // namespace mm::merge
