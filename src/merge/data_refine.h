#pragma once
// Merged-mode data refinement (paper §3.2).
//
// Step 1: propagate launch clocks through the data network of the merged
// mode; any clock reaching a pin that it reaches in no individual mode gets
// a false path `-from <clock> -through <pin>` at the frontier (Constraint
// Set 5's CSTR6).
//
// Step 2: the 3-pass timing-relationship comparison (Tables 2-4):
//   pass 1 — compare state sets per (endpoint, launch, capture); mismatches
//            fixed with endpoint-level false paths; ambiguity descends;
//   pass 2 — compare per (startpoint, endpoint, launch, capture) inside the
//            ambiguous endpoints' fan-in cones; fixes use -from/-to (or
//            -from <clock> -through <startpoint> -to, the §3.1.10 trick);
//   pass 3 — enumerate the remaining ambiguous startpoint/endpoint pairs'
//            paths, compare per path, and kill merged-only-valid paths with
//            -through constraints at distinguishing reconvergence pins.
//
// All fixes only ADD false paths / re-add tighter exceptions — pessimistic
// never optimistic; anything inexpressible in SDC is left timed and counted
// in stats.unresolved_pessimism.

#include "merge/refine_context.h"

namespace mm::merge {

/// Pass 1 fills ctx.member_relations (RefineContext::walk_members), which
/// check_equivalence then reuses on the same context.
void refine_data_network(RefineContext& ctx, MergeResult& result,
                         const MergeOptions& options);

}  // namespace mm::merge
