#pragma once
// Shared state for the §3.1.8 / §3.2 refinement stages: the individual
// modes' per-mode timing views and compiled exceptions, built once (in
// parallel) and reused by clock refinement, data refinement and the
// equivalence checker — plus each member's relation map, walked once by
// refinement pass 1 and reused by validation.

#include <memory>
#include <vector>

#include "merge/context.h"
#include "merge/types.h"
#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/relationships.h"
#include "util/thread_pool.h"

namespace mm::merge {

/// Fold member `m`'s relation map into `accum`, with the member's clocks
/// renamed into the merged clock space through `map`.
inline void accumulate_mapped(const timing::RelationMap& rel, size_t m,
                              const ClockMap& map,
                              timing::RelationMap& accum) {
  for (const auto& [key, data] : rel) {
    timing::RelationKey mapped = key;
    if (mapped.launch.valid()) mapped.launch = map.merged_of(m, mapped.launch);
    if (mapped.capture.valid()) {
      mapped.capture = map.merged_of(m, mapped.capture);
    }
    timing::RelationData& slot = accum[mapped];
    slot.states.merge(data.states);
    slot.hold_states.merge(data.hold_states);
  }
}

struct RefineContext {
  const timing::TimingGraph* graph = nullptr;
  std::vector<const Sdc*> modes;
  std::vector<std::unique_ptr<timing::ModeGraph>> mode_graphs;
  std::vector<std::unique_ptr<timing::CompiledExceptions>> mode_exceptions;
  /// The owning merge session, when the refinement stages run inside one:
  /// its thread pool is reused instead of one pool per stage.
  MergeContext* session = nullptr;
  /// Each member's endpoint-level relation map under member_walk_options(),
  /// in the member's own clock space: every consumer renames clocks through
  /// the ClockMap it is given. Empty until walk_members() runs. Members never
  /// change within a merge, so pass 1 and validation share one walk each.
  std::vector<timing::RelationMap> member_relations;

  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m,
                size_t num_threads = 0)
      : graph(&g), modes(std::move(m)) {
    ThreadPool pool(num_threads == 0 ? 0 : num_threads);
    build_mode_views(g, pool);
  }

  RefineContext(const timing::TimingGraph& g, std::vector<const Sdc*> m,
                MergeContext& ctx)
      : graph(&g), modes(std::move(m)), session(&ctx) {
    build_mode_views(g, ctx.pool());
  }

  /// The one member walk shared by pass 1 and validation: endpoint level,
  /// setup and hold states resolved, no arrivals.
  static timing::PropagationOptions member_walk_options() {
    timing::PropagationOptions opts;
    opts.compute_arrivals = false;
    opts.analyze_hold = true;
    return opts;
  }

  /// Fill member_relations with one serial walk per member, fanned over
  /// `pool`; a no-op once filled.
  const std::vector<timing::RelationMap>& walk_members(ThreadPool& pool) {
    if (member_relations.size() == modes.size()) return member_relations;
    member_relations.assign(modes.size(), {});
    const timing::PropagationOptions opts = member_walk_options();
    pool.parallel_for(modes.size(), [&](size_t m) {
      timing::Propagator prop(*mode_graphs[m], *mode_exceptions[m]);
      prop.run(opts);
      member_relations[m] = prop.release_relations();
    });
    return member_relations;
  }

 private:
  void build_mode_views(const timing::TimingGraph& g, ThreadPool& pool) {
    mode_graphs.resize(modes.size());
    mode_exceptions.resize(modes.size());
    pool.parallel_for(modes.size(), [&](size_t i) {
      mode_graphs[i] = std::make_unique<timing::ModeGraph>(g, *modes[i]);
      mode_exceptions[i] =
          std::make_unique<timing::CompiledExceptions>(g, *modes[i]);
    });
  }
};

}  // namespace mm::merge
