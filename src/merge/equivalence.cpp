#include "merge/equivalence.h"

#include <memory>

#include "obs/obs.h"
#include "timing/relationships.h"
#include "util/thread_pool.h"

namespace mm::merge {

using timing::CompiledExceptions;
using timing::ModeGraph;
using timing::Propagator;
using timing::PropagationOptions;
using timing::RelationKey;
using timing::RelationMap;
using timing::StateSet;

namespace {

const StateSet& side_states(const timing::RelationData& data, int side) {
  return side == 0 ? data.states : data.hold_states;
}

/// The merged deck's relations from one serial walk, built fresh from the
/// deck as it stands (after any refinement fixes and debug mutation).
RelationMap walk_merged(const timing::TimingGraph& graph, const Sdc& merged,
                        const PropagationOptions& opts) {
  MM_SPAN("merge/equivalence_walk");
  const ModeGraph merged_mg(graph, merged);
  const CompiledExceptions merged_ce(graph, merged);
  Propagator mprop(merged_mg, merged_ce);
  mprop.run(opts);
  return mprop.release_relations();
}

/// Fresh per-member walks, fanned over the pool and folded into `indiv`
/// with clocks renamed through `map`. Never reads ctx.member_relations, so
/// the serial reference stays independent of refinement's walk.
void walk_members_fresh(const RefineContext& ctx, const ClockMap& map,
                        const PropagationOptions& opts, ThreadPool& pool,
                        RelationMap& indiv) {
  std::vector<RelationMap> partial(ctx.modes.size());
  pool.parallel_for(ctx.modes.size(), [&](size_t m) {
    Propagator prop(*ctx.mode_graphs[m], *ctx.mode_exceptions[m]);
    prop.run(opts);
    accumulate_mapped(prop.relations(), m, map, partial[m]);
  });
  for (RelationMap& pm : partial) {
    for (auto& [key, data] : pm) {
      indiv[key].states.merge(data.states);
      indiv[key].hold_states.merge(data.hold_states);
    }
  }
}

}  // namespace

EquivalenceReport check_equivalence(const RefineContext& ctx,
                                    const Sdc& merged, const ClockMap& map,
                                    bool startpoint_level, size_t num_threads,
                                    bool use_batched_sta) {
  MM_SPAN("merge/equivalence");
  EquivalenceReport report;
  const timing::TimingGraph& graph = *ctx.graph;

  PropagationOptions opts = RefineContext::member_walk_options();
  opts.track_startpoints = startpoint_level;

  // Reuse the merge session's pool when the context carries one.
  std::unique_ptr<ThreadPool> local;
  ThreadPool* pool_ptr = ctx.session ? &ctx.session->pool() : nullptr;
  if (pool_ptr == nullptr) {
    local = std::make_unique<ThreadPool>(num_threads == 0 ? 0 : num_threads);
    pool_ptr = local.get();
  }
  ThreadPool& pool = *pool_ptr;

  // Individual side (union over modes, clocks mapped to merged space) and
  // merged side. Members never change within a merge, so when refinement
  // pass 1 already walked them under these options (ctx.member_relations)
  // they are reused; otherwise, and always for the serial reference, each
  // member is walked afresh. The merged deck — the thing under test — is
  // always walked fresh.
  RelationMap indiv;
  const bool reuse = use_batched_sta && !startpoint_level &&
                     ctx.member_relations.size() == ctx.modes.size();
  if (reuse) {
    for (size_t m = 0; m < ctx.modes.size(); ++m) {
      accumulate_mapped(ctx.member_relations[m], m, map, indiv);
    }
  } else {
    walk_members_fresh(ctx, map, opts, pool, indiv);
  }
  const RelationMap mrel = walk_merged(graph, merged, opts);

  // Lost-relation keys live in the *mapped individual* clock space; a
  // candidate that dropped a clock entirely has no name for them.
  auto clock_name = [&](sdc::ClockId id) -> std::string {
    if (id.index() < merged.num_clocks()) return merged.clock(id).name;
    return "<dropped clock #" + std::to_string(id.index()) + ">";
  };
  auto example = [&](const std::string& what, const RelationKey& key,
                     const std::string& detail) {
    if (report.examples.size() >= 10) return;
    std::string msg = what + " at " +
                      std::string(graph.design().pin_name(key.endpoint));
    if (key.startpoint.valid()) {
      msg += " from " + std::string(graph.design().pin_name(key.startpoint));
    }
    if (key.launch.valid()) msg += " launch=" + clock_name(key.launch);
    if (key.capture.valid()) msg += " capture=" + clock_name(key.capture);
    report.examples.push_back(msg + " " + detail);
  };

  const char* side_name[2] = {"setup", "hold"};
  for (const auto& [key, data] : mrel) {
    for (int side = 0; side < 2; ++side) {
      ++report.keys_compared;
      const StateSet& ms = side_states(data, side);
      const auto it = indiv.find(key);
      const StateSet* is = it == indiv.end() ? nullptr : &side_states(it->second, side);
      const bool indiv_timed = is && is->any_timed();
      const bool merged_timed = ms.any_timed();
      if (!indiv_timed && merged_timed) {
        ++report.pessimism_keys;
        example(std::string("PESSIMISM(") + side_name[side] + ")", key,
                "merged=" + ms.str() + " individual=" + (is ? is->str() : "{}"));
      } else if (indiv_timed && !merged_timed) {
        ++report.optimism_violations;
        example(std::string("OPTIMISM(") + side_name[side] + ")", key,
                "merged=" + ms.str() + " individual=" + is->str());
      } else if (is && *is == ms) {
        ++report.matches;
      } else if (indiv_timed && merged_timed) {
        // Both timed: check the timed sub-states agree (MCP values etc.).
        StateSet a, b;
        for (const auto& s : ms.states)
          if (s.is_timed()) a.insert(s);
        for (const auto& s : is->states)
          if (s.is_timed()) b.insert(s);
        if (a == b) {
          ++report.matches;
        } else {
          ++report.state_mismatches;
          example(std::string("STATE-MISMATCH(") + side_name[side] + ")", key,
                  "merged=" + ms.str() + " individual=" + is->str());
        }
      } else {
        ++report.matches;  // both untimed
      }
    }
  }

  // Relations the merged mode lost entirely.
  for (const auto& [key, data] : indiv) {
    if (!data.states.any_timed() && !data.hold_states.any_timed()) continue;
    if (!mrel.count(key)) {
      ++report.keys_compared;
      ++report.optimism_violations;
      example("OPTIMISM (lost relation)", key,
              "individual=" + data.states.str());
    }
  }

  return report;
}

}  // namespace mm::merge
