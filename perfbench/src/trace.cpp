// `perfbench_tool trace`: the traced per-layer replay of one workload.
//
// Composes the merge pipeline from each layer's public calls — the same
// calls, in the same order, that modemerge makes through MergeSession /
// McmmSession — and records a span around each: name, start, end and the
// span that contains it. Counts come from the public result structs, the
// relationship cache's stats, and the program's mm::obs counters. The
// merged decks the composed pipeline produces are written to --out with the
// CLI's file names, so run.py can compare them byte for byte.
//
// edit_loop replays its script twice: once composed (an incremental commit
// built from the same calls: re-extract the edited mode, re-check its M-1
// pairs, re-cover, re-merge the cliques that hold a dirty mode), and once
// through MergeSession::commit(), whose wall time per commit gives the
// session metrics. The two final results must be byte-identical.
//
// So that every layer reports a measured time on every workload, the replay
// also does work the CLI run does not: STA individual vs merged and QoR on
// every workload (under an "extra_analysis" root span where the CLI skips
// it), and on the batch workloads two composed edit commits that re-read an
// unchanged deck (under a "touch_edits" root span). Counts are read before
// that work, so they describe the CLI's run.
//
// Output (--out DIR/trace.json):
//   {"spans": [{"name", "start", "end", "parent"}...], "counts": {...},
//    "commits": [{"kind", "seconds", "pairs_rechecked", "cliques_merged",
//                 "cliques_reused"}...]}

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "merge/clock_refine.h"
#include "merge/context.h"
#include "merge/data_refine.h"
#include "merge/equivalence.h"
#include "merge/mergeability.h"
#include "merge/preliminary.h"
#include "merge/qor.h"
#include "merge/refine_context.h"
#include "merge/session.h"
#include "netlist/verilog.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sdc/parser.h"
#include "sdc/writer.h"
#include "timing/graph.h"
#include "timing/sta.h"
#include "util/error.h"

namespace perfbench {
namespace {

using mm::merge::ValidatedMergeResult;
using mm::sdc::Sdc;

/// In-memory span recorder; spans nest on the calling thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int begin(const char* name) {
    spans_.push_back({name, now(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    spans_[id].end = now();
    current_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Sums over the merges actually run (reused cliques add nothing).
struct MergeCounts {
  uint64_t merges = 0;
  uint64_t refine_keys = 0;
  uint64_t pass3_paths = 0;
  uint64_t fixes_added = 0;
  uint64_t pairs_checked = 0;

  void add(const mm::merge::MergeStats& s) {
    ++merges;
    refine_keys += s.pass1_keys + s.pass2_keys;
    pass3_paths += s.pass3_paths_enumerated;
    fixes_added += s.pass0_pair_fixed + s.pass1_mismatch_fixed +
                   s.pass2_mismatch_fixed + s.pass3_fps_added +
                   s.clock_stops_added + s.inferred_disables +
                   s.data_clock_fps_added;
  }
};

/// merge_modes, one public call per layer: preliminary merge, the per-mode
/// timing graphs (RefineContext), clock and data refinement, validation.
std::shared_ptr<ValidatedMergeResult> merge_clique(
    const mm::timing::TimingGraph& graph, const std::vector<const Sdc*>& members,
    mm::merge::MergeContext& ctx, Tracer& t, MergeCounts& counts) {
  const mm::merge::MergeOptions& options = ctx.options();
  auto out = std::make_shared<ValidatedMergeResult>();
  {
    Scope s(t, "merge/preliminary");
    out->merge = mm::merge::preliminary_merge(members, ctx);
  }
  std::optional<mm::merge::RefineContext> rc;
  {
    Scope s(t, "timing/mode_graph");
    rc.emplace(graph, members, ctx);
  }
  {
    Scope s(t, "merge/clock_refine");
    mm::merge::refine_clock_network(*rc, out->merge, options);
  }
  {
    Scope s(t, "merge/data_refine");
    mm::merge::refine_data_network(*rc, out->merge, options);
  }
  {
    Scope s(t, "merge/validate");
    out->equivalence = mm::merge::check_equivalence(
        *rc, *out->merge.merged, out->merge.clock_map,
        /*startpoint_level=*/false, options.num_threads,
        options.use_batched_sta);
  }
  counts.add(out->merge.stats);
  return out;
}

/// Incremental commit state shared by the cold and the edit commits:
/// decks[m][c], relationship sets, the verdict matrix and per-clique
/// results keyed by member set and corner.
struct Engine {
  const mm::timing::TimingGraph& graph;
  mm::merge::MergeContext& ctx;
  mm::merge::CornerSet corners;
  std::vector<std::vector<const Sdc*>> decks;
  std::vector<std::vector<std::shared_ptr<const mm::merge::ModeRelationships>>>
      rels;
  std::vector<uint8_t> adj;
  std::vector<std::vector<size_t>> cliques;
  std::vector<std::vector<std::shared_ptr<ValidatedMergeResult>>> merged;  // [c][k]
  std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>> results;

  /// Returns the commit's wall time in seconds.
  double commit(const std::vector<uint8_t>& dirty, Tracer& t, MergeCounts& counts) {
    const size_t n = decks.size();
    const size_t num_corners = corners.size();
    const mm::merge::MergeOptions& options = ctx.options();
    const int span = t.begin("merge/commit");
    rels.resize(n, std::vector<std::shared_ptr<const mm::merge::ModeRelationships>>(
                       num_corners));
    {
      Scope s(t, "merge/extract");
      std::vector<size_t> need;
      for (size_t i = 0; i < n; ++i) {
        if (dirty[i]) need.push_back(i);
      }
      ctx.pool().parallel_for(need.size(), [&](size_t k) {
        rels[need[k]][0] = ctx.cache().get(*decks[need[k]][0]);
      });
      if (num_corners > 1) {
        ctx.pool().parallel_for(need.size() * (num_corners - 1), [&](size_t k) {
          const size_t i = need[k / (num_corners - 1)];
          const size_t c = 1 + k % (num_corners - 1);
          rels[i][c] = ctx.cache().get_corner(*decks[i][c], *rels[i][0]);
        });
      }
    }
    {
      Scope s(t, "merge/pair_check");
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t i = 0; i + 1 < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          if (dirty[i] || dirty[j]) pairs.emplace_back(i, j);
        }
      }
      std::vector<uint8_t> verdict(pairs.size(), 0);
      ctx.pool().parallel_for(pairs.size(), /*min_grain=*/16, [&](size_t p) {
        const auto [i, j] = pairs[p];
        if (num_corners == 1) {
          verdict[p] =
              mm::merge::check_mergeable(*rels[i][0], *rels[j][0], options)
                  .mergeable;
          return;
        }
        std::vector<const mm::merge::ModeRelationships*> a, b;
        for (size_t c = 0; c < num_corners; ++c) {
          a.push_back(rels[i][c].get());
          b.push_back(rels[j][c].get());
        }
        verdict[p] =
            mm::merge::check_mergeable_corners(a, b, corners, options).mergeable;
      });
      adj.resize(n * n, 1);
      for (size_t p = 0; p < pairs.size(); ++p) {
        const auto [i, j] = pairs[p];
        adj[i * n + j] = adj[j * n + i] = verdict[p];
      }
      counts.pairs_checked += pairs.size();
    }
    {
      Scope s(t, "merge/cover");
      cliques = mm::merge::greedy_clique_cover(n, adj);
    }
    std::unordered_map<std::string, std::shared_ptr<ValidatedMergeResult>> next;
    merged.assign(num_corners, {});
    for (size_t c = 0; c < num_corners; ++c) {
      for (const std::vector<size_t>& clique : cliques) {
        std::string key = std::to_string(c);
        key += ':';
        bool any_dirty = false;
        std::vector<const Sdc*> members;
        for (size_t pos : clique) {
          key += std::to_string(pos) + ",";
          any_dirty = any_dirty || dirty[pos];
          members.push_back(decks[pos][c]);
        }
        auto prev = results.find(key);
        std::shared_ptr<ValidatedMergeResult> r =
            !any_dirty && prev != results.end()
                ? prev->second
                : merge_clique(graph, members, ctx, t, counts);
        next.emplace(key, r);
        merged[c].push_back(r);
      }
    }
    results = std::move(next);
    t.end(span);
    return t.spans()[span].end - t.spans()[span].start;
  }
};

std::string merged_name(size_t k, size_t c, size_t num_corners) {
  return num_corners == 1 ? "merged_" + std::to_string(k) + ".sdc"
                          : "merged_" + std::to_string(k) + "_corner" +
                                std::to_string(c) + ".sdc";
}

uint64_t counter(const char* name) {
  return mm::obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

int run_trace(int argc, char** argv) {
  using namespace mm;
  const std::string in_dir = arg_value(argc, argv, "--inputs");
  const std::string out_dir = arg_value(argc, argv, "--out");
  const size_t threads = std::stoul(arg_value(argc, argv, "--threads", "4"));
  if (in_dir.empty() || out_dir.empty()) {
    std::fprintf(stderr, "usage: perfbench_tool trace --inputs DIR --out DIR "
                         "[--threads N]\n");
    return 2;
  }
  const Manifest man = read_manifest(in_dir);
  const size_t n = man.modes.size();
  const size_t num_corners = man.corners;
  merge::MergeOptions options;
  options.num_threads = threads;

  Tracer t;
  MergeCounts counts;
  const uint64_t walks0 = counter("timing/propagations");
  const uint64_t batch0 = counter("sta/batch_propagations");
  const uint64_t groups0 = counter("sta/tag_groups");

  const netlist::Library lib = netlist::Library::builtin();
  std::optional<netlist::Design> design;
  {
    Scope s(t, "netlist/read_verilog");
    design.emplace(netlist::read_verilog(read_file(man.path(man.netlist)), lib));
  }
  std::optional<timing::TimingGraph> graph;
  {
    Scope s(t, "timing/graph");
    graph.emplace(*design);
  }
  // Decks owned here; the engine borrows them.
  std::vector<std::unique_ptr<Sdc>> owned;
  auto parse = [&](const std::string& rel) {
    Scope s(t, "sdc/parse");
    owned.push_back(std::make_unique<Sdc>(
        sdc::parse_sdc(read_file(man.path(rel)), *design)));
    return owned.back().get();
  };

  std::vector<std::string> names;
  for (size_t c = 0; c < num_corners; ++c) names.push_back("corner" + std::to_string(c));
  merge::MergeContext ctx(options);
  Engine engine{*graph, ctx, merge::CornerSet(names), {}, {}, {}, {}, {}, {}};
  for (const Manifest::Mode& m : man.modes) {
    std::vector<const Sdc*> decks;
    for (const std::string& d : m.decks) decks.push_back(parse(d));
    engine.decks.push_back(std::move(decks));
  }
  // One entry per commit: the cold commit, then each edit commit.
  obs::JsonWriter commits;
  commits.begin_array();
  auto record_commit = [&](const char* kind, double seconds, uint64_t pairs,
                           uint64_t merged, uint64_t reused) {
    commits.begin_object();
    commits.key("kind").value(kind);
    commits.key("seconds").value(seconds);
    commits.key("pairs_rechecked").value(pairs);
    commits.key("cliques_merged").value(merged);
    commits.key("cliques_reused").value(reused);
    commits.end_object();
  };

  const double cold_seconds = engine.commit(std::vector<uint8_t>(n, 1), t, counts);
  const uint64_t cold_pairs = counts.pairs_checked;
  const merge::RelationshipCache::Stats cold_cache = ctx.cache().stats();
  if (man.edits.empty()) {
    record_commit("cold", cold_seconds, cold_pairs, counts.merges, 0);
  }

  // A composed edit commit: swap one mode's corner-0 deck, invalidate the
  // old content's cache entry (as MergeSession::update_mode does), commit.
  std::vector<uint64_t> edit_pairs;
  auto edit = [&](size_t mode, const std::string& rel) {
    const Sdc* deck = parse(rel);
    ctx.cache().invalidate(*engine.decks[mode][0]);
    engine.decks[mode][0] = deck;
    std::vector<uint8_t> dirty(n, 0);
    dirty[mode] = 1;
    const uint64_t pairs = counts.pairs_checked;
    const uint64_t merges = counts.merges;
    const double seconds = engine.commit(dirty, t, counts);
    edit_pairs.push_back(counts.pairs_checked - pairs);
    return std::make_pair(seconds, counts.merges - merges);
  };
  for (const Manifest::Edit& e : man.edits) edit(e.mode, e.deck);

  // Write the merged decks (CLI file names).
  uint64_t merged_bytes = 0;
  for (size_t c = 0; c < num_corners; ++c) {
    for (size_t k = 0; k < engine.cliques.size(); ++k) {
      std::string text;
      {
        Scope s(t, "sdc/write");
        text = sdc::write_sdc(*engine.merged[c][k]->merge.merged);
      }
      merged_bytes += text.size();
      write_file(out_dir + "/" + merged_name(k, c, num_corners), text);
    }
  }

  // Post-merge analysis: STA individual vs merged (corner 0) and QoR per
  // corner. The CLI runs the first for family_cold (--sta) and the second
  // for mcmm_matrix (--qor-out); the replay runs both on every workload, the
  // extra one under an "extra_analysis" root that run.py keeps out of the
  // comparison with the CLI's wall time.
  auto run_sta = [&]() {
    std::vector<const Sdc*> individual, merged;
    for (const auto& d : engine.decks) individual.push_back(d[0]);
    for (const auto& r : engine.merged[0]) merged.push_back(r->merge.merged.get());
    {
      Scope s(t, "timing/sta_individual");
      (void)timing::run_sta_multi(*graph, individual);
    }
    Scope s(t, "timing/sta_merged");
    (void)timing::run_sta_multi(*graph, merged);
  };
  bool qor_ok = true;
  auto run_qor = [&]() {
    for (size_t c = 0; c < num_corners; ++c) {
      std::vector<const Sdc*> corner_decks, merged;
      for (const auto& d : engine.decks) corner_decks.push_back(d[c]);
      for (const auto& r : engine.merged[c]) merged.push_back(r->merge.merged.get());
      Scope s(t, "merge/qor");
      const merge::QoRReport qor = merge::qor_report(
          *graph, corner_decks, merged, engine.cliques, options);
      if (!qor.never_optimistic()) {
        std::printf("FAIL trace: corner %zu QoR reports %zu optimism "
                    "violation(s), %zu missing endpoint(s)\n",
                    c, qor.optimism_violations, qor.missing_endpoints);
        qor_ok = false;
      }
    }
  };
  const bool cli_sta = man.workload == "family_cold";
  const bool cli_qor = man.workload == "mcmm_matrix";
  if (cli_sta) run_sta();
  if (cli_qor) run_qor();
  // Counts describe the CLI's work: read them before any replay-only work.
  const merge::RelationshipCache::Stats cache = ctx.cache().stats();
  const MergeCounts cli_counts = counts;
  const uint64_t serial_walks = counter("timing/propagations") - walks0;
  const uint64_t batch_walks = counter("sta/batch_propagations") - batch0;
  const uint64_t tag_groups = counter("sta/tag_groups") - groups0;
  if (!cli_sta || !cli_qor) {
    Scope s(t, "extra_analysis");
    if (!cli_sta) run_sta();
    if (!cli_qor) run_qor();
  }
  if (!qor_ok) return 1;

  if (!man.edits.empty()) {
    // edit_loop: the same script through MergeSession::commit(); its final
    // merged decks must equal the composed pipeline's byte for byte.
    merge::MergeSession session(*graph, options);
    std::vector<merge::MergeSession::ModeId> ids;
    std::vector<std::unique_ptr<Sdc>> session_decks;
    for (size_t i = 0; i < n; ++i) {
      session_decks.push_back(std::make_unique<Sdc>(
          sdc::parse_sdc(read_file(man.path(man.modes[i].decks[0])), *design)));
      ids.push_back(session.add_mode(man.modes[i].name, session_decks.back().get()));
    }
    for (size_t k = 0; k <= man.edits.size(); ++k) {
      if (k > 0) {
        const Manifest::Edit& e = man.edits[k - 1];
        session_decks.push_back(std::make_unique<Sdc>(
            sdc::parse_sdc(read_file(man.path(e.deck)), *design)));
        session.update_mode(ids[e.mode], session_decks.back().get());
      }
      const int span = t.begin(k == 0 ? "session/commit_cold" : "session/commit_edit");
      const merge::MergeSession::CommitResult& r = session.commit();
      t.end(span);
      record_commit(k == 0 ? "cold" : "edit",
                    t.spans()[span].end - t.spans()[span].start,
                    r.pairs_rechecked, r.cliques_merged, r.cliques_reused);
    }
    const merge::MergeSession::CommitResult& last = session.last_commit();
    bool same = last.merged.size() == engine.cliques.size();
    for (size_t k = 0; same && k < last.merged.size(); ++k) {
      same = sdc::write_sdc(*last.merged[k]->merge.merged) ==
             sdc::write_sdc(*engine.merged[0][k]->merge.merged);
    }
    if (!same) {
      std::printf("FAIL trace: MergeSession final decks differ from the "
                  "composed pipeline's\n");
      return 1;
    }
  } else {
    // Batch workloads have no edits of their own. Two edit commits that
    // re-read a mode's unchanged deck measure what one edit costs here;
    // run.py keeps the "touch_edits" subtree out of the layer sums.
    Scope s(t, "touch_edits");
    const uint64_t total = engine.cliques.size() * num_corners;
    for (size_t mode : {size_t{0}, n / 2}) {
      const auto [seconds, merges] = edit(mode, man.modes[mode].decks[0]);
      record_commit("edit", seconds, edit_pairs.back(), merges, total - merges);
    }
  }
  commits.end_array();

  obs::JsonWriter w;
  w.begin_object();
  w.key("spans").begin_array();
  for (const Tracer::Span& s : t.spans()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start").value(s.start);
    w.key("end").value(s.end);
    w.key("parent").value(static_cast<int64_t>(s.parent));
    w.end_object();
  }
  w.end_array();
  w.key("counts").begin_object();
  w.key("modes").value(static_cast<uint64_t>(n));
  w.key("corners").value(static_cast<uint64_t>(num_corners));
  w.key("cliques").value(static_cast<uint64_t>(engine.cliques.size()));
  w.key("pairs_checked_cold").value(cold_pairs);
  w.key("pairs_checked").value(cli_counts.pairs_checked);
  w.key("edit_pairs").begin_array();
  for (size_t e = 0; e < man.edits.size(); ++e) w.value(edit_pairs[e]);
  w.end_array();
  w.key("extractions_cold")
      .value(cold_cache.misses - cold_cache.delta_fills -
             cold_cache.skeleton_mismatches);
  w.key("extractions")
      .value(cache.misses - cache.delta_fills - cache.skeleton_mismatches);
  w.key("delta_fills").value(cache.delta_fills);
  w.key("skeleton_mismatches").value(cache.skeleton_mismatches);
  w.key("cache_hits").value(cache.hits);
  w.key("cache_misses").value(cache.misses);
  w.key("merges").value(cli_counts.merges);
  w.key("refine_keys").value(cli_counts.refine_keys);
  w.key("pass3_paths").value(cli_counts.pass3_paths);
  w.key("fixes_added").value(cli_counts.fixes_added);
  w.key("merged_sdc_bytes").value(merged_bytes);
  w.key("serial_walks").value(serial_walks);
  w.key("batch_walks").value(batch_walks);
  w.key("tag_groups").value(tag_groups);
  w.end_object();
  w.key("commits").raw(commits.str());
  w.end_object();
  write_file(out_dir + "/trace.json", w.str() + "\n");
  std::printf("trace %s: %zu spans, %zu cliques, %llu merges\n",
              man.workload.c_str(), t.spans().size(), engine.cliques.size(),
              static_cast<unsigned long long>(cli_counts.merges));
  return 0;
}

}  // namespace perfbench
