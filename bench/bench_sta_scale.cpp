// Batched level-parallel STA vs the serial per-mode reference (the
// tentpole claim of the SoA timing-lane engine): clique validation of an
// M-mode mergeable family must run as ONE levelized graph walk whose work
// scales with distinct tag groups, not with M. Sweeps design size × mode
// count × thread count; every cell asserts byte parity of the per-lane
// relation tables, and each (design, M) additionally runs the full merge
// pipeline both ways (use_batched_sta on = validation reuses refinement's
// member walks, off = serial reference re-walking every member) asserting
// byte-identical merged SDC output.
//
// Per row:
//   serial  — one timing::Propagator per mode, fanned over the pool
//             (exactly the --no-batched-sta validation path)
//   batched — one BatchPropagator over all M lanes (chunked at
//             kMaxBatchLanes), same pool, equivalence-style options
// Timings are best-of-three; a parity or merged-SDC mismatch fails the
// bench (exit 1). Results land in BENCH_sta_scale.json (mm.bench/1). The
// ≥3x acceptance floor at M=64 is recorded and printed, not asserted, so
// a loaded CI host cannot flake the build.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "merge/merger.h"
#include "obs/obs.h"
#include "sdc/writer.h"
#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/relationships.h"
#include "timing/sta_batch.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

using namespace mm;
using namespace mm::bench;

/// Exact content equality of two relation maps (same keys; per key
/// bit-identical state sets, slacks, arrivals, worst-capture clock).
bool relations_identical(const timing::RelationMap& a,
                         const timing::RelationMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, ad] : a) {
    const auto it = b.find(key);
    if (it == b.end()) return false;
    const timing::RelationData& bd = it->second;
    if (!(ad.states == bd.states) || !(ad.hold_states == bd.hold_states) ||
        ad.worst_slack != bd.worst_slack ||
        ad.worst_hold_slack != bd.worst_hold_slack ||
        ad.worst_arrival != bd.worst_arrival ||
        ad.worst_capture != bd.worst_capture) {
      return false;
    }
  }
  return true;
}

/// Per-mode structures shared by both engines (built once, untimed, so the
/// comparison isolates propagation).
struct Prepared {
  std::vector<std::unique_ptr<timing::ModeGraph>> mode_graphs;
  std::vector<std::unique_ptr<timing::CompiledExceptions>> exceptions;
};

Prepared prepare(const timing::TimingGraph& graph,
                 const std::vector<const sdc::Sdc*>& modes) {
  Prepared p;
  for (const sdc::Sdc* m : modes) {
    p.mode_graphs.push_back(std::make_unique<timing::ModeGraph>(graph, *m));
    p.exceptions.push_back(
        std::make_unique<timing::CompiledExceptions>(graph, *m));
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();
  const double scale = size_scale();

  // Equivalence-validation configuration: state sets + hold, no arrivals.
  timing::PropagationOptions sopts;
  sopts.compute_arrivals = false;
  sopts.analyze_hold = true;

  std::printf("Batched clique validation vs serial per-mode STA "
              "(scale %.3f, %u hardware thread(s))\n",
              scale, std::thread::hardware_concurrency());
  std::printf("%10s %8s %8s %7s %11s %12s %9s %9s %8s %7s\n", "cells",
              "levels", "#modes", "threads", "serial(ms)", "batched(ms)",
              "speedup", "groups", "tags", "parity");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("sta_scale");
  json.key("scale").value(scale);
  json.key("seed").value(seed);
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("rows").begin_array();

  bool ok = true;
  double m64_speedup = 0.0;
  for (const double paper_mcells : {0.2, 0.8}) {
    gen::DesignParams dp;
    dp.name = "sta_scale";
    dp.comb_per_reg = 3;
    dp.num_regs = std::max<size_t>(
        50, static_cast<size_t>(paper_mcells * 1e6 * scale / 4.0));
    dp.num_domains = 4;
    dp.seed = seed;
    const netlist::Design design = gen::generate_design(lib, dp);
    const timing::TimingGraph graph(design);

    for (const size_t m : {8, 64}) {
      // One mergeable group: the whole family is a single clique of
      // near-identical modes — exactly the validation workload. Per-mode
      // unique false paths are off: their -through variants would give
      // every lane its own tracked-exception class and defeat mask
      // sharing (see docs/STA.md, "exception classes").
      gen::ModeFamilyParams mp;
      mp.seed = seed;
      mp.num_modes = m;
      mp.target_groups = 1;
      mp.mode_fps = 0;
      std::vector<std::unique_ptr<sdc::Sdc>> modes;
      std::vector<const sdc::Sdc*> mode_ptrs;
      for (const auto& gm : gen::generate_mode_family(dp, mp)) {
        modes.push_back(
            std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
        mode_ptrs.push_back(modes.back().get());
      }
      const Prepared prep = prepare(graph, mode_ptrs);

      for (const size_t threads : {size_t{1}, size_t{8}}) {
        ThreadPool pool(threads);

        // Serial reference: one Propagator per mode, fanned over the pool.
        // Parity maps are collected in an extra untimed pass; the timed
        // passes run the engine exactly as the --no-batched-sta validation
        // path does, with no output copying on either side.
        std::vector<timing::RelationMap> serial(m);
        pool.parallel_for(m, [&](size_t i) {
          timing::Propagator prop(*prep.mode_graphs[i], *prep.exceptions[i]);
          prop.run(sopts);
          serial[i] = prop.relations();
        });
        double serial_ms = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          Stopwatch timer;
          pool.parallel_for(m, [&](size_t i) {
            timing::Propagator prop(*prep.mode_graphs[i], *prep.exceptions[i]);
            prop.run(sopts);
          });
          const double ms = timer.elapsed_ms();
          serial_ms = rep == 0 ? ms : std::min(serial_ms, ms);
        }

        // Batched engine: all M lanes in one levelized walk (chunked at
        // the mask width). Construction is in the timed region — it is
        // part of what a validation pays. Consumers read the relation
        // tables in place, so the parity copies live in the untimed pass.
        std::vector<timing::RelationMap> batched(m);
        size_t tag_groups = 0;
        size_t lane_tags = 0;
        size_t blocks = 0;
        auto run_batched = [&](bool collect) {
          for (size_t first = 0; first < m; first += timing::kMaxBatchLanes) {
            const size_t count =
                std::min(timing::kMaxBatchLanes, m - first);
            std::vector<timing::StaLane> lanes(count);
            for (size_t l = 0; l < count; ++l) {
              lanes[l] = {prep.mode_graphs[first + l].get(),
                          prep.exceptions[first + l].get()};
            }
            timing::BatchPropagator prop(graph, std::move(lanes));
            timing::BatchOptions bopts;
            bopts.compute_arrivals = false;
            bopts.analyze_hold = true;
            bopts.pool = &pool;
            prop.run(bopts);
            if (collect) {
              for (size_t l = 0; l < count; ++l) {
                batched[first + l] = prop.relations(l);
              }
              tag_groups += prop.shared_tag_groups();
              lane_tags += prop.lane_tag_total();
              blocks += prop.num_resolution_blocks();
            }
          }
        };
        run_batched(/*collect=*/true);
        double batched_ms = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          Stopwatch timer;
          run_batched(/*collect=*/false);
          const double ms = timer.elapsed_ms();
          batched_ms = rep == 0 ? ms : std::min(batched_ms, ms);
        }

        bool parity = true;
        for (size_t i = 0; parity && i < m; ++i) {
          parity = relations_identical(serial[i], batched[i]);
        }
        ok = ok && parity;
        const double speedup = batched_ms > 0 ? serial_ms / batched_ms : 0.0;
        if (m == 64 && threads == 8) m64_speedup = std::max(m64_speedup, speedup);

        std::printf("%10zu %8zu %8zu %7zu %11.2f %12.2f %8.1fx %9zu %8zu %7s\n",
                    design.num_instances(), graph.num_levels(), m, threads,
                    serial_ms, batched_ms, speedup, tag_groups, lane_tags,
                    parity ? "yes" : "NO!");

        json.begin_object();
        json.key("cells").value(design.num_instances());
        json.key("levels").value(graph.num_levels());
        json.key("modes").value(m);
        json.key("threads").value(threads);
        json.key("serial_validate_ms").value(serial_ms);
        json.key("batched_validate_ms").value(batched_ms);
        json.key("speedup").value(speedup);
        json.key("tag_groups").value(tag_groups);
        json.key("lane_tags").value(lane_tags);
        json.key("sharing_factor")
            .value(tag_groups > 0
                       ? static_cast<double>(lane_tags) / tag_groups
                       : 0.0);
        json.key("resolution_blocks").value(blocks);
        json.key("parity").value(parity);

        // End-to-end pipeline parity once per (design, M): merged SDC from
        // the production validation path (member walks reused from
        // refinement; reported as pipeline_batched_validate_ms, the key
        // kept for baseline compatibility) must be byte-identical to the
        // serial reference's. Folded into the threads=8 row.
        if (threads == 8) {
          merge::MergeOptions mo;
          mo.num_threads = 8;
          mo.use_batched_sta = false;
          const merge::MergedModeSet ser =
              merge::merge_mode_set(graph, mode_ptrs, mo);
          mo.use_batched_sta = true;
          const merge::MergedModeSet bat =
              merge::merge_mode_set(graph, mode_ptrs, mo);
          bool identical = ser.cliques == bat.cliques &&
                           ser.merged.size() == bat.merged.size();
          double ser_validate = 0.0, bat_validate = 0.0;
          for (size_t c = 0; identical && c < ser.merged.size(); ++c) {
            identical = sdc::write_sdc(*ser.merged[c].merge.merged) ==
                        sdc::write_sdc(*bat.merged[c].merge.merged);
          }
          for (const auto& r : ser.merged) {
            ser_validate += r.merge.stats.validate_seconds;
          }
          for (const auto& r : bat.merged) {
            bat_validate += r.merge.stats.validate_seconds;
          }
          ok = ok && identical;
          json.key("merged_sdc_identical").value(identical);
          json.key("pipeline_serial_validate_ms").value(ser_validate * 1e3);
          json.key("pipeline_batched_validate_ms").value(bat_validate * 1e3);
          if (!identical) {
            std::fprintf(stderr,
                         "[STA PARITY VIOLATION] merged SDC differs between "
                         "reused and serial validation (cells=%zu M=%zu)\n",
                         design.num_instances(), m);
          }
        }
        json.end_object();
      }
    }
  }

  json.end_array();
  json.key("m64_speedup").value(m64_speedup);
  json.key("stats").raw(obs::stats_json());
  json.end_object();
  std::ofstream("BENCH_sta_scale.json") << json.str() << '\n';
  std::fprintf(stderr, "wrote BENCH_sta_scale.json\n");

  if (m64_speedup < 3.0) {
    std::fprintf(stderr,
                 "warning: M=64 batched speedup %.1fx below the 3x target\n",
                 m64_speedup);
  }
  if (!ok) {
    std::fprintf(stderr, "[STA PARITY VIOLATION] batched lanes diverged "
                         "from the serial reference\n");
    return 1;
  }
  return 0;
}
