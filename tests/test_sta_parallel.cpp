// Batched level-parallel STA (timing/sta_batch.h) vs the serial engine:
// lane-for-lane byte parity on the paper's 10-mode example and a 64-mode
// generated family, determinism across thread counts, and levelization edge
// cases (empty graph, single-node levels).

#include <gtest/gtest.h>

#include <memory>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/equivalence.h"
#include "merge/preliminary.h"
#include "netlist/builder.h"
#include "sdc/parser.h"
#include "timing/delay_calc.h"
#include "timing/sta.h"
#include "timing/sta_batch.h"
#include "util/thread_pool.h"

namespace mm::timing {
namespace {

/// Exact-equality comparison of two relation maps — same keys, and per key
/// byte-identical state sets, slacks, arrivals and worst-capture clock.
/// (Entry iteration order inside the engines differs — push vs pull — but
/// every per-key aggregate is order-independent, so the *content* must be
/// bit-equal, not just close.)
void expect_relations_equal(const RelationMap& serial, const RelationMap& batch,
                            const std::string& what) {
  EXPECT_EQ(serial.size(), batch.size()) << what;
  for (const auto& [key, sdata] : serial) {
    const auto it = batch.find(key);
    ASSERT_NE(it, batch.end()) << what << ": key missing from batched result";
    const RelationData& bdata = it->second;
    EXPECT_EQ(sdata.states, bdata.states) << what;
    EXPECT_EQ(sdata.hold_states, bdata.hold_states) << what;
    EXPECT_EQ(sdata.worst_slack, bdata.worst_slack) << what;
    EXPECT_EQ(sdata.worst_hold_slack, bdata.worst_hold_slack) << what;
    EXPECT_EQ(sdata.worst_arrival, bdata.worst_arrival) << what;
    EXPECT_EQ(sdata.worst_capture, bdata.worst_capture) << what;
  }
}

/// Serial reference propagation of one mode under equivalence-style options.
RelationMap serial_relations(const ModeGraph& mode,
                             const CompiledExceptions& exceptions,
                             const PropagationOptions& opts) {
  Propagator prop(mode, exceptions);
  prop.run(opts);
  return prop.relations();
}

class StaParallelTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();

  /// Per-mode structures + a BatchPropagator lane list for a set of decks.
  struct Batch {
    std::vector<std::unique_ptr<ModeGraph>> mode_graphs;
    std::vector<std::unique_ptr<CompiledExceptions>> exceptions;
    std::vector<StaLane> lanes;
  };

  static Batch make_batch(const TimingGraph& graph,
                          const std::vector<sdc::Sdc>& modes) {
    Batch b;
    for (const sdc::Sdc& sdc : modes) {
      b.mode_graphs.push_back(std::make_unique<ModeGraph>(graph, sdc));
      b.exceptions.push_back(std::make_unique<CompiledExceptions>(graph, sdc));
      b.lanes.push_back({b.mode_graphs.back().get(), b.exceptions.back().get()});
    }
    return b;
  }

  /// The paper's ten constraint sets (§4 example family).
  static std::vector<sdc::Sdc> paper_modes(const netlist::Design& design) {
    namespace cs = gen::constraint_sets;
    std::vector<sdc::Sdc> modes;
    for (const char* text :
         {cs::kSet2ModeA, cs::kSet2ModeB, cs::kSet3ModeA, cs::kSet3ModeB,
          cs::kSet4ModeA, cs::kSet4ModeB, cs::kSet5ModeA, cs::kSet5ModeB,
          cs::kSet6ModeA, cs::kSet6ModeB}) {
      modes.push_back(sdc::parse_sdc(text, design));
    }
    return modes;
  }
};

TEST_F(StaParallelTest, PaperTenModeLaneParity) {
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  const std::vector<sdc::Sdc> modes = paper_modes(design);

  for (const bool track_startpoints : {false, true}) {
    PropagationOptions sopts;
    sopts.compute_arrivals = true;
    sopts.analyze_hold = true;
    sopts.track_startpoints = track_startpoints;

    Batch b = make_batch(graph, modes);
    BatchPropagator prop(graph, std::move(b.lanes));
    BatchOptions bopts;
    bopts.compute_arrivals = true;
    bopts.analyze_hold = true;
    bopts.track_startpoints = track_startpoints;
    prop.run(bopts);

    ASSERT_EQ(prop.num_lanes(), modes.size());
    for (size_t m = 0; m < modes.size(); ++m) {
      const RelationMap serial =
          serial_relations(*b.mode_graphs[m], *b.exceptions[m], sopts);
      expect_relations_equal(serial, prop.relations(m),
                             "mode " + std::to_string(m) + " sp=" +
                                 std::to_string(track_startpoints));
    }
    // Sharing must actually happen: the walk carries fewer tag groups than
    // the per-lane tags they represent.
    EXPECT_LT(prop.shared_tag_groups(), prop.lane_tag_total());
  }
}

TEST_F(StaParallelTest, RunStaBatchMatchesRunStaPerMode) {
  // Full-STA config: per-mode delay-calculated arc delays (lanes with
  // different delay vectors), arrivals + hold.
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  const std::vector<sdc::Sdc> modes = paper_modes(design);
  std::vector<const sdc::Sdc*> ptrs;
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

  const BatchStaResult batch =
      run_sta_batch(graph, ptrs, /*analyze_hold=*/true);
  ASSERT_EQ(batch.per_mode.size(), modes.size());
  for (size_t m = 0; m < modes.size(); ++m) {
    const StaResult serial = run_sta(graph, modes[m], /*analyze_hold=*/true);
    EXPECT_EQ(serial.endpoint_slack, batch.per_mode[m].endpoint_slack)
        << "mode " << m;
    EXPECT_EQ(serial.endpoint_hold_slack, batch.per_mode[m].endpoint_hold_slack)
        << "mode " << m;
    EXPECT_DOUBLE_EQ(serial.wns, batch.per_mode[m].wns) << "mode " << m;
  }

  const StaResult multi = run_sta_multi(graph, ptrs);
  EXPECT_EQ(multi.endpoint_slack, batch.combined.endpoint_slack);

  // SoA lanes mirror the per-lane worst-slack maps.
  EXPECT_EQ(batch.combined.num_endpoints, multi.num_endpoints);
}

TEST_F(StaParallelTest, SoaLanesMatchRelationAggregates) {
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  const std::vector<sdc::Sdc> modes = paper_modes(design);

  Batch b = make_batch(graph, modes);
  BatchPropagator prop(graph, std::move(b.lanes));
  BatchOptions bopts;
  bopts.compute_arrivals = true;
  bopts.analyze_hold = true;
  prop.run(bopts);

  const size_t L = prop.num_lanes();
  ASSERT_EQ(prop.slack_lanes().size(), graph.endpoints().size() * L);
  for (size_t l = 0; l < L; ++l) {
    const auto by_ep = prop.worst_slack_by_endpoint(l);
    size_t found = 0;
    for (size_t i = 0; i < graph.endpoints().size(); ++i) {
      const float lane_slack = prop.slack_at(i, l);
      const auto it = by_ep.find(graph.endpoints()[i].value());
      if (it == by_ep.end()) {
        EXPECT_EQ(lane_slack, BatchPropagator::kNoSlack);
      } else {
        EXPECT_EQ(lane_slack, it->second);
        ++found;
      }
    }
    EXPECT_EQ(found, by_ep.size());
  }
}

TEST_F(StaParallelTest, Generated64ModeParity) {
  // 64 generated modes in 4 mergeable groups on a small synthetic design —
  // the scale point the bench gates at (M=64), shrunk for test time.
  gen::DesignParams dp;
  dp.num_regs = 48;
  dp.comb_per_reg = 2;
  netlist::Design design = gen::generate_design(lib, dp);
  TimingGraph graph(design);

  gen::ModeFamilyParams mp;
  mp.num_modes = 64;
  mp.target_groups = 4;
  const std::vector<gen::GeneratedMode> family =
      gen::generate_mode_family(dp, mp);
  ASSERT_EQ(family.size(), 64u);
  std::vector<sdc::Sdc> modes;
  for (const gen::GeneratedMode& g : family) {
    modes.push_back(sdc::parse_sdc(g.sdc_text, design));
  }

  // Equivalence-style options: state sets + hold, no arrivals.
  PropagationOptions sopts;
  sopts.compute_arrivals = false;
  sopts.analyze_hold = true;

  Batch b = make_batch(graph, modes);
  BatchPropagator prop(graph, std::move(b.lanes));
  BatchOptions bopts;
  bopts.compute_arrivals = false;
  bopts.analyze_hold = true;
  prop.run(bopts);

  for (size_t m = 0; m < modes.size(); ++m) {
    const RelationMap serial =
        serial_relations(*b.mode_graphs[m], *b.exceptions[m], sopts);
    expect_relations_equal(serial, prop.relations(m),
                           "generated mode " + std::to_string(m));
  }
  // Generated families carry diverse exceptions (many compatibility
  // classes), so sharing is weaker than the paper clique — but lanes that
  // do agree must still collapse into shared groups.
  EXPECT_LT(prop.shared_tag_groups(), prop.lane_tag_total());
}

TEST_F(StaParallelTest, ResolutionBlocksCollapseIdenticalLanes) {
  // Validation configuration: lanes whose exceptions, exclusivity and
  // endpoint tags all agree must share one physical relation map. Eight
  // copies of one deck + one lane with an extra false path must yield
  // exactly two resolution blocks, with per-lane parity intact.
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  namespace cs = gen::constraint_sets;
  std::vector<sdc::Sdc> modes;
  for (int i = 0; i < 8; ++i) {
    modes.push_back(sdc::parse_sdc(cs::kSet2ModeA, design));
  }
  modes.push_back(sdc::parse_sdc(
      std::string(cs::kSet2ModeA) +
          "\nset_false_path -from [get_clocks clkA] -to [get_clocks clkB]\n",
      design));

  PropagationOptions sopts;
  sopts.compute_arrivals = false;
  sopts.analyze_hold = true;

  Batch b = make_batch(graph, modes);
  BatchPropagator prop(graph, std::move(b.lanes));
  BatchOptions bopts;
  bopts.compute_arrivals = false;
  bopts.analyze_hold = true;
  prop.run(bopts);

  EXPECT_EQ(prop.num_resolution_blocks(), 2u);
  for (size_t m = 0; m < modes.size(); ++m) {
    const RelationMap serial =
        serial_relations(*b.mode_graphs[m], *b.exceptions[m], sopts);
    expect_relations_equal(serial, prop.relations(m),
                           "block lane " + std::to_string(m));
  }
  // The identical lanes must alias the same physical map.
  EXPECT_EQ(&prop.relations(0), &prop.relations(7));
  EXPECT_NE(&prop.relations(0), &prop.relations(8));

  // Outside the validation configuration per-lane slack output forces one
  // map per lane — blocks degenerate to lanes.
  Batch b2 = make_batch(graph, modes);
  BatchPropagator full(graph, std::move(b2.lanes));
  BatchOptions fopts;
  fopts.compute_arrivals = true;
  fopts.analyze_hold = true;
  full.run(fopts);
  EXPECT_EQ(full.num_resolution_blocks(), full.num_lanes());
}

TEST_F(StaParallelTest, DeterministicAcrossThreadCounts) {
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  const std::vector<sdc::Sdc> modes = paper_modes(design);

  auto run_with_pool = [&](size_t threads) {
    Batch b = make_batch(graph, modes);
    auto prop = std::make_unique<BatchPropagator>(graph, std::move(b.lanes));
    ThreadPool pool(threads);
    BatchOptions bopts;
    bopts.compute_arrivals = true;
    bopts.analyze_hold = true;
    bopts.pool = &pool;
    bopts.min_grain = 1;  // force real fan-out even on tiny levels
    // keep the mode structures alive for the comparison below
    struct Out {
      Batch batch;
      std::unique_ptr<BatchPropagator> prop;
    };
    prop->run(bopts);
    return Out{std::move(b), std::move(prop)};
  };

  const auto t1 = run_with_pool(1);
  const auto t8 = run_with_pool(8);
  ASSERT_EQ(t1.prop->num_lanes(), t8.prop->num_lanes());
  for (size_t m = 0; m < t1.prop->num_lanes(); ++m) {
    expect_relations_equal(t1.prop->relations(m), t8.prop->relations(m),
                           "threads 1 vs 8, mode " + std::to_string(m));
  }
  // The SoA vectors must be byte-identical, not merely equivalent.
  EXPECT_EQ(t1.prop->slack_lanes(), t8.prop->slack_lanes());
  EXPECT_EQ(t1.prop->hold_slack_lanes(), t8.prop->hold_slack_lanes());
  EXPECT_EQ(t1.prop->arrival_lanes(), t8.prop->arrival_lanes());
}

TEST_F(StaParallelTest, EquivalenceBatchedMatchesSerialReference) {
  // The merge-level integration: check_equivalence over the 10-mode paper
  // family must report identical counters on the production path (here a
  // fresh context, so members are walked afresh) and the serial reference,
  // across thread counts. The reuse of refinement's member walks is
  // covered in test_equivalence (*ReusedMemberWalksMatchFreshAndSerial*).
  netlist::Design design = gen::paper_circuit(lib);
  TimingGraph graph(design);
  const std::vector<sdc::Sdc> modes = paper_modes(design);
  std::vector<const sdc::Sdc*> ptrs;
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);

  merge::MergeResult base = merge::preliminary_merge(ptrs, {});
  merge::RefineContext ctx(graph, ptrs);

  const merge::EquivalenceReport serial = merge::check_equivalence(
      ctx, *base.merged, base.clock_map, /*startpoint_level=*/false,
      /*num_threads=*/1, /*use_batched_sta=*/false);
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    const merge::EquivalenceReport batched = merge::check_equivalence(
        ctx, *base.merged, base.clock_map, /*startpoint_level=*/false,
        threads, /*use_batched_sta=*/true);
    EXPECT_EQ(serial.keys_compared, batched.keys_compared);
    EXPECT_EQ(serial.matches, batched.matches);
    EXPECT_EQ(serial.optimism_violations, batched.optimism_violations);
    EXPECT_EQ(serial.pessimism_keys, batched.pessimism_keys);
    EXPECT_EQ(serial.state_mismatches, batched.state_mismatches);
  }
}

TEST_F(StaParallelTest, EmptyGraphEdgeCase) {
  // A design with no pins levelizes to zero levels; the batch engine must
  // run and produce empty lanes rather than tripping on the empty walk.
  netlist::Design design("empty", &lib);
  TimingGraph graph(design);
  EXPECT_EQ(graph.num_levels(), 0u);

  const sdc::Sdc sdc = sdc::parse_sdc("", design);
  ModeGraph mode(graph, sdc);
  CompiledExceptions exceptions(graph, sdc);
  BatchPropagator prop(graph, {{&mode, &exceptions}});
  BatchOptions bopts;
  bopts.analyze_hold = true;
  prop.run(bopts);
  EXPECT_TRUE(prop.relations(0).empty());
  EXPECT_EQ(prop.shared_tag_groups(), 0u);
}

TEST_F(StaParallelTest, SingleNodeLevelChain) {
  // A pure buffer chain: every level holds exactly one pin, so each
  // parallel_for batch degenerates to a single node — the walk must still
  // match the serial engine exactly.
  netlist::Design design("chain", &lib);
  netlist::Builder b(&design);
  b.input("in");
  b.inst(netlist::cells::kBuf, "b1", {{"A", "in"}, {"Z", "n1"}});
  b.inst(netlist::cells::kBuf, "b2", {{"A", "n1"}, {"Z", "n2"}});
  b.inst(netlist::cells::kBuf, "b3", {{"A", "n2"}, {"Z", "out"}});
  b.output("out");
  TimingGraph graph(design);
  for (const auto& level : graph.levels()) EXPECT_EQ(level.size(), 1u);

  const sdc::Sdc sdc = sdc::parse_sdc(
      "create_clock -name c -period 10\n"
      "set_input_delay 1 -clock c [get_ports in]\n"
      "set_output_delay 2 -clock c [get_ports out]\n",
      design);
  ModeGraph mode(graph, sdc);
  CompiledExceptions exceptions(graph, sdc);

  PropagationOptions sopts;
  sopts.compute_arrivals = true;
  sopts.analyze_hold = true;
  const RelationMap serial = serial_relations(mode, exceptions, sopts);
  ASSERT_FALSE(serial.empty());

  ThreadPool pool(4);
  BatchPropagator prop(graph, {{&mode, &exceptions}});
  BatchOptions bopts;
  bopts.compute_arrivals = true;
  bopts.analyze_hold = true;
  bopts.pool = &pool;
  bopts.min_grain = 1;
  prop.run(bopts);
  expect_relations_equal(serial, prop.relations(0), "buffer chain");
}

}  // namespace
}  // namespace mm::timing
