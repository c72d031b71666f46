// Equivalence checker tests: the §2 two-sided definition, detection of
// optimism and pessimism, independence from constraint *form*, and the
// reuse of refinement's member walks by validation.

#include <gtest/gtest.h>

#include <memory>

#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "gen/paper_circuit.h"
#include "merge/clock_refine.h"
#include "merge/data_refine.h"
#include "merge/equivalence.h"
#include "merge/merger.h"
#include "merge/preliminary.h"
#include "obs/metrics.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

namespace mm::merge {
namespace {

class EquivTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  timing::TimingGraph graph{design};

  sdc::Sdc parse(const std::string& text) {
    return sdc::parse_sdc(text, design);
  }

  /// Check a "merged" candidate against a single original mode; the clock
  /// map is built by a trivial 1-mode preliminary merge of the original.
  EquivalenceReport check(const sdc::Sdc& original,
                          const sdc::Sdc& candidate) {
    MergeResult base = preliminary_merge({&original}, {});
    RefineContext ctx(graph, {&original});
    return check_equivalence(ctx, candidate, base.clock_map);
  }
};

TEST_F(EquivTest, IdenticalModesAreEquivalent) {
  const std::string text =
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n";
  sdc::Sdc a = parse(text), b = parse(text);
  const EquivalenceReport r = check(a, b);
  EXPECT_TRUE(r.equivalent());
  EXPECT_GT(r.keys_compared, 0u);
  EXPECT_EQ(r.matches, r.keys_compared);
}

TEST_F(EquivTest, FormIndependence) {
  // The paper's §2 point: rewriting a constraint in a different form that
  // affects the same paths must compare equal.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");
  // Same effect, written as -from + -through: the only paths into rX/D come
  // from rA through inv1/Z.
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP] -through [get_pins inv1/Z] "
      "-to [get_pins rX/D]\n");
  EXPECT_TRUE(check(a, b).equivalent());
}

TEST_F(EquivTest, DetectsOptimism) {
  sdc::Sdc a = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");  // loses a timed endpoint
  const EquivalenceReport r = check(a, b);
  EXPECT_GT(r.optimism_violations, 0u);
  EXPECT_FALSE(r.signoff_safe());
  EXPECT_FALSE(r.examples.empty());
}

TEST_F(EquivTest, DetectsPessimism) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const EquivalenceReport r = check(a, b);
  EXPECT_EQ(r.optimism_violations, 0u);
  EXPECT_GT(r.pessimism_keys, 0u);
  EXPECT_TRUE(r.signoff_safe());
  EXPECT_FALSE(r.equivalent());
}

TEST_F(EquivTest, DetectsLostMcpAsStateMismatch) {
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_multicycle_path 2 -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  const EquivalenceReport r = check(a, b);
  EXPECT_GT(r.state_mismatches, 0u);
  EXPECT_FALSE(r.equivalent());
  EXPECT_TRUE(r.signoff_safe());  // still times everything
}

TEST_F(EquivTest, StartpointLevelCatchesPathSwaps) {
  // Endpoint-level sets can hide a swap: A false-paths rA->rY, candidate
  // false-paths rB->rY. Both give {FP, V} at rY/D; startpoint level must
  // flag it.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rA/CP] -to [get_pins rY/D]\n");
  sdc::Sdc b = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -from [get_pins rB/CP] -to [get_pins rY/D]\n");
  MergeResult base = preliminary_merge({&a}, {});
  RefineContext ctx(graph, {&a});

  const EquivalenceReport shallow =
      check_equivalence(ctx, b, base.clock_map, /*startpoint_level=*/false);
  EXPECT_EQ(shallow.optimism_violations, 0u);  // hidden at this granularity

  const EquivalenceReport deep =
      check_equivalence(ctx, b, base.clock_map, /*startpoint_level=*/true);
  EXPECT_GT(deep.optimism_violations + deep.pessimism_keys, 0u);
}

TEST_F(EquivTest, MultiModeUnion) {
  // Candidate must match the union of two modes.
  sdc::Sdc a = parse(
      "create_clock -name c -period 10 [get_ports clk1]\n"
      "set_false_path -to [get_pins rX/D]\n");
  sdc::Sdc b = parse("create_clock -name c -period 10 [get_ports clk1]\n");
  // Mode b times rX/D, so a union-equivalent candidate times everything.
  sdc::Sdc candidate = parse("create_clock -name c -period 10 [get_ports clk1]\n");

  MergeResult base = preliminary_merge({&a, &b}, {});
  RefineContext ctx(graph, {&a, &b});
  const EquivalenceReport r =
      check_equivalence(ctx, candidate, base.clock_map);
  EXPECT_TRUE(r.equivalent());
}


// --- validation reusing refinement's member walks ---------------------------

uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

void expect_same_counters(const EquivalenceReport& want,
                          const EquivalenceReport& got,
                          const std::string& what) {
  EXPECT_EQ(want.keys_compared, got.keys_compared) << what;
  EXPECT_EQ(want.matches, got.matches) << what;
  EXPECT_EQ(want.optimism_violations, got.optimism_violations) << what;
  EXPECT_EQ(want.pessimism_keys, got.pessimism_keys) << what;
  EXPECT_EQ(want.state_mismatches, got.state_mismatches) << what;
}

/// Refine `members` on one context, then validate a deck three ways: on
/// that context (reusing pass 1's member maps), on a fresh context (which
/// has no stored maps, so every member is walked afresh) and with the
/// serial reference (which re-walks every member whatever the context
/// holds). Both the refined deck and the unrefined
/// preliminary deck are checked, so the comparison covers non-zero
/// pessimism counters too.
void check_reuse_path(const timing::TimingGraph& graph,
                      const std::vector<const Sdc*>& members) {
  const MergeOptions options;
  MergeResult result = preliminary_merge(members, options);
  const MergeResult preliminary = preliminary_merge(members, options);
  RefineContext ctx(graph, members);
  EXPECT_TRUE(ctx.member_relations.empty());
  refine_clock_network(ctx, result, options);
  refine_data_network(ctx, result, options);
  ASSERT_EQ(ctx.member_relations.size(), members.size());

  const MergeResult& refined = result;
  for (const MergeResult* deck : {&refined, &preliminary}) {
    const std::string what =
        deck == &refined ? "refined deck" : "preliminary deck";
    const Sdc& merged = *deck->merged;
    const ClockMap& map = deck->clock_map;

    // Reused: exactly one walk, the merged deck.
    const uint64_t walks0 = counter("timing/propagations");
    const EquivalenceReport reused = check_equivalence(ctx, merged, map);
    EXPECT_EQ(counter("timing/propagations") - walks0, 1u) << what;

    // Fresh context: no stored maps, so every member plus the merged deck.
    RefineContext fresh_ctx(graph, members);
    const uint64_t walks1 = counter("timing/propagations");
    const EquivalenceReport fresh = check_equivalence(fresh_ctx, merged, map);
    EXPECT_EQ(counter("timing/propagations") - walks1, members.size() + 1)
        << what;
    EXPECT_TRUE(fresh_ctx.member_relations.empty()) << what;

    // Serial reference on the refined context: it ignores the stored maps
    // and re-walks every member plus the merged deck.
    const uint64_t walks2 = counter("timing/propagations");
    const EquivalenceReport serial = check_equivalence(
        ctx, merged, map, /*startpoint_level=*/false, /*num_threads=*/2,
        /*use_batched_sta=*/false);
    EXPECT_EQ(counter("timing/propagations") - walks2, members.size() + 1)
        << what;

    expect_same_counters(serial, reused, what + ": reused vs serial");
    expect_same_counters(serial, fresh, what + ": fresh vs serial");
    EXPECT_GT(reused.keys_compared, 0u) << what;
  }
}

TEST_F(EquivTest, ReusedMemberWalksMatchFreshAndSerialOnPaperFamily) {
  namespace cs = gen::constraint_sets;
  std::vector<sdc::Sdc> modes;
  for (const char* text :
       {cs::kSet2ModeA, cs::kSet2ModeB, cs::kSet3ModeA, cs::kSet3ModeB,
        cs::kSet4ModeA, cs::kSet4ModeB, cs::kSet5ModeA, cs::kSet5ModeB,
        cs::kSet6ModeA, cs::kSet6ModeB}) {
    modes.push_back(parse(text));
  }
  std::vector<const Sdc*> ptrs;
  for (const sdc::Sdc& m : modes) ptrs.push_back(&m);
  check_reuse_path(graph, ptrs);
}

/// One planted mergeable group of a generated mode family (group-common
/// multicycle paths and per-mode false paths) on a generated design.
class GeneratedCliqueTest : public ::testing::Test {
 protected:
  GeneratedCliqueTest() {
    dp_.seed = 11;
    dp_.num_regs = 60;
    design_ = std::make_unique<netlist::Design>(
        gen::generate_design(lib_, dp_));
    graph_ = std::make_unique<timing::TimingGraph>(*design_);
    gen::ModeFamilyParams mp;
    mp.seed = 11;
    mp.num_modes = 8;
    mp.target_groups = 2;
    for (const gen::GeneratedMode& gm : gen::generate_mode_family(dp_, mp)) {
      if (gm.group != 0) continue;
      modes_.push_back(std::make_unique<sdc::Sdc>(
          sdc::parse_sdc(gm.sdc_text, *design_)));
      clique_.push_back(modes_.back().get());
    }
  }

  netlist::Library lib_ = netlist::Library::builtin();
  gen::DesignParams dp_;
  std::unique_ptr<netlist::Design> design_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::vector<std::unique_ptr<sdc::Sdc>> modes_;
  std::vector<const Sdc*> clique_;
};

TEST_F(GeneratedCliqueTest, ReusedMemberWalksMatchFreshAndSerial) {
  ASSERT_GE(clique_.size(), 2u);
  check_reuse_path(*graph_, clique_);
}

TEST_F(GeneratedCliqueTest, DebugMutationsStillFlaggedThroughMergeModes) {
  // Validation walks the merged deck fresh after apply_debug_mutation, so
  // reusing the members' maps must not hide any injected bug.
  ASSERT_GE(clique_.size(), 2u);
  auto run = [&](DebugMutation mutation, bool interned) {
    MergeOptions options;
    options.debug_mutation = mutation;
    options.use_interned_keys = interned;
    return merge_modes(*graph_, clique_, options);
  };

  const ValidatedMergeResult clean = run(DebugMutation::kNone, true);
  EXPECT_TRUE(clean.equivalence.signoff_safe());
  const std::string clean_text = sdc::write_sdc(*clean.merge.merged);
  EXPECT_EQ(clean_text,
            sdc::write_sdc(*run(DebugMutation::kNone, false).merge.merged));

  // MCPs rewritten to false paths: the merged deck stops timing paths the
  // members time.
  EXPECT_GT(run(DebugMutation::kFalsifyMcp, true)
                .equivalence.optimism_violations,
            0u);
  // Every exception dropped: the merged deck times paths no member times.
  EXPECT_FALSE(
      run(DebugMutation::kDropExceptions, true).equivalence.equivalent());
  // Reordered exceptions keep the relations (validation stays clean); the
  // interned-vs-string-keyed byte parity is what flags this one.
  const ValidatedMergeResult shuffled =
      run(DebugMutation::kShuffleInterned, true);
  EXPECT_TRUE(shuffled.equivalence.signoff_safe());
  EXPECT_NE(sdc::write_sdc(*shuffled.merge.merged), clean_text);
}

}  // namespace
}  // namespace mm::merge
