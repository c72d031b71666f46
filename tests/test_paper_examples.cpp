// End-to-end reproduction of the paper's worked examples on the Figure-1
// circuit: Constraint Sets 2 (clock union + tolerance merge), 3 (clock
// refinement + disable inference), 4 (exception uniquification) and 5 (data
// refinement / exclusivity). Table 1 is covered in test_relationships,
// Constraint Set 6 in test_three_pass.

#include <gtest/gtest.h>

#include "gen/paper_circuit.h"
#include "merge/merger.h"
#include "merge/preliminary.h"
#include "sdc/parser.h"
#include "sdc/writer.h"

namespace mm::merge {
namespace {

namespace cs = gen::constraint_sets;

class PaperTest : public ::testing::Test {
 protected:
  netlist::Library lib = netlist::Library::builtin();
  netlist::Design design = gen::paper_circuit(lib);
  timing::TimingGraph graph{design};

  sdc::Sdc parse(const char* text) { return sdc::parse_sdc(text, design); }
};

// --- Constraint Set 2: §3.1.1 clock union, §3.1.2 tolerance merge ----------

TEST_F(PaperTest, Set2ClockUnion) {
  const sdc::Sdc a = parse(cs::kSet2ModeA);
  const sdc::Sdc b = parse(cs::kSet2ModeB);
  MergeOptions options;
  options.value_tolerance = 0.1;  // 1.0 vs 1.05 is "within tolerance"
  MergeResult result = preliminary_merge({&a, &b}, options);
  const sdc::Sdc& merged = *result.merged;

  // Four clocks: A.clkA, A.clkB; B.clkA and B.clkB are unique (different
  // periods) and B.clkC dedups with A.clkB.
  EXPECT_EQ(merged.num_clocks(), 4u);
  EXPECT_EQ(result.stats.clocks_deduped, 1u);
  EXPECT_TRUE(merged.find_clock("clkA").valid());
  EXPECT_TRUE(merged.find_clock("clkB").valid());
  // Name collisions resolved with unique suffixes (paper: clkB -> clkB_1).
  EXPECT_TRUE(merged.find_clock("clkA_1").valid());
  EXPECT_TRUE(merged.find_clock("clkB_1").valid());
  EXPECT_EQ(result.stats.clocks_renamed, 2u);

  // All merged clocks carry -add so they coexist on shared sources.
  for (const sdc::Clock& c : merged.clocks()) EXPECT_TRUE(c.add);

  // Clock map is two-way consistent.
  const ClockMap& map = result.clock_map;
  for (size_t m = 0; m < 2; ++m) {
    const sdc::Sdc& mode = m == 0 ? a : b;
    for (size_t ci = 0; ci < mode.num_clocks(); ++ci) {
      const ClockId mc(ci);
      const ClockId merged_id = map.merged_of(m, mc);
      ASSERT_TRUE(merged_id.valid());
      EXPECT_EQ(map.mode_clock_of(merged_id, m), mc);
    }
  }

  // §3.1.2: min-flavour latency on the shared clock = min(1.0, 1.05).
  const ClockId clkB = merged.find_clock("clkB");
  bool found = false;
  for (const sdc::ClockLatency& lat : merged.clock_latencies()) {
    if (lat.clock == clkB && lat.minmax.min) {
      EXPECT_DOUBLE_EQ(lat.value, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PaperTest, Set2OutOfToleranceDropsConstraint) {
  const sdc::Sdc a = parse(cs::kSet2ModeA);
  const sdc::Sdc b = parse(cs::kSet2ModeB);
  MergeOptions options;
  options.value_tolerance = 0.0;  // 1.0 vs 1.05 now conflicts
  MergeResult result = preliminary_merge({&a, &b}, options);
  EXPECT_GE(result.stats.clock_constraints_dropped, 1u);
}

// --- Constraint Set 3: §3.1.8 clock refinement --------------------------------

TEST_F(PaperTest, Set3ClockRefinement) {
  const sdc::Sdc a = parse(cs::kSet3ModeA);
  const sdc::Sdc b = parse(cs::kSet3ModeB);
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const sdc::Sdc& merged = *out.merge.merged;

  // Conflicting case values on sel1/sel2 are dropped...
  EXPECT_TRUE(merged.case_analysis().empty());
  EXPECT_GE(out.merge.stats.case_dropped, 2u);

  // ...and re-expressed as inferred disables (paper CSTR1/CSTR2).
  EXPECT_EQ(out.merge.stats.inferred_disables, 2u);
  bool sel1 = false, sel2 = false;
  for (const sdc::DisableTiming& dt : merged.disables()) {
    if (!dt.pin.valid()) continue;
    if (design.pin_name(dt.pin) == "sel1") sel1 = true;
    if (design.pin_name(dt.pin) == "sel2") sel2 = true;
  }
  EXPECT_TRUE(sel1);
  EXPECT_TRUE(sel2);

  // The mux select is 1 in both modes, so clkA never passes mux1; the
  // merged mode must stop clkA at mux1/Z (paper CSTR3).
  bool stop_found = false;
  for (const sdc::ClockSenseStop& stop : merged.clock_sense_stops()) {
    if (design.pin_name(stop.pin) == "mux1/Z" && stop.clock.valid() &&
        merged.clock(stop.clock).name == "clkA") {
      stop_found = true;
    }
  }
  EXPECT_TRUE(stop_found);

  // clkB must NOT be stopped (it legitimately passes in both modes).
  for (const sdc::ClockSenseStop& stop : merged.clock_sense_stops()) {
    if (stop.clock.valid()) {
      EXPECT_NE(merged.clock(stop.clock).name, "clkB");
    }
  }

  // Correct by construction: sign-off safe, no pessimism.
  EXPECT_TRUE(out.equivalence.signoff_safe());
  EXPECT_EQ(out.equivalence.pessimism_keys, 0u);
}

// --- Constraint Set 4: §3.1.10 exception uniquification ------------------------

TEST_F(PaperTest, Set4ExceptionUniquification) {
  const sdc::Sdc a = parse(cs::kSet4ModeA);
  const sdc::Sdc b = parse(cs::kSet4ModeB);
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const sdc::Sdc& merged = *out.merge.merged;

  EXPECT_EQ(out.merge.stats.exceptions_uniquified, 1u);
  // MCP1 of A' in the paper: -from [get_clocks clkA] -through [rA/CP].
  bool found = false;
  for (const sdc::Exception& ex : merged.exceptions()) {
    if (ex.kind != sdc::ExceptionKind::kMulticyclePath) continue;
    if (ex.from.clocks.size() == 1 &&
        merged.clock(ex.from.clocks[0]).name == "clkA" &&
        ex.from.pins.empty() && ex.throughs.size() == 1 &&
        ex.throughs[0].pins.size() == 1 &&
        design.pin_name(ex.throughs[0].pins[0]) == "rA/CP") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << sdc::write_sdc(merged);
  EXPECT_TRUE(out.equivalence.signoff_safe());
}

// --- Constraint Set 5: §3.2 data refinement ------------------------------------

TEST_F(PaperTest, Set5DataRefinement) {
  const sdc::Sdc a = parse(cs::kSet5ModeA);
  const sdc::Sdc b = parse(cs::kSet5ModeB);
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const sdc::Sdc& merged = *out.merge.merged;

  // Union of clocks on the same port: both with -add (CSTR CLK1/CLK2).
  EXPECT_EQ(merged.num_clocks(), 2u);

  // External delays are a union with -add_delay on the later entries
  // (paper CSTR1-4).
  size_t in_delays = 0, out_delays = 0;
  for (const sdc::PortDelay& pd : merged.port_delays()) {
    (pd.is_input ? in_delays : out_delays)++;
  }
  EXPECT_EQ(in_delays, 2u);
  EXPECT_EQ(out_delays, 2u);

  // ClkA and ClkB never coexist in an individual mode: the merged mode must
  // declare them exclusive (paper CSTR5).
  EXPECT_TRUE(merged.clocks_exclusive(merged.find_clock("ClkA"),
                                      merged.find_clock("ClkB")));

  // Mode B pins rB/Q to 0, so ClkB never launches through rB/Q; the merged
  // mode needs a false path from ClkB through rB/Q (paper CSTR6).
  bool cstr6 = false;
  for (const sdc::Exception& ex : merged.exceptions()) {
    if (ex.kind != sdc::ExceptionKind::kFalsePath) continue;
    if (ex.from.clocks.size() == 1 &&
        merged.clock(ex.from.clocks[0]).name == "ClkB") {
      for (const sdc::ExceptionPoint& th : ex.throughs) {
        for (sdc::PinId p : th.pins) {
          if (design.pin_name(p) == "rB/Q") cstr6 = true;
        }
      }
    }
  }
  EXPECT_TRUE(cstr6) << sdc::write_sdc(merged);

  EXPECT_TRUE(out.equivalence.signoff_safe());
  EXPECT_EQ(out.equivalence.pessimism_keys, 0u);
}

TEST_F(PaperTest, Set5DataRefinementPastSixtyFourClocks) {
  // Constraint Set 5 widened to 66 merged clocks, so the per-pin clock-reach
  // rows of the data refinement span two 64-bit words. Mode A: CA0..CA32 on
  // clk1. Mode B: CB0..CB32 on clk1 (distinct periods, so nothing dedups)
  // plus set_case_analysis 0 rB/Q. The case is not common, so the merged
  // mode drops it.
  //
  // Hand derivation: in mode B, rB/Q is constant, so no clock reaches it,
  // and and1 = AND2(inv1/Z, rB/Q) is constant 0, so no clock reaches
  // and1/Z either. Mode A's clocks reach both. In the merged mode every CB
  // clock reaches rB/Q (through rB's CP->Q) and and1/Z (from rA through
  // inv1), where no individual mode has it. Each is cut at that frontier
  // pin, which also stops it from reaching inv2/Z and rY/D. So exactly
  // 2 x 33 false paths, emitted in (pin id, clock id) order.
  std::string text_a, text_b;
  for (int k = 0; k < 33; ++k) {
    text_a += "create_clock -name CA" + std::to_string(k) + " -period " +
              std::to_string(2.0 + 0.01 * k) + " -add [get_ports clk1]\n";
    text_b += "create_clock -name CB" + std::to_string(k) + " -period " +
              std::to_string(3.0 + 0.01 * k) + " -add [get_ports clk1]\n";
  }
  text_b += "set_case_analysis 0 rB/Q\n";
  const sdc::Sdc a = sdc::parse_sdc(text_a, design);
  const sdc::Sdc b = sdc::parse_sdc(text_b, design);
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});
  const sdc::Sdc& merged = *out.merge.merged;

  ASSERT_EQ(merged.num_clocks(), 66u);
  // The CB clocks straddle the word boundary of a reach row.
  EXPECT_LT(merged.find_clock("CB0").index(), 64u);
  EXPECT_GE(merged.find_clock("CB32").index(), 64u);

  std::vector<std::string> pins = {"rB/Q", "and1/Z"};
  if (design.find_pin("and1/Z").value() < design.find_pin("rB/Q").value()) {
    std::swap(pins[0], pins[1]);
  }
  std::vector<std::string> expected;
  for (const std::string& pin : pins) {
    for (int k = 0; k < 33; ++k) {
      expected.push_back("CB" + std::to_string(k) + " through " + pin);
    }
  }
  std::vector<std::string> got;
  for (const sdc::Exception& ex : merged.exceptions()) {
    if (ex.comment.rfind("data refinement: clock not in data network", 0) !=
        0) {
      continue;
    }
    ASSERT_EQ(ex.from.clocks.size(), 1u);
    ASSERT_EQ(ex.throughs.size(), 1u);
    ASSERT_EQ(ex.throughs[0].pins.size(), 1u);
    got.push_back(merged.clock(ex.from.clocks[0]).name + " through " +
                  std::string(design.pin_name(ex.throughs[0].pins[0])));
  }
  EXPECT_EQ(got, expected) << sdc::write_sdc(merged);
  EXPECT_EQ(out.merge.stats.data_clock_fps_added, expected.size());
  EXPECT_TRUE(out.equivalence.signoff_safe());
}

// --- merged modes round-trip through real SDC text -----------------------------

TEST_F(PaperTest, MergedModeRoundTripsThroughSdcText) {
  const sdc::Sdc a = parse(cs::kSet3ModeA);
  const sdc::Sdc b = parse(cs::kSet3ModeB);
  ValidatedMergeResult out = merge_modes(graph, {&a, &b});

  const std::string text = sdc::write_sdc(*out.merge.merged);
  const sdc::Sdc reparsed = sdc::parse_sdc(text, design);

  // The reparsed merged mode must still be equivalent to the originals.
  RefineContext ctx(graph, {&a, &b});
  const EquivalenceReport report =
      check_equivalence(ctx, reparsed, out.merge.clock_map);
  EXPECT_TRUE(report.signoff_safe()) << text;
  EXPECT_EQ(report.pessimism_keys, 0u) << text;
}

}  // namespace
}  // namespace mm::merge
