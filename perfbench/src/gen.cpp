// `perfbench_tool gen`: the workload catalogue and input generator.
//
// Every input is a pure function of (workload, seed): the design from
// gen::generate_design (fixed per workload), the planted mode family from
// gen::mode_gen (with gen::corner_gen derates for mcmm_matrix), and for
// edit_loop a script of single-mode edits whose mutants come from the fuzz
// harness's SDC mutator.
// modemerge sees only the files written here.

#include <cstdio>
#include <sstream>

#include "common.h"
#include "fuzz/fuzz.h"
#include "gen/corner_gen.h"
#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "merge/mergeability.h"
#include "merge/relationship_cache.h"
#include "netlist/verilog.h"
#include "sdc/parser.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

const WorkloadSpec& workload_spec(const std::string& name) {
  // Shapes: Table 5 row A (modes, groups) for family_cold; an M x C corner
  // matrix for mcmm_matrix; many small groups and edits for edit_loop.
  static const std::vector<WorkloadSpec> specs = {
      {"family_cold", 1000, 96, 16, 1, 0},
      {"mcmm_matrix", 500, 32, 8, 8, 0},
      {"edit_loop", 300, 128, 21, 1, 61},
  };
  for (const WorkloadSpec& s : specs) {
    if (s.name == name) return s;
  }
  throw mm::Error("unknown workload '" + name + "'");
}

namespace {

/// Mergeability of `rels` against every other mode, as one row.
std::vector<uint8_t> verdict_row(
    const mm::merge::ModeRelationships& rels, size_t self,
    const std::vector<mm::merge::ModeRelationships>& all) {
  const mm::merge::MergeOptions options;
  std::vector<uint8_t> row(all.size(), 1);
  for (size_t j = 0; j < all.size(); ++j) {
    if (j != self) row[j] = mm::merge::check_mergeable(rels, all[j], options).mergeable;
  }
  return row;
}

/// A fuzz-mutator mutant of mode `i` that parses, differs from the
/// original text, and keeps the mode's mergeability with every other mode,
/// so each edit commit re-checks M-1 pairs but re-merges one clique.
/// Deterministic in `seed`; empty when no such mutant turns up.
std::string find_mutant(const std::string& text, size_t i,
                        const mm::netlist::Design& design,
                        const std::vector<mm::merge::ModeRelationships>& rels,
                        uint64_t seed) {
  const std::vector<uint8_t> want = verdict_row(rels[i], i, rels);
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    mm::util::Rng rng(mm::util::Rng::mix(seed, 0xed17 + attempt));
    const std::string mutant = mm::fuzz::mutate_sdc_text(text, rng);
    if (mutant == text) continue;
    try {
      const mm::sdc::Sdc sdc = mm::sdc::parse_sdc(mutant, design);
      if (verdict_row(mm::merge::extract_relationships(sdc), i, rels) == want) {
        return mutant;
      }
    } catch (const mm::Error&) {
    }
  }
  return "";
}

}  // namespace

int run_gen(int argc, char** argv) {
  using namespace mm;
  const std::string workload = arg_value(argc, argv, "--workload");
  const std::string out = arg_value(argc, argv, "--out");
  const std::string seed_text = arg_value(argc, argv, "--seed", "1");
  if (workload.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen --workload W --seed N --out DIR\n");
    return 2;
  }
  const WorkloadSpec& spec = workload_spec(workload);
  const uint64_t seed = std::stoull(seed_text);

  // The netlist is the workload's fixed chip, the same for every seed (as
  // the paper's designs A-F are fixed); the seed varies the mode decks, the
  // corner family and the edits. A per-seed netlist would add its own cost
  // spread to every run-to-run comparison of the same code.
  const netlist::Library lib = netlist::Library::builtin();
  gen::DesignParams dp;
  dp.name = workload;
  dp.num_regs = spec.num_regs;
  dp.seed = 1;
  const netlist::Design design = gen::generate_design(lib, dp);

  gen::ModeFamilyParams mp;
  mp.num_modes = spec.num_modes;
  mp.target_groups = spec.num_groups;
  mp.seed = util::Rng::mix(seed, 2);
  gen::CornerFamilyParams cp;
  cp.num_corners = spec.num_corners;
  const gen::CornerFamily family = gen::generate_corner_family(dp, mp, cp);

  Manifest m;
  m.dir = out;
  m.workload = workload;
  m.seed = seed;
  m.netlist = "design.v";
  m.cells = design.num_instances();
  m.corners = spec.num_corners;
  m.groups = spec.num_groups;
  write_file(m.path(m.netlist), netlist::write_verilog(design));
  for (size_t i = 0; i < family.modes.size(); ++i) {
    Manifest::Mode mode;
    mode.name = family.modes[i].name;
    mode.group = family.modes[i].group;
    for (size_t c = 0; c < spec.num_corners; ++c) {
      const std::string rel =
          spec.num_corners == 1
              ? "decks/" + mode.name + ".sdc"
              : "decks/" + mode.name + ".c" + std::to_string(c) + ".sdc";
      write_file(m.path(rel), family.sdc_texts[i][c]);
      mode.decks.push_back(rel);
    }
    m.modes.push_back(std::move(mode));
  }

  if (spec.num_edits > 0) {
    std::vector<merge::ModeRelationships> rels;
    for (const gen::GeneratedMode& gm : family.modes) {
      rels.push_back(
          merge::extract_relationships(sdc::parse_sdc(gm.sdc_text, design)));
    }
    std::ostringstream script;
    script << "# " << workload << " seed " << seed << ": cold commit, then "
           << spec.num_edits << " single-mode edits, every other reverted\n";
    for (const Manifest::Mode& mode : m.modes) {
      script << "add " << mode.name << " " << mode.decks[0] << "\n";
    }
    script << "commit\n";
    util::Rng pick(util::Rng::mix(seed, 3));
    size_t edited = 0;
    for (size_t k = 0; k < spec.num_edits; ++k) {
      Manifest::Edit e;
      if (k % 2 == 1) {
        e.mode = m.edits.back().mode;
        e.deck = m.modes[e.mode].decks[0];
      } else {
        std::string mutant;
        for (size_t tries = 0; mutant.empty(); ++tries) {
          if (tries == 64) throw Error("no mergeability-preserving mutant");
          e.mode = pick.below(m.modes.size());
          mutant = find_mutant(family.modes[e.mode].sdc_text, e.mode, design,
                               rels, util::Rng::mix(seed, 1000 + edited));
        }
        e.deck = "edits/edit" + std::to_string(edited++) + "_" +
                 m.modes[e.mode].name + ".sdc";
        write_file(m.path(e.deck), mutant);
      }
      script << "update " << m.modes[e.mode].name << " " << e.deck
             << "\ncommit\n";
      m.edits.push_back(e);
    }
    m.script = "edits.script";
    write_file(m.path(m.script), script.str());
  }

  write_file(m.path("manifest.json"), to_json(m));
  std::printf("%s seed %llu: %zu cells, %zu modes x %zu corners, %zu groups, "
              "%zu edits\n",
              workload.c_str(), static_cast<unsigned long long>(seed), m.cells,
              m.modes.size(), m.corners, m.groups, m.edits.size());
  return 0;
}

}  // namespace perfbench
