// perfbench_tool — helper program of the modemerge benchmark (run.py).
//
//   perfbench_tool gen    --workload W --seed N --out DIR
//       write the workload's Verilog netlist, SDC decks (and, for
//       edit_loop, the session script) plus DIR/manifest.json
//   perfbench_tool oracle --netlist FILE.v --cliques FILE.json [--inject]
//       never-optimistic check of merged decks with the serial reference
//       STA (setup and hold); --inject proves the check fails on a deck
//       made optimistic on purpose
//   perfbench_tool trace  --inputs DIR --out DIR --threads N
//       replay the workload through each layer's public calls, timing each
//       one; writes spans, counts and the merged decks it produced
//
// Exit status: 0 on success, 1 when a check fails, 2 on bad usage.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool gen|oracle|trace [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return perfbench::run_gen(argc - 1, argv + 1);
    if (cmd == "oracle") return perfbench::run_oracle(argc - 1, argv + 1);
    if (cmd == "trace") return perfbench::run_trace(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: error: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_tool: unknown subcommand '%s'\n",
               cmd.c_str());
  return 2;
}
