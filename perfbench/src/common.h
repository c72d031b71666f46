#pragma once
// Shared pieces of perfbench_tool: the workload catalogue, the manifest the
// generator writes next to the inputs, and small file helpers.
//
// A manifest (manifest.json in the input directory) lists everything the
// other subcommands and run.py need: the netlist, every mode with its
// planted group and one deck per corner, and for edit_loop the script and
// the ordered edits. Paths inside it are relative to the input directory.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Input shape of one named workload (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  size_t num_regs = 0;      // design size: cells ~ 4 * num_regs
  size_t num_modes = 0;     // M
  size_t num_groups = 0;    // planted mergeable groups
  size_t num_corners = 1;   // C (derate corners; 1 = flat)
  size_t num_edits = 0;     // single-mode update/commit edits (edit_loop)
};

/// Known workloads; throws mm::Error on an unknown name.
const WorkloadSpec& workload_spec(const std::string& name);

struct Manifest {
  struct Mode {
    std::string name;
    size_t group = 0;
    std::vector<std::string> decks;  // one per corner, relative paths
  };
  struct Edit {
    size_t mode = 0;       // index into modes
    std::string deck;      // relative path of the deck the mode takes
  };
  std::string dir;  // directory holding manifest.json (not serialized)
  std::string workload;
  uint64_t seed = 0;
  std::string netlist;
  size_t corners = 1;
  size_t groups = 0;
  size_t cells = 0;
  std::vector<Mode> modes;
  std::string script;          // edit_loop only
  std::vector<Edit> edits;     // edit_loop only, in script order

  std::string path(const std::string& rel) const { return dir + "/" + rel; }
  /// Deck of each mode after every edit has been applied (corner 0).
  std::vector<std::string> final_decks() const;
};

Manifest read_manifest(const std::string& dir);
std::string to_json(const Manifest& m);

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// Value of `--flag VALUE` in argv (def when absent); has_flag for switches.
std::string arg_value(int argc, char** argv, const char* flag,
                      const std::string& def = "");
bool has_flag(int argc, char** argv, const char* flag);

int run_gen(int argc, char** argv);
int run_oracle(int argc, char** argv);
int run_trace(int argc, char** argv);

}  // namespace perfbench
