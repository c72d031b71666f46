// Shared helpers of perfbench_tool: file and argument helpers and the
// manifest's JSON form.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "util/error.h"

namespace perfbench {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw mm::Error("cannot open: " + path);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream file(path, std::ios::binary);
  file << text;
  file.close();
  if (!file) throw mm::Error("cannot write: " + path);
}

std::string arg_value(int argc, char** argv, const char* flag,
                      const std::string& def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return def;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::vector<std::string> Manifest::final_decks() const {
  std::vector<std::string> decks;
  for (const Mode& m : modes) decks.push_back(m.decks[0]);
  for (const Edit& e : edits) decks[e.mode] = e.deck;
  return decks;
}

std::string to_json(const Manifest& m) {
  mm::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(m.workload);
  w.key("seed").value(m.seed);
  w.key("netlist").value(m.netlist);
  w.key("cells").value(static_cast<uint64_t>(m.cells));
  w.key("corners").value(static_cast<uint64_t>(m.corners));
  w.key("groups").value(static_cast<uint64_t>(m.groups));
  w.key("modes").begin_array();
  for (const Manifest::Mode& mode : m.modes) {
    w.begin_object();
    w.key("name").value(mode.name);
    w.key("group").value(static_cast<uint64_t>(mode.group));
    w.key("decks").begin_array();
    for (const std::string& d : mode.decks) w.value(d);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("script").value(m.script);
  w.key("edits").begin_array();
  for (const Manifest::Edit& e : m.edits) {
    w.begin_object();
    w.key("mode").value(static_cast<uint64_t>(e.mode));
    w.key("deck").value(e.deck);
    w.end_object();
  }
  w.end_array();
  w.key("final_decks").begin_array();
  for (const std::string& d : m.final_decks()) w.value(d);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

Manifest read_manifest(const std::string& dir) {
  const mm::obs::JsonValue doc =
      mm::obs::parse_json(read_file(dir + "/manifest.json"));
  Manifest m;
  m.dir = dir;
  m.workload = doc.str("workload");
  m.seed = doc.uint("seed");
  m.netlist = doc.str("netlist");
  m.cells = doc.uint("cells");
  m.corners = doc.uint("corners", 1);
  m.groups = doc.uint("groups");
  m.script = doc.str("script");
  if (const mm::obs::JsonValue* modes = doc.find("modes")) {
    for (const mm::obs::JsonValue& v : modes->arr) {
      Manifest::Mode mode;
      mode.name = v.str("name");
      mode.group = v.uint("group");
      for (const mm::obs::JsonValue& d : v.find("decks")->arr) {
        mode.decks.push_back(d.str_v);
      }
      m.modes.push_back(std::move(mode));
    }
  }
  if (const mm::obs::JsonValue* edits = doc.find("edits")) {
    for (const mm::obs::JsonValue& v : edits->arr) {
      m.edits.push_back({v.uint("mode"), v.str("deck")});
    }
  }
  return m;
}

}  // namespace perfbench
