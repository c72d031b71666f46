// `perfbench_tool oracle`: the never-optimistic check, made apart from the
// merge engine. For every multi-member clique (in every corner), the serial
// reference STA (timing::run_sta with hold) runs on each member deck and on
// the merged deck. Every endpoint any member times must be timed by the
// merged deck, and its merged setup and hold slacks must be no looser than
// the worst member slack plus kEps.
//
// Input (--cliques FILE.json, written by run.py from the CLI's own report):
//   {"cliques": [{"clique": K, "corner": C, "members": [deck, ...],
//                 "merged": deck}, ...]}
// A failure prints one line per finding, naming the clique, corner,
// endpoint, check and slacks, and exits 1.
//
// --inject is the self-test of the check: it appends
// `set_false_path -to <endpoint>` for an endpoint a member times to an
// in-memory copy of the first multi-member clique's merged deck, re-runs the
// check on that copy, and exits 0 only if the check fails naming that clique
// and endpoint.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "netlist/verilog.h"
#include "obs/json_parse.h"
#include "sdc/parser.h"
#include "timing/graph.h"
#include "timing/sta.h"

namespace perfbench {
namespace {

constexpr double kEps = 1e-4;

struct Clique {
  size_t index = 0;
  size_t corner = 0;
  std::vector<std::string> members;
  std::string merged;
};

struct Finding {
  std::string text;
  uint32_t endpoint = 0;
};

/// Run the reference STA (setup + hold) on each deck, `threads` at a time.
std::map<std::string, mm::timing::StaResult> run_all(
    const mm::timing::TimingGraph& graph,
    const std::map<std::string, std::string>& texts, size_t threads) {
  std::vector<std::string> paths;
  for (const auto& [path, text] : texts) paths.push_back(path);
  std::vector<mm::timing::StaResult> results(paths.size());
  std::vector<std::string> errors(paths.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next++; i < paths.size(); i = next++) {
      try {
        const mm::sdc::Sdc sdc =
            mm::sdc::parse_sdc(texts.at(paths[i]), graph.design());
        results[i] = mm::timing::run_sta(graph, sdc, /*analyze_hold=*/true);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  std::map<std::string, mm::timing::StaResult> out;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!errors[i].empty()) {
      throw mm::Error("STA of " + paths[i] + ": " + errors[i]);
    }
    out.emplace(paths[i], std::move(results[i]));
  }
  return out;
}

/// Compare one clique; returns its findings (empty = never optimistic).
std::vector<Finding> check_clique(
    const Clique& c, const mm::netlist::Design& design,
    const std::map<std::string, mm::timing::StaResult>& sta) {
  std::vector<Finding> findings;
  const mm::timing::StaResult& merged = sta.at(c.merged);
  auto check = [&](const char* kind, const std::string& member,
                   const std::unordered_map<uint32_t, float>& member_slacks,
                   const std::unordered_map<uint32_t, float>& merged_slacks) {
    std::vector<std::pair<uint32_t, float>> sorted(member_slacks.begin(),
                                                   member_slacks.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [ep, slack] : sorted) {
      const std::string pin(design.pin_name(mm::netlist::PinId(ep)));
      char buf[512];
      auto it = merged_slacks.find(ep);
      if (it == merged_slacks.end()) {
        std::snprintf(buf, sizeof buf,
                      "clique %zu corner %zu: endpoint %s (%s): timed by "
                      "member %s (slack %.6f) but not by merged deck %s",
                      c.index, c.corner, pin.c_str(), kind, member.c_str(),
                      slack, c.merged.c_str());
        findings.push_back({buf, ep});
      } else if (it->second > slack + kEps * (1.0 + std::fabs(slack))) {
        std::snprintf(buf, sizeof buf,
                      "clique %zu corner %zu: endpoint %s (%s): merged slack "
                      "%.6f looser than member %s slack %.6f",
                      c.index, c.corner, pin.c_str(), kind, it->second,
                      member.c_str(), slack);
        findings.push_back({buf, ep});
      }
    }
  };
  for (const std::string& m : c.members) {
    const mm::timing::StaResult& r = sta.at(m);
    check("setup", m, r.endpoint_slack, merged.endpoint_slack);
    check("hold", m, r.endpoint_hold_slack, merged.endpoint_hold_slack);
  }
  return findings;
}

}  // namespace

int run_oracle(int argc, char** argv) {
  using namespace mm;
  const std::string netlist_path = arg_value(argc, argv, "--netlist");
  const std::string cliques_path = arg_value(argc, argv, "--cliques");
  const size_t threads = std::stoul(arg_value(argc, argv, "--threads", "1"));
  const bool inject = has_flag(argc, argv, "--inject");
  if (netlist_path.empty() || cliques_path.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_tool oracle --netlist FILE.v --cliques "
                 "FILE.json [--threads N] [--inject]\n");
    return 2;
  }
  const netlist::Library lib = netlist::Library::builtin();
  const netlist::Design design =
      netlist::read_verilog(read_file(netlist_path), lib);
  const timing::TimingGraph graph(design);

  std::vector<Clique> cliques;
  const obs::JsonValue doc = obs::parse_json(read_file(cliques_path));
  for (const obs::JsonValue& v : doc.find("cliques")->arr) {
    Clique c;
    c.index = v.uint("clique");
    c.corner = v.uint("corner");
    c.merged = v.str("merged");
    for (const obs::JsonValue& m : v.find("members")->arr) {
      c.members.push_back(m.str_v);
    }
    if (c.members.size() >= 2) cliques.push_back(std::move(c));
  }
  if (cliques.empty()) {
    std::fprintf(stderr, "oracle: no multi-member clique to check\n");
    return 1;
  }

  if (inject) cliques.resize(1);
  std::map<std::string, std::string> texts;
  for (const Clique& c : cliques) {
    for (const std::string& m : c.members) texts.emplace(m, read_file(m));
    texts.emplace(c.merged, read_file(c.merged));
  }
  std::map<std::string, timing::StaResult> sta = run_all(graph, texts, threads);

  if (inject) {
    // Make the first clique's merged deck optimistic on purpose: a false
    // path to the lowest-numbered register endpoint its first member times.
    Clique& c = cliques[0];
    std::vector<uint32_t> eps;
    for (const auto& [ep, slack] : sta.at(c.members[0]).endpoint_slack) {
      const std::string_view name = design.pin_name(netlist::PinId(ep));
      if (name.find('/') != std::string_view::npos) eps.push_back(ep);
    }
    if (eps.empty()) {
      std::fprintf(stderr, "oracle --inject: member times no register pin\n");
      return 1;
    }
    const uint32_t target = *std::min_element(eps.begin(), eps.end());
    const std::string pin(design.pin_name(netlist::PinId(target)));
    const std::string injected = c.merged + ".injected";
    const std::string text = texts.at(c.merged) +
                             "\nset_false_path -to [get_pins " + pin + "]\n";
    sta.insert(run_all(graph, {{injected, text}}, 1).extract(injected));
    c.merged = injected;
    const std::vector<Finding> findings = check_clique(c, design, sta);
    for (const Finding& f : findings) {
      if (f.endpoint == target) {
        std::printf("self-test: injected false path on %s in clique %zu was "
                    "caught: %s\n",
                    pin.c_str(), c.index, f.text.c_str());
        return 0;
      }
    }
    std::printf("FAIL self-test: never-optimistic check missed an injected "
                "false path on %s in clique %zu (%zu other findings)\n",
                pin.c_str(), c.index, findings.size());
    return 1;
  }

  size_t total = 0;
  size_t endpoints = 0;
  for (const Clique& c : cliques) {
    const std::vector<Finding> findings = check_clique(c, design, sta);
    endpoints += sta.at(c.merged).endpoint_slack.size();
    for (const Finding& f : findings) {
      if (total < 20) std::printf("FAIL never-optimistic: %s\n", f.text.c_str());
      ++total;
    }
  }
  if (total > 0) {
    std::printf("FAIL never-optimistic: %zu finding(s) over %zu clique(s)\n",
                total, cliques.size());
    return 1;
  }
  std::printf("never-optimistic: %zu clique(s), %zu decks, %zu merged "
              "endpoints checked (setup + hold)\n",
              cliques.size(), texts.size(), endpoints);
  return 0;
}

}  // namespace perfbench
