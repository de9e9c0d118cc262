// bgpbench — the end-to-end + per-layer benchmark of bgpsim.
//
//   bgpbench run --workload W --seed N --seconds S --trace 0|1
//                [--out DIR] [--smoke]
//       one run of one workload: prints `workload metric value unit` lines,
//       then one JSON result line {correct, attempted, failed, metrics}
//       (end-to-end metrics with --trace 0, per-layer with --trace 1, which
//       also writes DIR/spans.json, DIR/layers.json and DIR/e2e.json, the
//       end-to-end result line of its untraced load phases). --smoke runs
//       the workload at 1,000 ASes. Exits 1 when a correctness check failed.
//   bgpbench compare DIR_A DIR_B
//       median, quartiles and verdict per workload x end-to-end metric over
//       the result files (<workload>.json) under each directory, with the
//       bounds of the repository's BENCHMARK.json
//   bgpbench smoke [--out DIR]
//       every workload, untraced and traced, at 1,000 ASes with ~1 s phases;
//       checks each result line against BENCHMARK.json
//   bgpbench worker campaign|sweep ...
//       the measured process of the batch workloads (spawned by `run`)
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client.hpp"
#include "compare.hpp"
#include "ladder.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

using namespace bgpbench;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool smoke = false;
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) != 0) {
      args.positional.push_back(word);
    } else if (word == "--smoke") {
      args.smoke = true;
    } else if (i + 1 < argc) {
      args.options[word.substr(2)] = argv[++i];
    } else {
      throw bgpsim::ConfigError("missing value for " + word);
    }
  }
  return args;
}

std::string option(const Args& args, const std::string& key, const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

fs::path self_exe() { return fs::read_symlink("/proc/self/exe"); }

/// Removes a scratch directory when the run ends, however it ends.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) { fs::create_directories(path_); }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string result_line(const RunResult& result, bool trace) {
  bgpsim::obs::JsonWriter json;
  json.begin_object();
  json.field("correct", result.correct);
  json.field("attempted", std::max({result.attempted, result.failed, std::uint64_t{1}}));
  json.field("failed", result.failed);
  json.key("metrics");
  json.begin_object();
  for (const Metric& m : trace ? result.layers : result.e2e) {
    json.key(m.name);
    json.begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

int cmd_run(const Args& args) {
  const Workload* named = find_workload(option(args, "workload", ""));
  if (named == nullptr) {
    std::fprintf(stderr, "error: --workload must be one of:");
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload workload = args.smoke ? smoke_variant(*named) : *named;
  RunOptions opt;
  opt.seed = std::stoull(option(args, "seed", "2014"));
  opt.seconds = std::stod(option(args, "seconds", "15"));
  opt.trace = option(args, "trace", "0") == "1";
  const fs::path exe = self_exe();
  opt.self_exe = exe.string();
  opt.out_dir = option(args, "out", (exe.parent_path() / "out" /
                                     (workload.name + "-seed" + std::to_string(opt.seed)))
                                        .string());
  const ScratchDir scratch(exe.parent_path() / "work" / std::to_string(getpid()));
  opt.work_dir = scratch.path().string();

  const RunResult result = run_workload(workload, opt);
  if (opt.trace) {
    write_layers_json(workload, opt, result);
    std::ofstream(fs::path(opt.out_dir) / "e2e.json") << result_line(result, false) << '\n';
  }
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : result.e2e) {
    std::printf("%s %s %.6g %s\n", workload.name.c_str(), m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    for (const Metric& m : result.layers) {
      std::printf("%s %s %.6g %s\n", workload.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%s\n", result_line(result, opt.trace).c_str());
  return result.correct ? 0 : 1;
}

int cmd_compare(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "usage: bgpbench compare DIR_A DIR_B\n");
    return 2;
  }
  const auto specs = load_metric_specs(BGPBENCH_SPEC, "end_to_end");
  std::fputs(compare_dirs(args.positional[0], args.positional[1], specs).c_str(), stdout);
  return 0;
}

/// Problems with one result line against the metric list it must carry.
std::vector<std::string> validate_line(const std::string& line,
                                       const std::vector<MetricSpec>& expected,
                                       bool positive) {
  std::vector<std::string> problems;
  bgpsim::obs::JsonValue doc;
  try {
    doc = bgpsim::obs::JsonValue::parse(line);
  } catch (const bgpsim::Error& e) {
    return {std::string("result line is not JSON: ") + e.what()};
  }
  std::set<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.insert(key);
  if (keys != std::set<std::string>{"correct", "attempted", "failed", "metrics"}) {
    problems.push_back("result keys are not exactly correct/attempted/failed/metrics");
  }
  if (doc.find("correct") == nullptr || !doc.find("correct")->as_bool()) {
    problems.push_back("correct is not true");
  }
  if (doc.number_at("attempted") < 1) problems.push_back("attempted < 1");
  if (doc.number_at("failed", -1) != 0) problems.push_back("failed != 0");
  const bgpsim::obs::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->members().size() != expected.size()) {
    problems.push_back("metrics do not match BENCHMARK.json");
    return problems;
  }
  for (const MetricSpec& spec : expected) {
    const bgpsim::obs::JsonValue* m = metrics->find(spec.name);
    if (m == nullptr || m->find("value") == nullptr || !m->find("value")->is_number() ||
        m->find("unit") == nullptr || m->find("unit")->as_string() != spec.unit) {
      problems.push_back("metric " + spec.name + " missing or with another unit");
    } else if (positive && !(m->number_at("value") > 0.0)) {
      problems.push_back("metric " + spec.name + " is not positive");
    }
  }
  return problems;
}

int cmd_smoke(const Args& args) {
  const fs::path out = option(args, "out", (self_exe().parent_path() / "smoke").string());
  fs::create_directories(out);
  const auto e2e = load_metric_specs(BGPBENCH_SPEC, "end_to_end");
  const auto layers = load_metric_specs(BGPBENCH_SPEC, "per_layer");
  int failures = 0;
  for (const Workload& workload : workloads()) {
    for (const char* trace : {"0", "1"}) {
      const fs::path dir = out / (workload.name + "-trace" + trace);
      std::string stdout_text;
      const int rc = run_child({self_exe().string(), "run", "--workload", workload.name,
                                "--seed", "7", "--seconds", "2", "--trace", trace, "--smoke",
                                "--out", dir.string()},
                               &stdout_text);
      std::ofstream(out / (workload.name + "-trace" + trace + ".log")) << stdout_text;
      std::vector<std::string> problems =
          rc == 0 ? validate_line(last_line(stdout_text), trace[0] == '1' ? layers : e2e,
                                  trace[0] == '0')
                  : std::vector<std::string>{"exit code " + std::to_string(rc)};
      if (trace[0] == '1') {
        for (const char* file : {"spans.json", "layers.json"}) {
          if (!fs::exists(dir / file)) problems.push_back(std::string("no ") + file);
        }
        std::ifstream e2e_file(dir / "e2e.json");
        std::string e2e_line;
        std::getline(e2e_file, e2e_line);
        for (const std::string& p : validate_line(e2e_line, e2e, true)) {
          problems.push_back("e2e.json: " + p);
        }
      }
      std::printf("%-14s trace %s  %s\n", workload.name.c_str(), trace,
                  problems.empty() ? "ok" : "FAILED");
      for (const std::string& p : problems) std::printf("    %s\n", p.c_str());
      failures += problems.empty() ? 0 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc >= 2 ? argv[1] : "";
    const Args args = parse_args(argc, argv, 2);
    if (command == "worker") {
      return run_worker(args.positional.empty() ? "" : args.positional[0], args.options);
    }
    if (command == "run") return cmd_run(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "smoke") return cmd_smoke(args);
    std::fprintf(stderr, "usage: bgpbench run|compare|smoke ... (see src/main.cpp)\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
