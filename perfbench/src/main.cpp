// main.cpp — the benchmark command.
//
//   shs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   shs_perfbench --self-test
//
// Runs one workload against the shs library's public API and prints, as
// the last line of stdout, one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Untraced runs (--trace 0) report the end-to-end
// metrics, traced runs (--trace 1) the per-layer ones a workload
// exercises; run.py puts them in the order BENCHMARK.json declares.
// Human-readable notes go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "util/log.hpp"

namespace perfbench {
int run_self_test();
}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: shs_perfbench --workload <fabric_sync|fabric_engine|"
               "app_pingpong|admission_spike> --seed <n> --seconds <s> "
               "--trace <0|1>\n       shs_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  (void)process_start_ns();
  shs::Log::set_level(shs::LogLevel::kError);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return run_self_test();
    if (!has_value) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();

  RunResult r;
  if (opt.workload == "fabric_sync") {
    r = run_fabric_sync(opt);
  } else if (opt.workload == "fabric_engine") {
    r = run_fabric_engine(opt);
  } else if (opt.workload == "app_pingpong") {
    r = run_app_pingpong(opt);
  } else if (opt.workload == "admission_spike") {
    r = run_admission_spike(opt);
  } else {
    return usage();
  }

  for (const std::string& s : r.info) {
    std::fprintf(stderr, "# %s: %s\n", opt.workload.c_str(), s.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "# %-40s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", opt.workload.c_str(),
                 v.c_str());
  }
  print_result_line(r);
  return 0;
}
