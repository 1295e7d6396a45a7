// The SEDA benchmark program: one seeded run of one workload.
//
//   seda_perfbench --workload explore_warm|olap_drill|cold_epochs --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 runs the workload over TCP and prints the end-to-end metrics;
// --trace 1 replays the same seeded inputs through the layers with spans and
// prints the per-layer metrics. Human-readable lines come first; the last
// line is the JSON result. Exit code 0 only when every answer check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = perfbench::ParseWorkload(value, &config.workload);
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || config.seconds < 1) {
    std::fprintf(stderr,
                 "usage: seda_perfbench --workload explore_warm|olap_drill|cold_epochs "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  perfbench::RunResult result =
      trace != 0 ? perfbench::RunTraced(config) : perfbench::RunUntraced(config);
  if (!result.correct) return 1;
  std::printf("%s\n", perfbench::ResultLine(result.correct, result.attempted,
                                            result.failed, result.metrics)
                          .c_str());
  return 0;
}
