// Self-tests of the benchmark harness: the percentile rule, self-time
// arithmetic and seed determinism. Exit code 0 when every test passes.
//
//   perfbench_selftest [workdir]

#include <cstdio>
#include <string>

#include "workload.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* name) {
  std::printf("%s %s\n", condition ? "PASS" : "FAIL", name);
  if (!condition) ++failures;
}

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void PercentileRule() {
  using namespace perfbench;
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  Expect(Percentile(values, 50) == 50 && Percentile(values, 90) == 90 &&
             Percentile(values, 99) == 99 && Percentile(values, 100) == 100,
         "nearest-rank percentiles of 1..100");
  Expect(Percentile({}, 50) == 0, "empty sample set reads 0");
  Expect(HighestReportablePercentile(19) == 0, "19 samples: no percentile");
  Expect(HighestReportablePercentile(20) == 50, "20 samples: median only");
  Expect(HighestReportablePercentile(100) == 90, "100 samples: p90");
  Expect(HighestReportablePercentile(999) == 95 && !P99Reportable(999),
         "999 samples: no p99");
  Expect(HighestReportablePercentile(1000) == 99 && P99Reportable(1000),
         "1000 samples: p99 with ten beyond it");
  Expect(HighestReportablePercentile(10000) == 99.9, "10000 samples: p99.9");
}

void SelfTime() {
  using namespace perfbench;
  const int64_t ms = 1000000;
  // root [0,100] has children a [10,30] and b [20,50] (overlapping); a has
  // child c [12,14]; d [60,70] is another root's child outside it.
  std::vector<Span> spans = {
      {"root", 0, 100 * ms, -1, 1}, {"a", 10 * ms, 30 * ms, 0, 1},
      {"b", 20 * ms, 50 * ms, 0, 1}, {"c", 12 * ms, 14 * ms, 1, 1},
      {"other", 55 * ms, 80 * ms, -1, 2}, {"d", 60 * ms, 70 * ms, 4, 2}};
  const std::vector<double> self = SelfTimesMs(spans);
  Expect(Near(self[0], 60) && Near(self[1], 18) && Near(self[2], 30) &&
             Near(self[3], 2) && Near(self[4], 15) && Near(self[5], 10),
         "self time = duration minus the union of child intervals");

  SpanRecorder recorder;
  recorder.SetRequest(7);
  {
    ScopedSpan outer(&recorder, "outer");
    ScopedSpan inner(&recorder, "inner");
  }
  ScopedSpan after(&recorder, "after");
  after.End();
  const auto& recorded = recorder.spans();
  Expect(recorded.size() == 3 && recorded[0].parent == -1 && recorded[1].parent == 0 &&
             recorded[2].parent == -1 && recorded[1].request == 7 &&
             recorded[1].start_ns >= recorded[0].start_ns &&
             recorded[1].end_ns <= recorded[0].end_ns,
         "recorder nests spans by call order");
}

void SeedDeterminism(const std::string& workdir) {
  using namespace perfbench;
  for (Workload workload :
       {Workload::kExploreWarm, Workload::kOlapDrill, Workload::kColdEpochs}) {
    const std::vector<size_t> draws = MakeQueryPool(7, workload).draws;
    const std::string a = RequestLogText(RequestLog(7, workload, 0, draws, 50));
    const std::string b = RequestLogText(RequestLog(7, workload, 0, draws, 50));
    const std::string c = RequestLogText(RequestLog(8, workload, 0, draws, 50));
    Expect(a == b && a != c, (std::string("request log follows the seed: ") +
                              WorkloadName(workload)).c_str());
  }
  const QueryPool seven_pool = MakeQueryPool(7, Workload::kExploreWarm);
  const QueryPool again_pool = MakeQueryPool(7, Workload::kExploreWarm);
  const QueryPool eight_pool = MakeQueryPool(8, Workload::kExploreWarm);
  Expect(seven_pool.queries == again_pool.queries && seven_pool.draws == again_pool.draws &&
             seven_pool.queries != eight_pool.queries,
         "query pool follows the seed");
  // Equal template weights: a third of the draws each, the selective
  // template's draws marked selective.
  size_t selective = 0;
  for (size_t draw : seven_pool.draws) selective += seven_pool.selective[draw] ? 1 : 0;
  Expect(seven_pool.draws.size() == kPoolDraws && selective == kPoolDraws / 3 &&
             seven_pool.queries.front() == QueryOne(),
         "query pool draws each template equally");
  const Corpus seven = MakeCorpus(7, 0.05, 2);
  const Corpus eight = MakeCorpus(8, 0.05, 2);
  Expect(seven.deltas[1].back().xml == MakeCorpus(7, 0.05, 2).deltas[1].back().xml &&
             seven.deltas[1].back().xml != eight.deltas[1].back().xml,
         "commit deltas follow the seed");

  // Whole runs on a small corpus: the same seed gives the same answers
  // digest, a different seed a different one.
  RunConfig config;
  config.workload = Workload::kExploreWarm;
  config.seconds = 1;
  config.scale = 0.05;
  config.workdir = workdir;
  config.seed = 7;
  const RunResult first = RunUntraced(config);
  const RunResult again = RunUntraced(config);
  config.seed = 8;
  const RunResult other = RunUntraced(config);
  Expect(first.correct && again.correct && other.correct, "small runs pass their checks");
  Expect(first.answers_digest == again.answers_digest &&
             first.answers_digest != other.answers_digest,
         "answers digest follows the seed");
  config.seed = 7;
  const RunResult traced = RunTraced(config);
  Expect(traced.correct && traced.answers_digest == first.answers_digest,
         "traced replay answers equal the untraced run's");
}

}  // namespace

int main(int argc, char** argv) {
  PercentileRule();
  SelfTime();
  SeedDeterminism(argc > 1 ? argv[1] : ".");
  std::printf("%s: %d failed\n", failures == 0 ? "selftest OK" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}
