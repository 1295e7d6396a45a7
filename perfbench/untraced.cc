// The untraced run: set-up (repeated, median reported), the timed workload
// over TCP, the answer checks and the end-to-end metrics.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <malloc.h>
#include <thread>

#include "api/wire.h"
#include "olap/olap.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace api = seda::api;

/// Set-up runs this many times per run; setup_s is their median. The last
/// one's serving instance is the one the timed phase uses.
constexpr size_t kSetupRepeats = 5;
/// Open + commit probes after the set-ups. Each opens the image in a fresh
/// instance and commits one seeded delta on the opened epoch, so
/// open_p50_ms and commit_p50_ms have at least the 20 samples the
/// percentile rule asks of a median.
constexpr size_t kProbes = 20;
/// Sessions in each client's request log; runs stop on time long before.
constexpr size_t kLogLength = 4000;
/// Every this-many-th timed session is checked against the set-up answers.
constexpr size_t kCheckEvery = 8;

struct Tally {
  uint64_t attempted[kMethodCount] = {};
  uint64_t failed[kMethodCount] = {};
  uint64_t shed[kMethodCount] = {};
  uint64_t ok = 0;
  std::vector<double> search_ms, complete_ms, cube_ms, cold_ms;
  /// search_ms split by the template class of the session's query.
  std::vector<double> search_hub_ms, search_selective_ms;

  void Add(const std::vector<RequestSample>& samples) {
    for (const RequestSample& sample : samples) {
      ++attempted[sample.method];
      if (!sample.ok) {
        ++failed[sample.method];
        if (sample.shed) ++shed[sample.method];
        continue;
      }
      ++ok;
      if (sample.cold) {
        cold_ms.push_back(sample.ms);
      } else if (sample.method == kSearch || sample.method == kRefine) {
        search_ms.push_back(sample.ms);
        (sample.selective ? search_selective_ms : search_hub_ms).push_back(sample.ms);
      } else if (sample.method == kComplete) {
        complete_ms.push_back(sample.ms);
      } else if (sample.method == kCube) {
        cube_ms.push_back(sample.ms);
      }
    }
  }
  uint64_t Attempted() const {
    uint64_t total = 0;
    for (uint64_t n : attempted) total += n;
    return total;
  }
  uint64_t Failed() const {
    uint64_t total = 0;
    for (uint64_t n : failed) total += n;
    return total;
  }
};

/// Answers the set-up pass saw, the reference for every later check.
struct WarmAnswers {
  std::vector<std::vector<uint64_t>> per_query;  ///< explore pool, by query
  std::vector<uint64_t> drill;   ///< olap: search, refine, complete, cubes
  std::vector<std::string> drill_cells;  ///< olap: cells per cube variant
};

class UntracedRun {
 public:
  explicit UntracedRun(const RunConfig& config)
      : config_(config),
        pool_(MakeQueryPool(config.seed, config.workload)),
        image_(config.workdir + "/perfbench_" + WorkloadName(config.workload) + ".img") {
    // Five restarts of 3 clients, with the set-ups' and the churn's cold
    // Query 1s, give cold_search_p50_ms the 20 samples a median needs.
    restarts_ = std::max(5, config.seconds / 2);
    commits_ = std::max(2, config.seconds / 4);
  }

  RunResult Run();

 private:
  void SetUp();
  void Probes();
  void ColdBurst(Serving* serving, size_t clients, Tally* tally);
  void WarmUp();
  void CheckInProcess();
  void TimedSessions();
  void TimedColdEpochs();
  void CheckFinalEpoch();
  /// Marks the samples from `first` on with the class of the session's
  /// query; the search and refine latencies are reported per class.
  void TagClass(const SessionPlan& plan, size_t first,
                std::vector<RequestSample>* samples) const {
    for (size_t i = first; i < samples->size(); ++i) {
      (*samples)[i].selective = pool_.selective[plan.query];
    }
  }
  bool SameAsWarm(const SessionPlan& plan, const SessionOutcome& outcome) const;
  void Report(RunResult* result);

  /// Runs fn(client index) on `clients` threads and joins them.
  template <typename Fn>
  static void OnClients(size_t clients, const Fn& fn) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) threads.emplace_back(fn, c);
    for (std::thread& thread : threads) thread.join();
  }

  RunConfig config_;
  QueryPool pool_;
  std::string image_;
  int restarts_ = 5;
  int commits_ = 2;
  Checks checks_;
  Corpus corpus_;
  Serving serving_;
  WarmAnswers warm_;
  std::mutex tally_mu_;
  Tally setup_tally_;
  Tally timed_tally_;
  std::vector<double> setup_s_, open_ms_, commit_ms_;
  double timed_wall_ms_ = 0;
  size_t commits_done_ = 0;
  RssSampler rss_;
  uint64_t nodes_ = 0;
  size_t cube_rows_ = 0;
  Digest answers_;
};

void UntracedRun::SetUp() {
  // One serving instance at a time: the previous set-up's goes first.
  serving_.Stop();
  const Clock::time_point start = Clock::now();
  corpus_ = MakeCorpus(config_.seed, config_.scale,
                       std::max(kProbes, static_cast<size_t>(commits_)));
  std::string breakdown;
  Clock::time_point mark = start;
  auto lap = [&](const char* what) {
    char part[64];
    std::snprintf(part, sizeof(part), " %s %.2f", what, MsSince(mark) / 1000.0);
    breakdown += part;
    mark = Clock::now();
  };
  lap("corpus");
  {
    seda::core::Seda writer;
    for (const XmlDoc& doc : corpus_.base) (void)writer.AddXml(doc.xml, doc.name);
    seda::Status finalized = writer.Finalize(ServingOptions());
    checks_.Expect(finalized.ok(), "setup_finalize", finalized.ToString());
    seda::Status saved = writer.Save(image_);
    checks_.Expect(saved.ok(), "setup_save", saved.ToString());
    nodes_ = writer.snapshot()->store().TotalNodeCount();
  }
  lap("finalize+save");
  double open_ms = 0;
  seda::Status started = serving_.Start(image_, &open_ms);
  checks_.Expect(started.ok(), "setup_serve", started.ToString());
  open_ms_.push_back(open_ms);
  ColdBurst(&serving_, 1, &setup_tally_);
  lap("open+cold-query-1");
  WarmUp();
  lap("warm-up");
  setup_s_.push_back(MsSince(start) / 1000.0);
  std::printf("set-up %zu: %.2f s =%s s\n", setup_s_.size(), setup_s_.back(),
              breakdown.c_str());
}

// Each probe opens the set-up image in a fresh instance, then commits the
// next seeded delta on the opened epoch.
void UntracedRun::Probes() {
  for (size_t k = 0; k < kProbes; ++k) {
    seda::core::Seda probe;
    const Clock::time_point open_start = Clock::now();
    seda::Status opened = probe.Open(image_);
    open_ms_.push_back(MsSince(open_start));
    checks_.Expect(opened.ok(), "probe_open", opened.ToString());
    if (!opened.ok()) return;
    for (const XmlDoc& doc : corpus_.deltas[k]) (void)probe.AddXml(doc.xml, doc.name);
    const Clock::time_point commit_start = Clock::now();
    auto committed = probe.Commit();
    commit_ms_.push_back(MsSince(commit_start));
    checks_.Expect(committed.ok() && committed.value().incremental, "probe_commit",
                   committed.ok() ? "not incremental" : committed.status().ToString());
  }
}

// `clients` clients send Query 1 at once to a freshly opened epoch: all miss
// on the same connection pair.
void UntracedRun::ColdBurst(Serving* serving, size_t clients, Tally* tally) {
  std::latch ready(static_cast<std::ptrdiff_t>(clients));
  OnClients(clients, [&](size_t) {
    auto client = serving->Connect();
    ready.arrive_and_wait();
    if (!client.ok()) {
      checks_.Expect(false, "status_ok", "connect: " + client.status().ToString());
      return;
    }
    std::string response, failure;
    RequestSample sample = TimedCall(TcpCall(client.value().get()), kSearch,
                                     SearchEnvelope(QueryOne()), &response, &failure);
    sample.cold = true;
    checks_.Expect(sample.ok, "status_ok", "cold Query 1: " + failure);
    std::lock_guard<std::mutex> lock(tally_mu_);
    tally->Add({sample});
  });
}

// Every distinct query runs once, untimed: the connection cache and lazy
// posting decode are done before anything is measured. Its answers are the
// reference for the checks.
void UntracedRun::WarmUp() {
  const size_t clients = Threads().clients;
  if (config_.workload == Workload::kOlapDrill) {
    SessionPlan plan;
    for (size_t v = 0; v < CubeVariants().size(); ++v) plan.cubes.push_back(v);
    auto client = serving_.Connect();
    if (!client.ok()) {
      checks_.Expect(false, "status_ok", "connect: " + client.status().ToString());
      return;
    }
    std::vector<RequestSample> samples;
    SessionOutcome outcome = RunSession(TcpCall(client.value().get()), config_.workload,
                                        pool_.queries, plan, true, &samples, nullptr);
    checks_.Expect(outcome.ok, "status_ok", "warm-up: " + outcome.failure);
    warm_.drill = outcome.answers;
    warm_.drill_cells = outcome.cube_cells;
    setup_tally_.Add(samples);
    return;
  }
  // cold_epochs reads only fresh epochs, so its set-up warms just the
  // queries the in-process check compares.
  std::vector<size_t> queries;
  if (config_.workload == Workload::kColdEpochs) {
    queries = CheckedQueries(config_.seed, pool_.queries.size());
  } else {
    for (size_t q = 0; q < pool_.queries.size(); ++q) queries.push_back(q);
  }
  warm_.per_query.assign(pool_.queries.size(), {});
  OnClients(clients, [&](size_t c) {
    auto client = serving_.Connect();
    if (!client.ok()) {
      checks_.Expect(false, "status_ok", "connect: " + client.status().ToString());
      return;
    }
    std::vector<RequestSample> samples;
    for (size_t i = c; i < queries.size(); i += clients) {
      const size_t q = queries[i];
      SessionPlan plan;
      plan.query = q;
      plan.cubes = {q % CubeVariants().size()};
      SessionOutcome outcome = RunSession(TcpCall(client.value().get()),
                                          config_.workload, pool_.queries, plan, true,
                                          &samples, nullptr);
      checks_.Expect(outcome.ok, "status_ok", "warm-up: " + outcome.failure);
      warm_.per_query[q] = outcome.answers;
    }
    std::lock_guard<std::mutex> lock(tally_mu_);
    setup_tally_.Add(samples);
  });
}

bool UntracedRun::SameAsWarm(const SessionPlan& plan,
                             const SessionOutcome& outcome) const {
  if (config_.workload != Workload::kOlapDrill) {
    // Explore sessions send the plan's one cube variant; the warm-up sent
    // variant (query mod variants). Compare everything before the cube, and
    // the cube too when the variants coincide.
    const std::vector<uint64_t>& warm = warm_.per_query[plan.query];
    if (outcome.answers.size() != warm.size()) return false;
    const bool same_cube = plan.cubes.front() == plan.query % CubeVariants().size();
    const size_t compared = same_cube || warm.size() < 4 ? warm.size() : 3;
    return std::equal(warm.begin(), warm.begin() + static_cast<long>(compared),
                      outcome.answers.begin());
  }
  if (outcome.answers.size() != 3 + plan.cubes.size()) return false;
  for (size_t i = 0; i < 3; ++i) {
    if (outcome.answers[i] != warm_.drill[i]) return false;
  }
  for (size_t j = 0; j < plan.cubes.size(); ++j) {
    if (outcome.answers[3 + j] != warm_.drill[3 + plan.cubes[j]]) return false;
  }
  return true;
}

// TCP answers equal the in-process service's (the same Session code path
// without the transport) on the same epoch, and olap_drill's cells equal an
// in-process Snapshot::BuildCube + olap::Cube::Aggregate.
void UntracedRun::CheckInProcess() {
  CallFn in_process = InProcessCall(serving_.service());
  std::vector<RequestSample> ignored;
  auto snapshot = serving_.seda()->snapshot();

  // The broad drill-down cube: its fact rows are a reported size.
  auto broad = snapshot->Parse(MakeQueryPool(config_.seed, Workload::kOlapDrill).queries.front());
  auto refined = seda::core::Snapshot::RefineContexts(
      broad.value(), {{kNamePath}, {kTradePath}, {kPctPath}});
  auto result = snapshot->CompleteResults(refined.value(),
                                          {kNamePath, kTradePath, kPctPath}, {});
  checks_.Expect(result.ok(), "olap_cells", "in-process complete failed");
  if (!result.ok()) return;

  if (config_.workload != Workload::kOlapDrill) {
    for (size_t query : CheckedQueries(config_.seed, pool_.queries.size())) {
      SessionPlan plan;
      plan.query = query;
      plan.cubes = {plan.query % CubeVariants().size()};
      SessionOutcome outcome = RunSession(in_process, config_.workload, pool_.queries, plan,
                                          true, &ignored, nullptr);
      checks_.Expect(outcome.ok && outcome.answers == warm_.per_query[plan.query],
                     "tcp_equals_inprocess", "query: " + pool_.queries[plan.query]);
    }
    auto schema = snapshot->BuildCube(result.value(), serving_.seda()->catalog(), {});
    cube_rows_ = schema.ok() && !schema.value().fact_tables.empty()
                     ? schema.value().fact_tables.front().rows.size()
                     : 0;
    return;
  }

  SessionPlan plan;
  for (size_t v = 0; v < CubeVariants().size(); ++v) plan.cubes.push_back(v);
  SessionOutcome outcome =
      RunSession(in_process, config_.workload, pool_.queries, plan, true, &ignored, nullptr);
  checks_.Expect(outcome.ok && outcome.answers == warm_.drill, "tcp_equals_inprocess",
                 "drill-down session");
  for (size_t v = 0; v < CubeVariants().size(); ++v) {
    const CubeVariant& variant = CubeVariants()[v];
    seda::cube::CubeBuilder::Options options;
    options.add_dimensions = variant.add_dims;
    options.remove_dimensions = variant.remove_dims;
    auto schema = snapshot->BuildCube(result.value(), serving_.seda()->catalog(), options);
    std::string cells = "build failed";
    if (schema.ok()) {
      if (!schema.value().fact_tables.empty()) {
        cube_rows_ = schema.value().fact_tables.front().rows.size();
      }
      auto cube = snapshot->ToOlapCube(schema.value());
      using seda::olap::AggFn;
      const std::pair<const char*, AggFn> kFns[] = {{"sum", AggFn::kSum},
                                                    {"count", AggFn::kCount},
                                                    {"avg", AggFn::kAvg},
                                                    {"min", AggFn::kMin},
                                                    {"max", AggFn::kMax}};
      AggFn fn = AggFn::kSum;
      for (const auto& [name, candidate] : kFns) {
        if (variant.agg_fn == name) fn = candidate;
      }
      auto cuboid = cube.ok() ? cube.value().Aggregate(variant.group_dims, fn, kMeasure)
                              : seda::Result<seda::olap::Cuboid>(cube.status());
      if (cuboid.ok()) cells = CellsText(cuboid.value());
    }
    checks_.Expect(v < warm_.drill_cells.size() && cells == warm_.drill_cells[v],
                   "olap_cells", "variant " + std::to_string(v));
  }
}

void UntracedRun::TimedSessions() {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(config_.seconds);
  OnClients(Threads().clients, [&](size_t c) {
    auto client = serving_.Connect();
    if (!client.ok()) {
      checks_.Expect(false, "status_ok", "connect: " + client.status().ToString());
      return;
    }
    const std::vector<SessionPlan> log =
        RequestLog(config_.seed, config_.workload, c, pool_.draws, kLogLength);
    std::vector<RequestSample> samples;
    for (size_t i = 0; i < log.size() && Clock::now() < deadline; ++i) {
      const bool check = (i + c) % kCheckEvery == config_.seed % kCheckEvery;
      const size_t first = samples.size();
      SessionOutcome outcome = RunSession(TcpCall(client.value().get()),
                                          config_.workload, pool_.queries, log[i], check,
                                          &samples, nullptr);
      TagClass(log[i], first, &samples);
      checks_.Expect(outcome.ok, "status_ok", outcome.failure);
      if (check && outcome.ok) {
        checks_.Expect(SameAsWarm(log[i], outcome), "timed_answers_stable",
                       "client " + std::to_string(c) + " session " + std::to_string(i));
      }
    }
    std::lock_guard<std::mutex> lock(tally_mu_);
    timed_tally_.Add(samples);
  });
  timed_wall_ms_ = MsSince(start);
}

void UntracedRun::TimedColdEpochs() {
  const Clock::time_point start = Clock::now();
  // Restart phase: Seda::Open of the set-up image in a fresh instance, a
  // fresh server, and all clients sending Query 1 at once. The last restart
  // serves the churn phase.
  for (int r = 0; r < restarts_; ++r) {
    serving_.Stop();
    double open_ms = 0;
    seda::Status started = serving_.Start(image_, &open_ms);
    checks_.Expect(started.ok(), "restart_serve", started.ToString());
    if (!started.ok()) return;
    open_ms_.push_back(open_ms);
    ColdBurst(&serving_, Threads().clients, &timed_tally_);
  }

  // Churn phase: a writer commits seeded deltas while the exploration mix
  // runs; each reader's first request on a new epoch is Query 1. Every epoch
  // gets the same work: each reader runs its quota of sessions from it, and
  // the writer commits the next delta once every reader is halfway through
  // its quota, so each commit runs beside reads. A reader that finishes its
  // quota waits for the next epoch. The quotas add up to two whole
  // shuffles of the query draws per reader, so every run sends the same mix
  // (and about 200 cubes, for a steady cube_p50_ms).
  const size_t epochs = static_cast<size_t>(commits_) + 1;
  const size_t quota = (2 * kPoolDraws + epochs - 1) / epochs;
  const size_t readers = Threads().churn_clients;
  std::atomic<uint64_t> published{serving_.seda()->snapshot()->epoch()};
  // Per reader: the last epoch whose quota it is halfway through / done with.
  std::vector<std::atomic<uint64_t>> halfway_epoch(readers), done_epoch(readers);
  for (size_t c = 0; c < readers; ++c) {
    halfway_epoch[c].store(0);
    done_epoch[c].store(0);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> commits_done{0};
  auto wait_for = [](const std::vector<std::atomic<uint64_t>>& marks, uint64_t epoch) {
    for (const auto& mark : marks) {
      while (mark.load() < epoch) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  std::thread writer([&] {
    for (int k = 0; k < commits_; ++k) {
      wait_for(halfway_epoch, published.load());
      for (const XmlDoc& doc : corpus_.deltas[static_cast<size_t>(k)]) {
        (void)serving_.seda()->AddXml(doc.xml, doc.name);
      }
      const Clock::time_point commit_start = Clock::now();
      auto committed = serving_.seda()->Commit();
      const double ms = MsSince(commit_start);
      checks_.Expect(committed.ok() && committed.value().incremental, "churn_commit",
                     committed.ok() ? "not incremental" : committed.status().ToString());
      {
        std::lock_guard<std::mutex> lock(tally_mu_);
        commit_ms_.push_back(ms);
      }
      commits_done.fetch_add(1);
      if (!committed.ok()) break;
      published.store(committed.value().epoch);
    }
    wait_for(done_epoch, published.load());
    stop.store(true);
  });
  OnClients(readers, [&](size_t c) {
    auto client = serving_.Connect();
    if (!client.ok()) {
      checks_.Expect(false, "status_ok", "connect: " + client.status().ToString());
      halfway_epoch[c].store(UINT64_MAX);
      done_epoch[c].store(UINT64_MAX);
      return;
    }
    const std::vector<SessionPlan> log =
        RequestLog(config_.seed, config_.workload, c, pool_.draws, kLogLength);
    std::vector<RequestSample> samples;
    uint64_t seen_epoch = published.load();
    uint64_t epoch = seen_epoch;
    size_t next = 0;
    while (!stop.load() && next + quota <= log.size()) {
      // A session pins the epoch current at its start: the sessions after
      // a commit read the new epoch.
      for (size_t i = 0; i < quota; ++i, ++next) {
        if (i == quota / 2) halfway_epoch[c].store(epoch);
        const size_t first = samples.size();
        SessionOutcome outcome = RunSession(TcpCall(client.value().get()),
                                            config_.workload, pool_.queries, log[next], false,
                                            &samples, &seen_epoch);
        TagClass(log[next], first, &samples);
        checks_.Expect(outcome.ok, "status_ok", outcome.failure);
      }
      done_epoch[c].store(epoch);
      while (!stop.load() && published.load() <= epoch) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      epoch = published.load();
    }
    halfway_epoch[c].store(UINT64_MAX);
    done_epoch[c].store(UINT64_MAX);
    std::lock_guard<std::mutex> lock(tally_mu_);
    timed_tally_.Add(samples);
  });
  writer.join();
  timed_wall_ms_ = MsSince(start);
  commits_done_ = static_cast<size_t>(commits_done.load());
}

// The final epoch, built by incremental commits on a reopened image, equals
// a cold Finalize over the same documents: structure and Query 1 bytes.
void UntracedRun::CheckFinalEpoch() {
  const size_t commits_done = commits_done_;
  seda::core::Seda cold;
  for (const XmlDoc& doc : corpus_.base) (void)cold.AddXml(doc.xml, doc.name);
  for (size_t k = 0; k < commits_done; ++k) {
    for (const XmlDoc& doc : corpus_.deltas[k]) (void)cold.AddXml(doc.xml, doc.name);
  }
  seda::Status finalized = cold.Finalize(ServingOptions());
  checks_.Expect(finalized.ok(), "final_epoch", finalized.ToString());
  if (!finalized.ok()) return;
  const std::string served_digest = EpochDigest(*serving_.seda()->snapshot());
  checks_.Expect(served_digest == EpochDigest(*cold.snapshot()), "final_epoch",
                 "digest " + served_digest + " vs " + EpochDigest(*cold.snapshot()));
  api::SedaService cold_service(&cold);
  std::string served, rebuilt, failure, served_bytes, rebuilt_bytes;
  RequestSample a = TimedCall(InProcessCall(serving_.service()), kSearch,
                              SearchEnvelope(QueryOne()), &served, &failure);
  RequestSample b = TimedCall(InProcessCall(&cold_service), kSearch,
                              SearchEnvelope(QueryOne()), &rebuilt, &failure);
  const bool same = a.ok && b.ok && CanonicalBytes(kSearch, served, &served_bytes) &&
                    CanonicalBytes(kSearch, rebuilt, &rebuilt_bytes) &&
                    served_bytes == rebuilt_bytes;
  checks_.Expect(same, "final_epoch", "Query 1 bytes differ from a cold Finalize");
  answers_.Add(served_digest);
  answers_.Add(served_bytes);
  std::printf("final epoch: %s after %zu commits == cold Finalize\n",
              served_digest.c_str(), commits_done);
}

// Quartiles and the highest percentile the sample count allows; fewer
// than 20 samples allow none.
void PrintLatency(const char* name, const std::vector<double>& samples) {
  const double p = HighestReportablePercentile(samples.size());
  if (p < 50) {
    std::printf("  %-22s not reported (%zu samples < 20)\n", name, samples.size());
    return;
  }
  std::printf("  %-22s p25 %9.3f  p50 %9.3f  p75 %9.3f ms", name, Percentile(samples, 25),
              Median(samples), Percentile(samples, 75));
  if (p > 50) std::printf("  p%g %9.3f ms", p, Percentile(samples, p));
  std::printf("  (%zu samples)\n", samples.size());
}

void UntracedRun::Report(RunResult* result) {
  const Tally& timed = timed_tally_;
  std::vector<double> cold = setup_tally_.cold_ms;
  cold.insert(cold.end(), timed.cold_ms.begin(), timed.cold_ms.end());
  const ThreadCounts threads = Threads();

  std::printf("threads: %zu clients (%zu beside the writer), server io %zu / workers %zu, "
              "ingest %zu, query %zu\n",
              threads.clients, threads.churn_clients, threads.io_threads,
              threads.worker_threads, threads.ingest_threads, threads.query_threads);
  std::printf("sizes: %zu documents, %llu nodes, image %llu bytes, %zu distinct queries, "
              "broad cube %zu fact rows, %zu commit deltas x %zu docs\n",
              corpus_.base.size(), static_cast<unsigned long long>(nodes_),
              static_cast<unsigned long long>(FileBytes(image_)), pool_.queries.size(), cube_rows_,
              corpus_.deltas.size(), corpus_.deltas.front().size());
  std::printf("images are read from a warm OS page cache\n");
  std::printf("set-up: %zu runs, median %.3f s\n", setup_s_.size(), Median(setup_s_));
  std::printf("timed phase: %.1f s, closed loop, no think time\n", timed_wall_ms_ / 1000);
  std::printf("requests (timed): method attempted failed shed\n");
  for (int m = 0; m < kMethodCount; ++m) {
    std::printf("  %-15s %9llu %6llu %4llu\n", MethodName(static_cast<Method>(m)),
                static_cast<unsigned long long>(timed.attempted[m]),
                static_cast<unsigned long long>(timed.failed[m]),
                static_cast<unsigned long long>(timed.shed[m]));
  }
  const double attempted = static_cast<double>(timed.Attempted());
  std::printf("  error_rate %.6f failed/attempted\n",
              attempted > 0 ? static_cast<double>(timed.Failed()) / attempted : 0.0);
  std::printf("latency (client-observed over TCP):\n");
  PrintLatency("search+refine", timed.search_ms);
  PrintLatency("  hub queries", timed.search_hub_ms);
  PrintLatency("  selective queries", timed.search_selective_ms);
  PrintLatency("complete", timed.complete_ms);
  PrintLatency("cube", timed.cube_ms);
  PrintLatency("cold Query 1", cold);
  PrintLatency("Seda::Open", open_ms_);
  PrintLatency("Seda::Commit", commit_ms_);
  if (HighestReportablePercentile(cold.size()) >= 50) {
    std::printf("  cold_search_p50_ms %.3f ms (%zu samples)\n", Median(cold), cold.size());
  } else {
    std::printf("  cold_search_p50_ms not reported (%zu samples < 20)\n", cold.size());
  }
  for (auto [name, samples] : {std::pair{"search_p99_ms", &timed.search_ms},
                               std::pair{"cube_p99_ms", &timed.cube_ms}}) {
    if (P99Reportable(samples->size())) {
      std::printf("  %s %.3f ms\n", name, Percentile(*samples, 99));
    } else {
      std::printf("  %s not reported (%zu samples < 1000)\n", name, samples->size());
    }
  }

  // Every reported median has the samples the percentile rule asks for.
  using Samples = std::pair<const char*, const std::vector<double>*>;
  for (auto [name, samples] :
       {Samples{"search_p50_ms", &timed.search_ms},
        Samples{"complete_p50_ms", &timed.complete_ms},
        Samples{"cube_p50_ms", &timed.cube_ms}, Samples{"open_p50_ms", &open_ms_},
        Samples{"commit_p50_ms", &commit_ms_}}) {
    checks_.Expect(HighestReportablePercentile(samples->size()) >= 50, "enough_samples",
                   std::string(name) + " has " + std::to_string(samples->size()) +
                       " samples, a median needs 20");
  }

  result->attempted = timed.Attempted() + setup_tally_.Attempted();
  result->failed = timed.Failed() + setup_tally_.Failed();
  result->metrics = {
      {"setup_s", Median(setup_s_), "s"},
      {"requests_per_s", static_cast<double>(timed.ok) * 1000.0 / timed_wall_ms_, "req/s"},
      {"search_p50_ms", Median(timed.search_ms), "ms"},
      {"complete_p50_ms", Median(timed.complete_ms), "ms"},
      {"cube_p50_ms", Median(timed.cube_ms), "ms"},
      {"open_p50_ms", Median(open_ms_), "ms"},
      {"commit_p50_ms", Median(commit_ms_), "ms"},
      {"peak_rss_mb", rss_.PeakMb(), "MiB"},
      {"image_mb", static_cast<double>(FileBytes(image_)) / (1024.0 * 1024.0), "MiB"},
  };
  for (const Metric& metric : result->metrics) {
    std::printf("%-20s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

RunResult UntracedRun::Run() {
  std::printf("workload %s, seed %llu, %d s, scale %.2f\n", WorkloadName(config_.workload),
              static_cast<unsigned long long>(config_.seed), config_.seconds,
              config_.scale);
  for (size_t r = 0; r < kSetupRepeats; ++r) SetUp();
  CheckInProcess();
  Probes();
  for (const auto& answers : warm_.per_query) {
    for (uint64_t answer : answers) answers_.Add(std::to_string(answer));
  }
  for (uint64_t answer : warm_.drill) answers_.Add(std::to_string(answer));
  for (const std::string& cells : warm_.drill_cells) answers_.Add(cells);

  // peak_rss_mb is the timed phase's own peak: the set-up's and the
  // probes' freed memory goes back to the OS first.
  malloc_trim(0);
  rss_.Start();
  if (config_.workload == Workload::kColdEpochs) {
    TimedColdEpochs();
  } else {
    TimedSessions();
  }
  rss_.Stop();
  if (config_.workload == Workload::kColdEpochs) CheckFinalEpoch();
  checks_.Expect(timed_tally_.Failed() == 0 && setup_tally_.Failed() == 0, "status_ok",
                 "failed requests");
  RunResult result;
  Report(&result);
  serving_.Stop();
  std::remove(image_.c_str());
  result.answers_digest = answers_.Hex();
  std::printf("answers_digest %s\n", result.answers_digest.c_str());
  checks_.PrintSummary();
  result.correct = checks_.ok();
  return result;
}

}  // namespace

RunResult RunUntraced(const RunConfig& config) { return UntracedRun(config).Run(); }

}  // namespace perfbench
