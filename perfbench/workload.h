#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's configuration, seeded inputs (corpus, commit deltas, query
// pool, per-client request logs) and the client side of one Fig. 6 session,
// shared by the untraced run, the traced replay and the self-tests.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "api/service.h"
#include "core/seda.h"
#include "net/client.h"
#include "net/server.h"
#include "harness.h"

namespace perfbench {

enum class Workload { kExploreWarm, kOlapDrill, kColdEpochs };
const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// Every thread count the benchmark passes, explicit and capped at the
/// machine's core count (never 0 = "hardware default").
struct ThreadCounts {
  size_t clients = 3;         ///< closed-loop analyst connections
  size_t churn_clients = 2;   ///< readers beside the cold_epochs writer
  size_t io_threads = 1;      ///< net::ServerOptions::io_threads
  size_t worker_threads = 3;  ///< net::ServerOptions::worker_threads
  size_t ingest_threads = 4;  ///< SedaOptions::num_threads
  size_t query_threads = 1;   ///< SedaOptions::query_threads
};
ThreadCounts Threads();

/// One benchmark invocation.
struct RunConfig {
  Workload workload = Workload::kExploreWarm;
  uint64_t seed = 1;
  int seconds = 10;
  std::string workdir = ".";  ///< image files go here
  double scale = 1.0;         ///< Factbook scale (self-tests shrink it)
};

/// What one run reports: the result line's fields plus the answers digest.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string answers_digest;
};

/// The untraced run: set-up, the timed workload over TCP, the answer checks
/// and the end-to-end metrics.
RunResult RunUntraced(const RunConfig& config);
/// The traced run: the same seeded inputs replayed through the layers'
/// public functions with a span around each call; per-layer metrics.
RunResult RunTraced(const RunConfig& config);

constexpr const char* kNamePath = "/country/name";
constexpr const char* kYearPath = "/country/year";
constexpr const char* kTradePath =
    "/country/economy/import_partners/item/trade_country";
constexpr const char* kPctPath = "/country/economy/import_partners/item/percentage";
constexpr const char* kMeasure = "import-trade-percentage";
constexpr size_t kDeltaDocs = 80;

/// Serving options of bench_snapshot_io: the trade_partner value edge and
/// its budgets, plus the explicit thread counts.
seda::core::SedaOptions ServingOptions();
/// The cube catalog bench_fig6_pipeline defines.
void DefineCatalog(seda::cube::Catalog* catalog);

struct XmlDoc {
  std::string xml;
  std::string name;
};
/// The Factbook (2002-2007 releases) as XML text, plus seeded post-2007
/// releases cut into kDeltaDocs-document commit deltas.
struct Corpus {
  std::vector<XmlDoc> base;
  std::vector<std::vector<XmlDoc>> deltas;
};
Corpus MakeCorpus(uint64_t seed, double scale, size_t delta_count);

/// Query 1 of the paper.
std::string QueryOne();

/// The workload's query traffic: kPoolDraws draws, a third from each of
/// the three templates (Query 1 with a country-name constant, hub-heavy
/// "United States" queries, selective queries), forms and constants drawn
/// uniformly within a template. `draws` holds the draws as indices into
/// `queries`, the distinct queries (Query 1 first); a query drawn twice is
/// sent twice as often. olap_drill has the one broad query.
struct QueryPool {
  std::vector<std::string> queries;
  std::vector<bool> selective;  ///< per query: drawn from the selective template
  std::vector<size_t> draws;
};
constexpr size_t kPoolDraws = 210;
QueryPool MakeQueryPool(uint64_t seed, Workload workload);

/// The pool queries whose TCP answers are compared with in-process ones: a
/// seeded subset of up to 8, sorted.
std::vector<size_t> CheckedQueries(uint64_t seed, size_t pool_size);

/// One aggregate request of the OLAP drill-down.
struct CubeVariant {
  std::vector<std::string> group_dims;
  std::string agg_fn;
  std::vector<std::string> add_dims;
  std::vector<std::string> remove_dims;
};
const std::vector<CubeVariant>& CubeVariants();

/// One planned session: the query it starts from and the cube variants it
/// sends (one for explore sessions, a series for olap_drill).
struct SessionPlan {
  size_t query = 0;
  std::vector<size_t> cubes;
};
/// The first `count` sessions client `client` sends — the request log:
/// queries in seeded shuffles of the pool's draws, cube variants drawn
/// uniformly.
std::vector<SessionPlan> RequestLog(uint64_t seed, Workload workload, size_t client,
                                    const std::vector<size_t>& draws, size_t count);
std::string RequestLogText(const std::vector<SessionPlan>& log);

// --- Client side of a session -------------------------------------------

enum Method { kCreate, kSearch, kRefine, kComplete, kCube, kClose, kMethodCount };
const char* MethodName(Method method);

struct RequestSample {
  Method method = kCreate;
  double ms = 0;
  bool ok = true;
  bool shed = false;      ///< overloaded (Unavailable) refusal
  bool cold = false;      ///< first Query 1 on a new epoch
  bool selective = false; ///< search/refine of a selective-template query
};

/// One round trip: request envelope in, response payload out.
using CallFn = std::function<seda::Result<std::string>(const std::string&)>;

/// The session-less (one-shot) search envelope for `query`.
std::string SearchEnvelope(const std::string& query);
/// One timed round trip. A transport error, a non-OK status (an overloaded
/// refusal is also `shed`) or a deadline overrun marks the sample failed and
/// describes it in *failure.
RequestSample TimedCall(const CallFn& call, Method method, const std::string& envelope,
                        std::string* response, std::string* failure);

struct SessionOutcome {
  bool ok = true;
  std::string failure;  ///< first failed request, for the check report
  /// Digest of each canonical response (stats cleared) in send order, when
  /// asked: search, refine, complete, then one per cube.
  std::vector<uint64_t> answers;
  std::vector<std::string> cube_cells;  ///< aggregate cells per cube sent
};

/// Runs one Fig. 6 session: create -> search -> refine (top context per
/// term) -> complete (top connection) -> cube(s) -> close. `cold_epoch`
/// (non-null in cold_epochs) holds the last epoch this client saw; a
/// session pinned to a newer one first sends Query 1, recorded as cold.
SessionOutcome RunSession(const CallFn& call, Workload workload,
                          const std::vector<std::string>& pool,
                          const SessionPlan& plan, bool canonical,
                          std::vector<RequestSample>* samples,
                          uint64_t* cold_epoch);

/// Response JSON with the volatile stats block cleared, re-encoded
/// canonically (bench_frontend's CanonicalBytes, for every response type).
bool CanonicalBytes(Method method, const std::string& response, std::string* out);

/// Aggregate cells as text (group values, %.17g value, count; total), the
/// same for a wire response and an in-process cuboid.
std::string CellsText(const seda::api::CubeResponseDto& cube);
std::string CellsText(const seda::olap::Cuboid& cuboid);

/// Structural digest of an epoch (bench_commit_epochs' EpochDigest, plus the
/// dataguide link count).
std::string EpochDigest(const seda::core::Snapshot& snapshot);

/// Named answer checks; a failed one is printed with its name and makes the
/// run exit non-zero.
class Checks {
 public:
  void Expect(bool condition, const std::string& name, const std::string& detail);
  bool ok() const { return failures_ == 0; }
  void PrintSummary() const;

 private:
  std::mutex mu_;
  std::vector<std::string> passed_;
  size_t failures_ = 0;
};

/// A serving instance: `Seda::Open` of an image, the service over it and a
/// TCP server on an ephemeral loopback port.
class Serving {
 public:
  Serving() = default;
  ~Serving() { Stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  /// Opens `image` (timing Seda::Open into *open_ms) and starts serving.
  seda::Status Start(const std::string& image, double* open_ms);
  void Stop();
  /// A connected blocking client; call from the thread that uses it.
  seda::Result<std::unique_ptr<seda::net::BlockingClient>> Connect() const;

  seda::core::Seda* seda() { return seda_.get(); }
  seda::api::SedaService* service() { return service_.get(); }
  seda::net::Server* server() { return server_.get(); }

 private:
  std::unique_ptr<seda::core::Seda> seda_;
  std::unique_ptr<seda::api::SedaService> service_;
  std::unique_ptr<seda::net::Server> server_;
};

/// The transport of a blocking client.
CallFn TcpCall(seda::net::BlockingClient* client);
/// The in-process transport: SedaService::Handle.
CallFn InProcessCall(seda::api::SedaService* service);

/// Samples this process's resident set every few milliseconds on a thread
/// of its own, from Start to Stop, and keeps the largest sample.
class RssSampler {
 public:
  ~RssSampler() { Stop(); }
  void Start();
  void Stop();
  double PeakMb() const { return peak_mb_; }

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  double peak_mb_ = 0;
};
uint64_t FileBytes(const std::string& path);

/// In-process fingerprint of a search answer.
std::string Fingerprint(const seda::core::SearchResponse& response,
                        const seda::store::DocumentStore& store);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
