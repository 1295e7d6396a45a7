#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "api/wire.h"
#include "data/generators.h"
#include "xml/parser.h"

namespace perfbench {

namespace api = seda::api;

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kExploreWarm: return "explore_warm";
    case Workload::kOlapDrill: return "olap_drill";
    case Workload::kColdEpochs: return "cold_epochs";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kExploreWarm, Workload::kOlapDrill,
                     Workload::kColdEpochs}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

ThreadCounts Threads() {
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  ThreadCounts counts;
  for (size_t* count : {&counts.clients, &counts.churn_clients, &counts.io_threads,
                        &counts.worker_threads, &counts.ingest_threads,
                        &counts.query_threads}) {
    *count = std::min(*count, cores);
  }
  return counts;
}

seda::core::SedaOptions ServingOptions() {
  seda::core::SedaOptions options;
  options.value_edges.push_back({kNamePath, kTradePath, "trade_partner"});
  options.topk.max_tuples_per_query = 500;
  options.topk.max_connect_visits = 256;
  options.num_threads = Threads().ingest_threads;
  options.query_threads = Threads().query_threads;
  return options;
}

void DefineCatalog(seda::cube::Catalog* catalog) {
  using seda::cube::RelativeKey;
  (void)catalog->DefineDimension(
      "country", {{kNamePath, RelativeKey::Parse({kNamePath, kYearPath})}});
  (void)catalog->DefineDimension(
      "year", {{kYearPath, RelativeKey::Parse({kNamePath, kYearPath})}});
  (void)catalog->DefineDimension(
      "import-country",
      {{kTradePath, RelativeKey::Parse({kNamePath, kYearPath, "."})}});
  (void)catalog->DefineFact(
      kMeasure,
      {{kPctPath, RelativeKey::Parse({kNamePath, kYearPath, "../trade_country"})}});
}

namespace {

void AppendXml(const seda::data::WorldFactbookGenerator::Options& options,
               std::vector<XmlDoc>* out) {
  seda::store::DocumentStore staging;
  seda::data::WorldFactbookGenerator(options).Populate(&staging);
  for (seda::store::DocId d = 0; d < staging.DocumentCount(); ++d) {
    out->push_back({seda::xml::Serialize(staging.document(d)),
                    staging.document(d).name()});
  }
}

}  // namespace

Corpus MakeCorpus(uint64_t seed, double scale, size_t delta_count) {
  Corpus corpus;
  // The base releases are the repository's canonical Factbook (the
  // generator's default seed), the corpus every other bench and the ROADMAP
  // baseline use. Its cold Query 1 cost depends strongly on which hubs a
  // corpus seed produces (0.4 s to 1.6 s), so drawing the base from the run
  // seed would make the cross-seed spread measure the corpus, not the
  // system; the seed draws the commit deltas, queries and request logs.
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = scale;
  AppendXml(options, &corpus.base);

  // Post-2007 releases, one generator year at a time until enough deltas.
  std::vector<XmlDoc> releases;
  const size_t delta_docs =
      std::max<size_t>(1, static_cast<size_t>(kDeltaDocs * std::min(1.0, scale * 4)));
  for (int year = 2008; releases.size() < delta_docs * delta_count; ++year) {
    seda::data::WorldFactbookGenerator::Options release = options;
    release.seed = seed * 1000003 + static_cast<uint64_t>(year);
    release.first_year = year;
    release.last_year = year;
    AppendXml(release, &releases);
  }
  for (size_t d = 0; d < delta_count; ++d) {
    corpus.deltas.emplace_back(releases.begin() + static_cast<long>(d * delta_docs),
                               releases.begin() + static_cast<long>((d + 1) * delta_docs));
  }
  return corpus;
}

std::string QueryOne() {
  return R"((*, "United States") AND (trade_country, *) AND (percentage, *))";
}

namespace {

/// `count` indices into [0, n) by systematic sampling: a seeded offset, then
/// equal steps. Every index is equally likely, and every seed's sample keeps
/// the population's make-up, so the traffic mix varies little by seed.
std::vector<size_t> Systematic(seda::Rng* rng, size_t n, size_t count) {
  const double step = static_cast<double>(n) / static_cast<double>(count);
  const double offset = step * static_cast<double>(rng->Uniform(1u << 20)) / (1u << 20);
  std::vector<size_t> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(std::min(n - 1, static_cast<size_t>(offset + step * static_cast<double>(i))));
  }
  return out;
}

}  // namespace

QueryPool MakeQueryPool(uint64_t seed, Workload workload) {
  QueryPool pool;
  if (workload == Workload::kOlapDrill) {
    pool.queries = {R"((name, *) AND (trade_country, *) AND (percentage, *))"};
    pool.selective = {false};
    pool.draws = {0};
    return pool;
  }
  auto draw = [&](const std::string& query, bool selective) {
    size_t index = std::find(pool.queries.begin(), pool.queries.end(), query) -
                   pool.queries.begin();
    if (index == pool.queries.size()) {
      pool.queries.push_back(query);
      pool.selective.push_back(selective);
    }
    pool.draws.push_back(index);
  };
  pool.queries = {QueryOne()};
  pool.selective = {false};
  const std::vector<std::string>& names = seda::data::CountryNamePool();
  auto quoted = [](const std::string& s) { return "\"" + s + "\""; };
  seda::Rng rng(seed ^ 0x51ee7a11u);
  constexpr size_t kPerTemplate = kPoolDraws / 3;

  // Query 1 with a constant from the country-name pool.
  for (size_t n : Systematic(&rng, names.size(), kPerTemplate)) {
    draw("(*, " + quoted(names[n]) + ") AND (trade_country, *) AND (percentage, *)", false);
  }
  // Hub-heavy "United States" queries: 12 two-term and 3 three-term forms.
  const std::vector<std::string> labels = {
      "trade_country", "percentage", "name", "year", "population", "neighbor",
      "location", "type", "GDP", "GDP_ppp", "country_of_origin", "long_form"};
  const std::string us = "(*, \"United States\") AND (";
  for (size_t form : Systematic(&rng, labels.size() + 3, kPerTemplate)) {
    draw(form < labels.size()
             ? us + labels[form] + ", *)"
             : us + labels[2 + form - labels.size()] + ", *) AND (percentage, *)",
         false);
  }
  // Selective queries: four forms with equal weight, each constant drawn
  // from the values its label takes. The generator draws trade partners
  // from the first 60 names; a name or neighbor can be any name.
  constexpr size_t kPartnerNames = 60;
  const std::vector<size_t> forms = Systematic(&rng, 4, kPerTemplate);
  for (size_t form = 0; form < 4; ++form) {
    const size_t count = static_cast<size_t>(std::count(forms.begin(), forms.end(), form));
    switch (form) {
      case 0:
        for (size_t n : Systematic(&rng, kPartnerNames, count)) {
          draw("(trade_country, " + quoted(names[n]) + ") AND (percentage, *)", true);
        }
        break;
      case 1:
        for (size_t n : Systematic(&rng, names.size(), count)) {
          draw("(name, " + quoted(names[n]) + ") AND (population, *)", true);
        }
        break;
      case 2:
        for (size_t n : Systematic(&rng, names.size(), count)) {
          draw("(neighbor, " + quoted(names[n]) + ") AND (name, *)", true);
        }
        break;
      default:
        for (size_t i = 0; i < count; ++i) draw("(refugees, *) AND (name, *)", true);
        break;
    }
  }
  return pool;
}

std::vector<size_t> CheckedQueries(uint64_t seed, size_t pool_size) {
  seda::Rng rng(seed ^ 0xc0ffee);
  std::vector<size_t> queries;
  for (size_t i = 0; i < 8; ++i) queries.push_back(rng.Uniform(pool_size));
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return queries;
}

const std::vector<CubeVariant>& CubeVariants() {
  static const std::vector<CubeVariant>* variants = [] {
    auto* out = new std::vector<CubeVariant>;
    const std::vector<std::string> dims = {"country", "year", "import-country"};
    size_t index = 0;
    for (const char* fn : {"sum", "count", "avg", "min", "max"}) {
      for (unsigned mask = 1; mask < 8; ++mask, ++index) {
        CubeVariant variant;
        variant.agg_fn = fn;
        for (size_t d = 0; d < dims.size(); ++d) {
          if (mask & (1u << d)) variant.group_dims.push_back(dims[d]);
        }
        // Dimension-table edits ride along in a fixed rotation.
        switch (index % 4) {
          case 1: variant.remove_dims = {"year"}; break;
          case 2: variant.remove_dims = {"import-country"}; break;
          case 3: variant.add_dims = {"year"}; break;
          default: break;
        }
        out->push_back(std::move(variant));
      }
    }
    return out;
  }();
  return *variants;
}

std::vector<SessionPlan> RequestLog(uint64_t seed, Workload workload, size_t client,
                                    const std::vector<size_t>& draws, size_t count) {
  seda::Rng rng(seed * 0x9e3779b97f4a7c15ull + client + 1);
  constexpr size_t kCubesPerDrill = 20;
  // Queries come in seeded shuffles of the pool's draws, so every run sends
  // the same per-template mix up to its last, partial shuffle.
  std::vector<size_t> order;
  std::vector<SessionPlan> log(count);
  for (SessionPlan& plan : log) {
    if (order.empty()) {
      order = draws;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
    }
    plan.query = order.back();
    order.pop_back();
    size_t cubes = workload == Workload::kOlapDrill ? kCubesPerDrill : 1;
    for (size_t c = 0; c < cubes; ++c) {
      plan.cubes.push_back(rng.Uniform(CubeVariants().size()));
    }
  }
  return log;
}

std::string RequestLogText(const std::vector<SessionPlan>& log) {
  std::string out;
  for (const SessionPlan& plan : log) {
    out += std::to_string(plan.query) + ":";
    for (size_t cube : plan.cubes) out += " " + std::to_string(cube);
    out += "\n";
  }
  return out;
}

const char* MethodName(Method method) {
  static const char* kNames[] = {"create_session", "search", "refine",
                                 "complete",       "cube",   "close_session"};
  return kNames[method];
}

namespace {

std::string Envelope(const char* method, api::Json body) {
  body.Set("method", api::Json::Str(method));
  return body.Write();
}

/// The status code of a response payload. Every response DTO encodes its
/// status first, so the prefix is enough.
std::string StatusCode(const std::string& response) {
  static const std::string kPrefix = "{\"status\":{\"code\":\"";
  if (response.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  size_t end = response.find('"', kPrefix.size());
  return end == std::string::npos ? ""
                                   : response.substr(kPrefix.size(), end - kPrefix.size());
}

}  // namespace

std::string SearchEnvelope(const std::string& query) {
  api::SearchRequest request;
  request.query = query;
  return Envelope("search", api::ToJson(request));
}

RequestSample TimedCall(const CallFn& call, Method method, const std::string& envelope,
                        std::string* response, std::string* failure) {
  RequestSample sample;
  sample.method = method;
  const Clock::time_point start = Clock::now();
  auto result = call(envelope);
  sample.ms = MsSince(start);
  if (!result.ok()) {
    sample.ok = false;
    *failure = "transport: " + result.status().ToString();
    return sample;
  }
  *response = std::move(result).value();
  const std::string code = StatusCode(*response);
  if (code != "OK") {
    sample.ok = false;
    sample.shed = code == "Unavailable";
    *failure = "status " + (code.empty() ? std::string("undecodable") : code) + ": " +
               response->substr(0, 200);
  } else if (response->find("\"deadline_exceeded\":true") != std::string::npos) {
    sample.ok = false;
    *failure = "deadline_exceeded";
  }
  return sample;
}

bool CanonicalBytes(Method method, const std::string& response, std::string* out) {
  switch (method) {
    case kSearch:
    case kRefine: {
      auto decoded = api::DecodeSearchResponseDto(response);
      if (!decoded.ok()) return false;
      decoded.value().stats = api::StatsDto{};
      *out = api::Encode(decoded.value());
      return true;
    }
    case kComplete: {
      auto decoded = api::DecodeCompleteResponseDto(response);
      if (!decoded.ok()) return false;
      decoded.value().stats = api::StatsDto{};
      *out = api::Encode(decoded.value());
      return true;
    }
    case kCube: {
      auto decoded = api::DecodeCubeResponseDto(response);
      if (!decoded.ok()) return false;
      decoded.value().stats = api::StatsDto{};
      *out = api::Encode(decoded.value());
      return true;
    }
    default:
      *out = response;
      return true;
  }
}

SessionOutcome RunSession(const CallFn& call, Workload workload,
                          const std::vector<std::string>& pool,
                          const SessionPlan& plan, bool canonical,
                          std::vector<RequestSample>* samples,
                          uint64_t* cold_epoch) {
  SessionOutcome outcome;
  auto fail = [&](Method method, const std::string& why) {
    if (outcome.ok) outcome.failure = std::string(MethodName(method)) + ": " + why;
    outcome.ok = false;
  };
  // One timed round trip; false when the request failed in any way.
  auto send = [&](Method method, const std::string& envelope, std::string* response,
                  bool cold = false) {
    std::string failure;
    RequestSample sample = TimedCall(call, method, envelope, response, &failure);
    sample.cold = cold;
    if (!sample.ok) fail(method, failure);
    samples->push_back(sample);
    if (sample.ok && canonical && !cold && method != kCreate && method != kClose) {
      std::string bytes;
      if (!CanonicalBytes(method, *response, &bytes)) {
        fail(method, "undecodable response");
        return false;
      }
      Digest digest;
      digest.Add(bytes);
      outcome.answers.push_back(digest.value());
    }
    return sample.ok;
  };

  std::string response;
  if (!send(kCreate, Envelope("create_session", api::ToJson(api::CreateSessionRequest{})),
            &response)) {
    return outcome;
  }
  auto created = api::DecodeCreateSessionResponse(response);
  if (!created.ok()) {
    fail(kCreate, "undecodable response");
    return outcome;
  }
  const std::string session_id = created.value().session_id;
  const uint64_t epoch = created.value().epoch;

  auto close = [&] {
    api::CloseSessionRequest request;
    request.session_id = session_id;
    send(kClose, Envelope("close_session", api::ToJson(request)), &response);
  };

  if (cold_epoch != nullptr && epoch > *cold_epoch) {
    *cold_epoch = epoch;
    api::SearchRequest first;
    first.session_id = session_id;
    first.query = QueryOne();
    if (!send(kSearch, Envelope("search", api::ToJson(first)), &response, true)) {
      close();
      return outcome;
    }
  }

  api::SearchRequest search;
  search.session_id = session_id;
  search.query = pool[plan.query];
  if (!send(kSearch, Envelope("search", api::ToJson(search)), &response)) {
    close();
    return outcome;
  }
  auto searched = api::DecodeSearchResponseDto(response);
  if (!searched.ok()) {
    fail(kSearch, "undecodable response");
    close();
    return outcome;
  }

  // Refine: the broad contexts in olap_drill, the top context per term in
  // the exploration mix.
  api::RefineRequest refine;
  refine.session_id = session_id;
  std::vector<std::string> term_paths;
  if (workload == Workload::kOlapDrill) {
    term_paths = {kNamePath, kTradePath, kPctPath};
  } else {
    // Two terms pinned to one path would bind the same node, so a term
    // takes its top context not already taken by an earlier term.
    for (const api::ContextBucketDto& bucket : searched.value().contexts) {
      for (const api::ContextEntryDto& entry : bucket.entries) {
        if (std::find(term_paths.begin(), term_paths.end(), entry.path) ==
            term_paths.end()) {
          term_paths.push_back(entry.path);
          break;
        }
      }
    }
  }
  if (term_paths.size() != searched.value().contexts.size()) {
    close();  // a term without a context of its own: nothing to refine on
    return outcome;
  }
  for (const std::string& path : term_paths) refine.chosen_paths.push_back({path});
  if (!send(kRefine, Envelope("refine", api::ToJson(refine)), &response)) {
    close();
    return outcome;
  }
  auto refined = api::DecodeSearchResponseDto(response);
  if (!refined.ok()) {
    fail(kRefine, "undecodable response");
    close();
    return outcome;
  }

  api::CompleteRequest complete;
  complete.session_id = session_id;
  complete.term_paths = term_paths;
  if (workload != Workload::kOlapDrill) {
    // The top connection the twig join can execute (at most one link step).
    const auto& connections = refined.value().connections;
    for (size_t i = 0; i < connections.size(); ++i) {
      size_t links = 0;
      for (const api::ConnectionStepDto& step : connections[i].steps) {
        links += step.move == "link" ? 1 : 0;
      }
      if (links <= 1) {
        complete.connections = {i};
        break;
      }
    }
  }
  if (!send(kComplete, Envelope("complete", api::ToJson(complete)), &response)) {
    close();
    return outcome;
  }

  // A cube needs a fact column (the percentage path the catalog's fact
  // covers) and a non-empty result.
  const bool cube_ready =
      std::find(term_paths.begin(), term_paths.end(), kPctPath) != term_paths.end() &&
      response.find("\"tuples\":[]") == std::string::npos;
  if (!cube_ready) {
    close();
    return outcome;
  }
  for (size_t index : plan.cubes) {
    const CubeVariant& variant = CubeVariants()[index];
    api::CubeRequest cube;
    cube.session_id = session_id;
    cube.add_dimensions = variant.add_dims;
    cube.remove_dimensions = variant.remove_dims;
    cube.group_dims = variant.group_dims;
    cube.agg_fn = variant.agg_fn;
    cube.measure = kMeasure;
    if (!send(kCube, Envelope("cube", api::ToJson(cube)), &response)) break;
    if (canonical) {
      auto decoded = api::DecodeCubeResponseDto(response);
      outcome.cube_cells.push_back(decoded.ok() ? CellsText(decoded.value()) : "");
    }
  }
  close();
  return outcome;
}

std::string CellsText(const api::CubeResponseDto& cube) {
  std::string out;
  char number[64];
  for (const api::CellDto& cell : cube.cells) {
    for (const std::string& g : cell.group) out += g + "|";
    std::snprintf(number, sizeof(number), "%.17g", cell.value);
    out += std::string(number) + "#" + std::to_string(cell.count) + ";";
  }
  std::snprintf(number, sizeof(number), "%.17g", cube.cell_total);
  return out + "total=" + number;
}

std::string CellsText(const seda::olap::Cuboid& cuboid) {
  api::CubeResponseDto cube;
  for (const seda::olap::Cell& cell : cuboid.cells) {
    cube.cells.push_back({cell.group, cell.value, cell.count});
  }
  cube.cell_total = cuboid.Total();
  return CellsText(cube);
}

std::string EpochDigest(const seda::core::Snapshot& snap) {
  std::string out;
  out += "docs=" + std::to_string(snap.store().DocumentCount());
  out += " nodes=" + std::to_string(snap.store().TotalNodeCount());
  out += " paths=" + std::to_string(snap.store().paths().size());
  out += " edges=" + std::to_string(snap.data_graph().EdgeCount());
  out += " terms=" + std::to_string(snap.index().TermCount());
  out += " indexed=" + std::to_string(snap.index().IndexedNodeCount());
  out += " guides=" + std::to_string(snap.dataguides().size());
  out += " merges=" + std::to_string(snap.dataguides().build_stats().merges);
  out += " links=" + std::to_string(snap.dataguides().LinkCount());
  out += " columns=" + std::to_string(snap.columns().size());
  return out;
}

void Checks::Expect(bool condition, const std::string& name,
                    const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (condition) {
    if (std::find(passed_.begin(), passed_.end(), name) == passed_.end()) {
      passed_.push_back(name);
    }
    return;
  }
  ++failures_;
  std::printf("CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
  std::fflush(stdout);
}

void Checks::PrintSummary() const {
  std::string names;
  for (const std::string& name : passed_) names += " " + name;
  std::printf("checks: %s (%zu failed; passed:%s)\n", failures_ == 0 ? "OK" : "FAILED",
              failures_, names.c_str());
}

seda::Status Serving::Start(const std::string& image, double* open_ms) {
  seda_ = std::make_unique<seda::core::Seda>();
  const Clock::time_point start = Clock::now();
  seda::Status opened = seda_->Open(image);
  *open_ms = MsSince(start);
  if (!opened.ok()) return opened;
  DefineCatalog(seda_->mutable_catalog());
  service_ = std::make_unique<api::SedaService>(seda_.get());
  seda::net::ServerOptions options;
  options.io_threads = Threads().io_threads;
  options.worker_threads = Threads().worker_threads;
  server_ = std::make_unique<seda::net::Server>(service_.get(), options);
  return server_->Start();
}

void Serving::Stop() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  service_.reset();
  seda_.reset();
}

seda::Result<std::unique_ptr<seda::net::BlockingClient>> Serving::Connect() const {
  auto client = std::make_unique<seda::net::BlockingClient>();
  SEDA_RETURN_IF_ERROR(client->Connect("127.0.0.1", server_->port(),
                                       /*recv_timeout_ms=*/60000));
  return client;
}

CallFn TcpCall(seda::net::BlockingClient* client) {
  return [client](const std::string& envelope) { return client->Call(envelope); };
}

CallFn InProcessCall(api::SedaService* service) {
  return [service](const std::string& envelope) -> seda::Result<std::string> {
    return service->Handle(envelope);
  };
}

void RssSampler::Start() {
  stop_.store(false);
  peak_mb_ = 0;
  thread_ = std::thread([this] {
    const double page_mb = static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    double peak = 0;
    do {
      // /proc/self/statm: size resident shared ... (in pages).
      unsigned long long size = 0, resident = 0;
      if (FILE* statm = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(statm, "%llu %llu", &size, &resident) == 2) {
          peak = std::max(peak, static_cast<double>(resident) * page_mb);
        }
        std::fclose(statm);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } while (!stop_.load());
    peak_mb_ = peak;
  });
}

void RssSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
}

uint64_t FileBytes(const std::string& path) {
  struct stat info {};
  return stat(path.c_str(), &info) == 0 ? static_cast<uint64_t>(info.st_size) : 0;
}

std::string Fingerprint(const seda::core::SearchResponse& response,
                        const seda::store::DocumentStore& store) {
  std::string out;
  for (const auto& tuple : response.topk) out += tuple.ToString(store) + "\n";
  out += response.contexts.ToString();
  out += response.connections.ToString();
  return out;
}

}  // namespace perfbench
