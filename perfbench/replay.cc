// The traced run. It replays the workload's seeded inputs by calling the
// layers' public functions in the order core/seda.cc and core/snapshot.cc
// call them, with a span around each call and counters taken from the
// returned stats. Every replayed answer is compared with the same request
// served untraced by a core::Session on a Seda instance over the same
// image; the untraced timings of those requests give the tracing overhead.
// Cold measurements (first Query 1, open, commit) are taken on a freshly
// opened or committed epoch before anything else touches it.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "api/wire.h"
#include "exec/candidates.h"
#include "olap/olap.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "summary/connection_summary.h"
#include "summary/context_summary.h"
#include "workload.h"
#include "xml/parser.h"

namespace perfbench {

namespace {

using seda::core::SearchResponse;
using seda::core::SedaOptions;

/// Sessions of the request log the traced run replays, per workload body.
constexpr size_t kExploreSessions = 120;
constexpr size_t kDrillSessions = 3;
constexpr size_t kChurnSessions = 20;
/// Sessions sent both in-process and over TCP for the net/api metrics.
constexpr size_t kWireSessions = 40;

/// One replayed epoch: the structures a Snapshot holds, built or loaded by
/// the replay itself. Members are declared so the store outlives the
/// structures that point into it.
struct Layers {
  SedaOptions options;
  std::shared_ptr<const seda::persist::MappedImage> image;
  std::unique_ptr<seda::store::DocumentStore> store;
  std::unique_ptr<seda::graph::DataGraph> graph;
  std::unique_ptr<seda::text::InvertedIndex> index;
  std::unique_ptr<seda::dataguide::DataguideCollection> guides;
  std::unique_ptr<seda::column::ColumnStore> columns;
};

std::string LayersDigest(const Layers& layers) {
  std::string out;
  out += "docs=" + std::to_string(layers.store->DocumentCount());
  out += " nodes=" + std::to_string(layers.store->TotalNodeCount());
  out += " paths=" + std::to_string(layers.store->paths().size());
  out += " edges=" + std::to_string(layers.graph->EdgeCount());
  out += " terms=" + std::to_string(layers.index->TermCount());
  out += " indexed=" + std::to_string(layers.index->IndexedNodeCount());
  out += " guides=" + std::to_string(layers.guides->size());
  out += " merges=" + std::to_string(layers.guides->build_stats().merges);
  out += " links=" + std::to_string(layers.guides->LinkCount());
  out += " columns=" + std::to_string(layers.columns->size());
  return out;
}

/// Per-request counters, keyed by metric name.
using Counters = std::map<std::string, double>;

/// A replayed request: its class decides which metrics summarize it.
struct Request {
  std::string kind;
  Counters counters;
};

/// What one replayed session answered, for the comparison with the
/// untraced Session.
struct SessionAnswers {
  std::vector<std::string> parts;
  std::vector<double> search_ms;  ///< search + refine wall time
};

class TracedRun {
 public:
  explicit TracedRun(const RunConfig& config)
      : config_(config),
        pool_(MakeQueryPool(config.seed, config.workload)),
        image_(config.workdir + "/perfbench_traced.img"),
        replay_image_(config.workdir + "/perfbench_replayed.img") {
    restarts_ = std::max(2, config.seconds / 5);
    commits_ = std::max(2, config.seconds / 4);
    if (Threads().query_threads > 1) {
      query_pool_ = std::make_unique<seda::ThreadPool>(Threads().query_threads - 1);
    }
  }

  RunResult Run();

 private:
  // --- Replayed pipelines (spans around each layer call) ----------------
  void BeginRequest(const std::string& kind) {
    requests_.push_back({kind, {}});
    recorder_.SetRequest(requests_.size() - 1);
  }
  Counters& counters() { return requests_.back().counters; }

  std::vector<std::unique_ptr<seda::xml::Document>> Parse(const std::vector<XmlDoc>& docs,
                                                          seda::ThreadPool* pool);
  /// The transient pool Seda creates per commit and per open.
  std::unique_ptr<seda::ThreadPool> IngestPool(const char* span);
  std::unique_ptr<Layers> Commit(const Layers* base, seda::store::DocumentStore* staging,
                                 const std::vector<XmlDoc>& docs);
  void Save(const Layers& layers, const std::string& path);
  std::unique_ptr<Layers> Open(const std::string& path);
  SearchResponse Search(const Layers& layers, const seda::query::Query& query);
  SessionAnswers ReplaySession(const Layers& layers, const SessionPlan& plan,
                               const std::string& kind);
  SessionAnswers SessionUntraced(const seda::core::Seda& seda, const SessionPlan& plan);
  std::string ColdQueryOne(const Layers& layers);

  // --- Orchestration ----------------------------------------------------
  void Compare(const SessionAnswers& traced, const SessionAnswers& untraced,
               const std::string& what);
  /// The queries the set-up pass warms, as in the untraced run.
  std::vector<size_t> WarmedQueries() const {
    if (config_.workload == Workload::kColdEpochs) {
      return CheckedQueries(config_.seed, pool_.queries.size());
    }
    std::vector<size_t> queries;
    for (size_t q = 0; q < pool_.queries.size(); ++q) queries.push_back(q);
    return queries;
  }
  void WarmBoth(const Layers& layers, const seda::core::Seda& seda);
  void TcpAnswers(seda::core::Seda* seda);
  void WireMetrics(seda::core::Seda* seda);
  void Report(RunResult* result);
  void WriteSpans() const;

  double SpanMetric(const std::string& span, const std::set<std::string>& kinds) const;
  double SpanDurationMetric(const std::string& span,
                            const std::set<std::string>& kinds) const;
  double CounterMetric(const std::string& name, const std::set<std::string>& kinds) const;
  double CounterSum(const std::string& name, const std::set<std::string>& kinds) const;

  RunConfig config_;
  QueryPool pool_;
  std::string image_;
  std::string replay_image_;
  int restarts_ = 2;
  int commits_ = 2;
  std::unique_ptr<seda::ThreadPool> query_pool_;
  seda::cube::Catalog catalog_;
  Checks checks_;
  SpanRecorder recorder_;
  std::vector<Request> requests_;
  std::vector<double> traced_search_ms_, untraced_search_ms_;
  std::vector<double> commit_other_ms_;
  std::vector<double> seda_commit_ms_;  ///< untraced Seda::Commit, for reference
  Counters wire_;
  std::vector<double> self_ms_;  ///< self time per span, computed at report
  Digest answers_;
};

std::unique_ptr<seda::ThreadPool> TracedRun::IngestPool(const char* span_name) {
  ScopedSpan span(&recorder_, span_name);
  const size_t threads = Threads().ingest_threads;
  return threads > 1 ? std::make_unique<seda::ThreadPool>(threads - 1) : nullptr;
}

std::vector<std::unique_ptr<seda::xml::Document>> TracedRun::Parse(
    const std::vector<XmlDoc>& docs, seda::ThreadPool* pool) {
  // Seda::IngestPending: parse in parallel, append in queue order.
  ScopedSpan span(&recorder_, "xml.parse");
  std::vector<std::unique_ptr<seda::xml::Document>> parsed(docs.size());
  std::vector<seda::Status> statuses(docs.size());
  seda::RunParallel(pool, docs.size(), [&](size_t i) {
    auto result = seda::xml::Parser::Parse(docs[i].xml, docs[i].name);
    if (result.ok()) {
      parsed[i] = std::move(result).value();
    } else {
      statuses[i] = result.status();
    }
  });
  for (const seda::Status& status : statuses) {
    checks_.Expect(status.ok(), "replay_parse", status.ToString());
  }
  return parsed;
}

// Seda::CommitInternal + Snapshot::Build, stage by stage. `base` null is a
// cold build (Finalize); otherwise the incremental stages extend it.
std::unique_ptr<Layers> TracedRun::Commit(const Layers* base,
                                          seda::store::DocumentStore* staging,
                                          const std::vector<XmlDoc>& docs) {
  ScopedSpan commit(&recorder_, "core.commit");
  auto layers = std::make_unique<Layers>();
  layers->options = ServingOptions();
  const SedaOptions& options = layers->options;
  std::unique_ptr<seda::ThreadPool> pool = IngestPool("core.commit_pool");
  {
    auto parsed = Parse(docs, pool.get());
    ScopedSpan span(&recorder_, "store.add");
    for (auto& doc : parsed) staging->AddDocument(std::move(doc));
  }
  {
    ScopedSpan span(&recorder_, "store.clone");
    layers->store = staging->Clone();
  }
  {
    ScopedSpan span(&recorder_, "graph.link_resolution");
    layers->graph = std::make_unique<seda::graph::DataGraph>(layers->store.get());
    layers->graph->ResolveLinks(options.resolve_idrefs, options.resolve_xlinks,
                                pool.get());
    for (const SedaOptions::ValueEdge& edge : options.value_edges) {
      layers->graph->AddValueBasedEdges(edge.pk_path, edge.fk_path, edge.label);
    }
  }
  {
    ScopedSpan span(&recorder_, "graph.csr_build");
    layers->graph->BuildCsr();
  }
  const auto base_docs = static_cast<seda::store::DocId>(
      base != nullptr ? base->store->DocumentCount() : 0);
  {
    ScopedSpan span(&recorder_, base != nullptr ? "text.index_extend" : "text.index_build");
    layers->index = base != nullptr
                        ? std::make_unique<seda::text::InvertedIndex>(
                              *base->index, layers->store.get(), base_docs, pool.get())
                        : std::make_unique<seda::text::InvertedIndex>(
                              layers->store.get(), pool.get());
  }
  {
    ScopedSpan span(&recorder_, base != nullptr ? "dataguide.extend" : "dataguide.build");
    seda::dataguide::DataguideCollection::Options dg_options;
    dg_options.overlap_threshold = options.dataguide_overlap_threshold;
    dg_options.pool = pool.get();
    layers->guides = std::make_unique<seda::dataguide::DataguideCollection>(
        base != nullptr
            ? seda::dataguide::DataguideCollection::Extend(*base->guides,
                                                           *layers->store, dg_options)
            : seda::dataguide::DataguideCollection::Build(*layers->store, dg_options));
    ScopedSpan links(&recorder_, "dataguide.attach_links");
    layers->guides->AddLinksFromGraph(*layers->graph);
  }
  {
    ScopedSpan span(&recorder_, "column.build");
    layers->columns = seda::column::ColumnStore::Build(*layers->store, options.columns);
  }
  counters()["graph.edges"] = static_cast<double>(layers->graph->EdgeCount());
  return layers;
}

// Snapshot::Save over the replayed structures.
void TracedRun::Save(const Layers& layers, const std::string& path) {
  ScopedSpan span(&recorder_, "persist.save");
  seda::persist::ImageWriter writer;
  seda::Status status = writer.Open(path);
  writer.BeginSection(seda::persist::SectionId::kOptions);
  seda::core::WriteSedaOptions(&writer, layers.options);
  if (status.ok()) status = writer.EndSection();
  if (status.ok()) status = layers.store->SaveTo(&writer);
  if (status.ok()) status = layers.graph->SaveTo(&writer);
  if (status.ok()) status = layers.index->SaveTo(&writer);
  if (status.ok()) status = layers.guides->SaveTo(&writer);
  if (status.ok() && layers.options.columns.enabled) {
    writer.BeginSection(seda::persist::SectionId::kColumns);
    status = layers.columns->SaveTo(&writer);
    if (status.ok()) status = writer.EndSection();
  }
  if (status.ok()) status = writer.Finish(/*epoch=*/1);
  checks_.Expect(status.ok(), "replay_save", status.ToString());
}

// Seda::Open + Snapshot::Load, stage by stage.
std::unique_ptr<Layers> TracedRun::Open(const std::string& path) {
  ScopedSpan open(&recorder_, "core.open");
  auto layers = std::make_unique<Layers>();
  auto fail = [&](const seda::Status& status) {
    checks_.Expect(false, "replay_open", status.ToString());
    return nullptr;
  };
  {
    ScopedSpan span(&recorder_, "persist.map");
    auto image = seda::persist::MappedImage::Open(path);
    if (!image.ok()) return fail(image.status());
    layers->image = std::move(image).value();
    auto options = seda::core::ReadSedaOptions(*layers->image);
    if (!options.ok()) return fail(options.status());
    layers->options = std::move(options).value();
  }
  std::unique_ptr<seda::ThreadPool> pool = IngestPool("core.open_pool");
  {
    ScopedSpan span(&recorder_, "store.load");
    auto store = seda::store::DocumentStore::LoadFrom(*layers->image, pool.get());
    if (!store.ok()) return fail(store.status());
    layers->store = std::move(store).value();
  }
  {
    ScopedSpan span(&recorder_, "graph.load");
    auto graph = seda::graph::DataGraph::LoadFrom(layers->image, layers->store.get());
    if (!graph.ok()) return fail(graph.status());
    layers->graph = std::move(graph).value();
  }
  {
    ScopedSpan span(&recorder_, "text.load");
    auto index = seda::text::InvertedIndex::LoadFrom(layers->image, layers->store.get());
    if (!index.ok()) return fail(index.status());
    layers->index = std::move(index).value();
  }
  {
    ScopedSpan span(&recorder_, "dataguide.load");
    auto guides =
        seda::dataguide::DataguideCollection::LoadFrom(*layers->image, layers->store.get());
    if (!guides.ok()) return fail(guides.status());
    layers->guides = std::make_unique<seda::dataguide::DataguideCollection>(
        std::move(guides).value());
  }
  {
    ScopedSpan span(&recorder_, "column.load");
    auto columns = seda::column::ColumnStore::LoadFrom(layers->image, *layers->store);
    if (!columns.ok()) return fail(columns.status());
    layers->columns = std::move(columns).value();
  }
  return layers;
}

// Snapshot::Search, stage by stage.
SearchResponse TracedRun::Search(const Layers& layers, const seda::query::Query& query) {
  ScopedSpan search(&recorder_, "core.search");
  SearchResponse response;
  const seda::topk::TopKOptions& topk = layers.options.topk;
  seda::exec::CandidateSet candidates;
  {
    ScopedSpan span(&recorder_, "exec.candidates");
    candidates = seda::exec::BuildCandidates(*layers.index, query,
                                             topk.max_candidates_per_term);
  }
  {
    ScopedSpan span(&recorder_, "topk.scan");
    seda::topk::TopKSearcher searcher(layers.index.get(), layers.graph.get(),
                                      query_pool_.get());
    auto result = searcher.Search(query, topk, candidates, &response.stats);
    checks_.Expect(result.ok(), "replay_search", result.status().ToString());
    if (result.ok()) response.topk = std::move(result).value();
  }
  {
    ScopedSpan span(&recorder_, "summary.context");
    seda::summary::ContextSummaryGenerator generator(layers.index.get());
    std::vector<const std::vector<seda::store::PathId>*> resolved;
    for (const seda::exec::TermCandidates& term : candidates.terms) {
      resolved.push_back(term.context_restricted ? &term.context_paths : nullptr);
    }
    response.contexts = generator.Generate(query, resolved);
  }
  const uint64_t hits = layers.guides->cache_hits();
  const uint64_t misses = layers.guides->cache_misses();
  {
    ScopedSpan span(&recorder_, "summary.connection");
    seda::summary::ConnectionSummaryGenerator generator(layers.guides.get(),
                                                        layers.graph.get());
    response.connections = generator.Generate(response.topk);
  }
  const seda::topk::SearchStats& stats = response.stats;
  Counters& c = counters();
  c["exec.candidates_total"] += static_cast<double>(candidates.CandidatesTotal());
  c["exec.postings_advanced"] += static_cast<double>(stats.postings_advanced);
  c["exec.docs_skipped"] += static_cast<double>(stats.docs_skipped);
  c["topk.docs_scored"] += static_cast<double>(stats.docs_scored);
  c["topk.tuples_scored"] += static_cast<double>(stats.tuples_scored);
  c["topk.tuples_trimmed"] += static_cast<double>(stats.tuples_trimmed);
  c["topk.heap_evictions"] += static_cast<double>(stats.heap_evictions);
  c["topk.returned"] += static_cast<double>(response.topk.size());
  c["graph.bfs_expansions"] += static_cast<double>(stats.bfs_expansions);
  c["graph.intersection_probes"] += static_cast<double>(stats.intersection_probes);
  c["graph.sketch_hits"] += static_cast<double>(stats.sketch_hits);
  c["graph.hub_links_skipped"] += static_cast<double>(stats.hub_links_skipped);
  c["dataguide.cache_hits"] += static_cast<double>(layers.guides->cache_hits() - hits);
  c["dataguide.cache_misses"] += static_cast<double>(layers.guides->cache_misses() - misses);
  c["summary.connections"] += static_cast<double>(response.connections.entries.size());
  c["summary.false_positives"] +=
      static_cast<double>(response.connections.FalsePositiveCount());
  return response;
}

std::string TracedRun::ColdQueryOne(const Layers& layers) {
  BeginRequest("cold_search");
  seda::Result<seda::query::Query> query = seda::Status::Internal("unparsed");
  {
    ScopedSpan span(&recorder_, "query.parse");
    query = seda::query::ParseQuery(QueryOne());
  }
  SearchResponse response = Search(layers, query.value());
  return Fingerprint(response, *layers.store);
}

namespace {

/// The session's context picks: the top context per term not already taken
/// by an earlier term (RunSession's rule), or the broad drill-down paths.
std::vector<std::string> PickPaths(Workload workload, const SearchResponse& response) {
  if (workload == Workload::kOlapDrill) return {kNamePath, kTradePath, kPctPath};
  std::vector<std::string> paths;
  for (const auto& bucket : response.contexts.buckets) {
    for (const auto& entry : bucket.entries) {
      if (std::find(paths.begin(), paths.end(), entry.path_text) == paths.end()) {
        paths.push_back(entry.path_text);
        break;
      }
    }
  }
  return paths;
}

/// The top connection the twig join can execute (at most one link step).
std::vector<seda::twig::ChosenConnection> PickConnection(
    Workload workload, const SearchResponse& response) {
  if (workload == Workload::kOlapDrill) return {};
  for (const seda::summary::ConnectionEntry& entry : response.connections.entries) {
    size_t links = 0;
    for (const auto& step : entry.connection.steps) {
      links += step.move == seda::dataguide::Connection::Move::kLink ? 1 : 0;
    }
    if (links > 1) continue;
    auto chosen = seda::twig::ChosenConnection::FromDataguideConnection(
        entry.term_a, entry.term_b, entry.connection);
    if (chosen.ok()) return {std::move(chosen).value()};
    return {};
  }
  return {};
}

seda::cube::CubeBuilder::Options CubeOptions(const CubeVariant& variant) {
  seda::cube::CubeBuilder::Options options;
  options.add_dimensions = variant.add_dims;
  options.remove_dimensions = variant.remove_dims;
  return options;
}

seda::olap::AggFn ParseFn(const std::string& name) {
  using seda::olap::AggFn;
  if (name == "count") return AggFn::kCount;
  if (name == "avg") return AggFn::kAvg;
  if (name == "min") return AggFn::kMin;
  if (name == "max") return AggFn::kMax;
  return AggFn::kSum;
}

std::string CompleteText(const seda::twig::CompleteResult& result) {
  return "tuples=" + std::to_string(result.tuples.size()) +
         " twigs=" + std::to_string(result.twig_count) +
         " joins=" + std::to_string(result.cross_twig_joins);
}

}  // namespace

// One Fig. 6 session replayed through the layers: the same decisions as
// RunSession, with one replay request per session step.
SessionAnswers TracedRun::ReplaySession(const Layers& layers, const SessionPlan& plan,
                                        const std::string& kind) {
  SessionAnswers answers;
  BeginRequest(kind + "_search");
  Clock::time_point start = Clock::now();
  seda::Result<seda::query::Query> query = seda::Status::Internal("unparsed");
  {
    ScopedSpan span(&recorder_, "query.parse");
    query = seda::query::ParseQuery(pool_.queries[plan.query]);
  }
  SearchResponse searched = Search(layers, query.value());
  answers.search_ms.push_back(MsSince(start));
  answers.parts.push_back(Fingerprint(searched, *layers.store));

  const std::vector<std::string> paths = PickPaths(config_.workload, searched);
  if (paths.size() != query.value().terms.size()) return answers;
  std::vector<std::vector<std::string>> picks;
  for (const std::string& path : paths) picks.push_back({path});
  BeginRequest(kind + "_search");
  start = Clock::now();
  auto refined_query = seda::core::Snapshot::RefineContexts(query.value(), picks);
  SearchResponse refined = Search(layers, refined_query.value());
  answers.search_ms.push_back(MsSince(start));
  answers.parts.push_back(Fingerprint(refined, *layers.store));

  BeginRequest(kind + "_complete");
  seda::Result<seda::twig::CompleteResult> result = seda::Status::Internal("unrun");
  {
    ScopedSpan span(&recorder_, "twig.execute");
    std::vector<seda::twig::TermBinding> bindings;
    for (size_t i = 0; i < paths.size(); ++i) {
      bindings.push_back({paths[i], refined_query.value().terms[i].search.get()});
    }
    seda::twig::CompleteResultGenerator generator(layers.index.get(), layers.graph.get());
    result = generator.Execute(bindings, PickConnection(config_.workload, refined));
  }
  checks_.Expect(result.ok(), "replay_complete", result.status().ToString());
  if (!result.ok()) return answers;
  counters()["twig.result_tuples"] = static_cast<double>(result.value().tuples.size());
  answers.parts.push_back(CompleteText(result.value()));

  if (std::find(paths.begin(), paths.end(), kPctPath) == paths.end() ||
      result.value().tuples.empty()) {
    return answers;
  }
  for (size_t index : plan.cubes) {
    const CubeVariant& variant = CubeVariants()[index];
    BeginRequest(kind + "_cube");
    seda::Result<seda::cube::StarSchema> schema = seda::Status::Internal("unrun");
    {
      ScopedSpan span(&recorder_, "cube.build");
      seda::cube::CubeBuilder cubes(layers.store.get(), &catalog_, layers.columns.get());
      schema = cubes.Build(result.value(), CubeOptions(variant));
    }
    if (!schema.ok() || schema.value().fact_tables.empty()) {
      checks_.Expect(false, "replay_cube", schema.status().ToString());
      return answers;
    }
    counters()["column.rows_scanned"] = static_cast<double>(schema.value().column_rows_scanned);
    counters()["column.fallback_docs"] =
        static_cast<double>(schema.value().column_fallback_docs);
    counters()["cube.result_tuples"] = static_cast<double>(result.value().tuples.size());
    seda::Result<seda::olap::Cube> cube = seda::Status::Internal("unrun");
    {
      ScopedSpan span(&recorder_, "olap.load");
      cube = seda::olap::Cube::FromFactTable(schema.value().fact_tables.front());
    }
    seda::Result<seda::olap::Cuboid> cuboid = seda::Status::Internal("unrun");
    if (cube.ok()) {
      ScopedSpan span(&recorder_, "olap.aggregate");
      cuboid = cube.value().Aggregate(variant.group_dims, ParseFn(variant.agg_fn), kMeasure);
    }
    checks_.Expect(cuboid.ok(), "replay_cube", cuboid.status().ToString());
    answers.parts.push_back(cuboid.ok() ? CellsText(cuboid.value()) : "");
  }
  return answers;
}

// The same session through a core::Session, untraced.
SessionAnswers TracedRun::SessionUntraced(const seda::core::Seda& seda,
                                          const SessionPlan& plan) {
  SessionAnswers answers;
  auto session = seda.NewSession();
  if (!session.ok()) return answers;
  seda::core::Session& s = session.value();
  Clock::time_point start = Clock::now();
  auto searched = s.Search(pool_.queries[plan.query]);
  answers.search_ms.push_back(MsSince(start));
  if (!searched.ok()) return answers;
  const auto& store = s.snapshot().store();
  answers.parts.push_back(Fingerprint(searched.value(), store));
  const std::vector<std::string> paths = PickPaths(config_.workload, searched.value());
  if (paths.size() != s.current_query().terms.size()) return answers;
  std::vector<std::vector<std::string>> picks;
  for (const std::string& path : paths) picks.push_back({path});
  start = Clock::now();
  auto refined = s.RefineContexts(picks);
  answers.search_ms.push_back(MsSince(start));
  if (!refined.ok()) return answers;
  answers.parts.push_back(Fingerprint(refined.value(), store));
  auto result = s.CompleteResults(paths, PickConnection(config_.workload, refined.value()));
  if (!result.ok()) return answers;
  answers.parts.push_back(CompleteText(result.value()));
  if (std::find(paths.begin(), paths.end(), kPctPath) == paths.end() ||
      result.value().tuples.empty()) {
    return answers;
  }
  for (size_t index : plan.cubes) {
    const CubeVariant& variant = CubeVariants()[index];
    auto schema = s.BuildCube(result.value(), CubeOptions(variant));
    if (!schema.ok()) return answers;
    auto cube = s.ToOlapCube(schema.value());
    if (!cube.ok()) return answers;
    auto cuboid = cube.value().Aggregate(variant.group_dims, ParseFn(variant.agg_fn), kMeasure);
    answers.parts.push_back(cuboid.ok() ? CellsText(cuboid.value()) : "");
  }
  return answers;
}

void TracedRun::Compare(const SessionAnswers& traced, const SessionAnswers& untraced,
                        const std::string& what) {
  checks_.Expect(traced.parts == untraced.parts, "replay_equals_untraced", what);
}

// The set-up pass on both sides: every distinct query once.
void TracedRun::WarmBoth(const Layers& layers, const seda::core::Seda& seda) {
  for (size_t q : WarmedQueries()) {
    SessionPlan plan;
    plan.query = q;
    plan.cubes = {q % CubeVariants().size()};
    if (config_.workload == Workload::kOlapDrill) {
      plan.cubes.clear();
      for (size_t v = 0; v < CubeVariants().size(); ++v) plan.cubes.push_back(v);
    }
    SessionAnswers traced = ReplaySession(layers, plan, "warmup");
    Compare(traced, SessionUntraced(seda, plan), "warm-up query " + std::to_string(q));
  }
}

// net/api: the workload's first sessions, each sent through the in-process
// service and then over TCP, paired request by request. The in-process
// Handle time minus its service-measured stats.elapsed_ms is the wire
// decode and encode of that request (api.codec_ms). The TCP request's
// Handle time is its own elapsed_ms plus its twin's codec time, which keeps
// run-to-run variation of the method itself out of the difference; the
// round trip minus that Handle time is the transport's share.
void TracedRun::WireMetrics(seda::core::Seda* seda) {
  seda::api::SedaService service(seda);
  seda::net::ServerOptions options;
  options.io_threads = Threads().io_threads;
  options.worker_threads = Threads().worker_threads;
  seda::net::Server server(&service, options);
  seda::Status started = server.Start();
  checks_.Expect(started.ok(), "replay_serve", started.ToString());
  if (!started.ok()) return;
  seda::net::BlockingClient client;
  seda::Status connected = client.Connect("127.0.0.1", server.port(), 60000);
  checks_.Expect(connected.ok(), "replay_serve", connected.ToString());
  if (!connected.ok()) {
    server.Stop();
    return;
  }
  // The service-measured elapsed_ms of a response; -1 when it carries no
  // stats (create_session, close_session).
  auto elapsed_of = [](const std::string& response) {
    auto parsed = seda::api::Json::Parse(response);
    const seda::api::Json* stats = parsed.ok() ? parsed.value().Find("stats") : nullptr;
    const seda::api::Json* ms = stats != nullptr ? stats->Find("elapsed_ms") : nullptr;
    return ms != nullptr ? ms->AsDouble() : -1.0;
  };
  // Per request of the current session: the in-process Handle time and
  // elapsed_ms, then the TCP round trip, elapsed_ms and response size.
  std::vector<double> handle, elapsed, round_trip, tcp_elapsed, kb;
  CallFn in_process = [&](const std::string& envelope) -> seda::Result<std::string> {
    const Clock::time_point start = Clock::now();
    std::string response = service.Handle(envelope);
    handle.push_back(MsSince(start));
    elapsed.push_back(elapsed_of(response));
    return response;
  };
  CallFn tcp = [&](const std::string& envelope) -> seda::Result<std::string> {
    const Clock::time_point sent = Clock::now();
    auto response = client.Call(envelope);
    round_trip.push_back(MsSince(sent));
    tcp_elapsed.push_back(response.ok() ? elapsed_of(response.value()) : -1.0);
    kb.push_back(response.ok() ? static_cast<double>(response.value().size()) / 1024.0 : 0);
    return response;
  };

  std::vector<double> overhead_ms, codec_ms, response_kb, handle_ms;
  const std::vector<SessionPlan> log =
      RequestLog(config_.seed, config_.workload, 0, pool_.draws, kWireSessions);
  const size_t sessions = config_.workload == Workload::kOlapDrill ? 4 : log.size();
  for (size_t i = 0; i < sessions; ++i) {
    handle.clear();
    elapsed.clear();
    round_trip.clear();
    tcp_elapsed.clear();
    kb.clear();
    std::vector<RequestSample> local, remote;
    SessionOutcome a = RunSession(in_process, config_.workload, pool_.queries, log[i], true,
                                  &local, nullptr);
    SessionOutcome b = RunSession(tcp, config_.workload, pool_.queries, log[i], true,
                                  &remote, nullptr);
    const bool same = a.ok && b.ok && a.answers == b.answers &&
                      handle.size() == round_trip.size();
    checks_.Expect(same, "tcp_equals_inprocess", "session " + std::to_string(i));
    if (!same) continue;
    // Requests that carry stats: search, refine, complete and cube.
    for (size_t r = 0; r < handle.size(); ++r) {
      if (elapsed[r] < 0 || tcp_elapsed[r] < 0) continue;
      const double codec = handle[r] - elapsed[r];
      overhead_ms.push_back(round_trip[r] - (tcp_elapsed[r] + codec));
      codec_ms.push_back(codec);
      handle_ms.push_back(handle[r]);
      response_kb.push_back(kb[r]);
    }
  }

  wire_["net.overhead_ms"] = Median(overhead_ms);
  wire_["api.handle_ms"] = Median(handle_ms);
  wire_["api.codec_ms"] = Median(codec_ms);
  wire_["api.response_kb"] = Median(response_kb);
  wire_["net.requests_shed"] = static_cast<double>(server.stats().requests_shed.load());
  wire_["net.bytes_written"] = static_cast<double>(server.stats().bytes_written.load());
  server.Stop();
}

// The untraced run's set-up pass over TCP on the set-up epoch: the same
// answers digest the untraced run prints for this seed.
void TracedRun::TcpAnswers(seda::core::Seda* seda) {
  seda::api::SedaService service(seda);
  seda::net::ServerOptions options;
  options.io_threads = Threads().io_threads;
  options.worker_threads = Threads().worker_threads;
  seda::net::Server server(&service, options);
  seda::net::BlockingClient client;
  seda::Status status = server.Start();
  if (status.ok()) status = client.Connect("127.0.0.1", server.port(), 60000);
  checks_.Expect(status.ok(), "replay_serve", status.ToString());
  if (!status.ok()) {
    server.Stop();
    return;
  }
  CallFn tcp = TcpCall(&client);
  std::vector<RequestSample> ignored;
  if (config_.workload == Workload::kOlapDrill) {
    SessionPlan plan;
    for (size_t v = 0; v < CubeVariants().size(); ++v) plan.cubes.push_back(v);
    SessionOutcome outcome = RunSession(tcp, config_.workload, pool_.queries, plan, true,
                                        &ignored, nullptr);
    for (uint64_t answer : outcome.answers) answers_.Add(std::to_string(answer));
    for (const std::string& cells : outcome.cube_cells) answers_.Add(cells);
  } else {
    for (size_t q : WarmedQueries()) {
      SessionPlan plan;
      plan.query = q;
      plan.cubes = {q % CubeVariants().size()};
      SessionOutcome outcome = RunSession(tcp, config_.workload, pool_.queries, plan, true,
                                          &ignored, nullptr);
      for (uint64_t answer : outcome.answers) answers_.Add(std::to_string(answer));
    }
  }
  server.Stop();
}

double TracedRun::SpanMetric(const std::string& span,
                             const std::set<std::string>& kinds) const {
  const std::vector<double>& self = self_ms_;
  std::map<uint64_t, double> per_request;
  const std::vector<Span>& spans = recorder_.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != span || kinds.count(requests_[spans[i].request].kind) == 0) continue;
    per_request[spans[i].request] += self[i];
  }
  std::vector<double> values;
  for (const auto& [request, ms] : per_request) values.push_back(ms);
  return Median(values);
}

double TracedRun::SpanDurationMetric(const std::string& span,
                                     const std::set<std::string>& kinds) const {
  std::vector<double> values;
  for (const Span& candidate : recorder_.spans()) {
    if (candidate.name == span && kinds.count(requests_[candidate.request].kind) > 0) {
      values.push_back(candidate.DurationMs());
    }
  }
  return Median(values);
}

double TracedRun::CounterMetric(const std::string& name,
                                const std::set<std::string>& kinds) const {
  std::vector<double> values;
  for (const Request& request : requests_) {
    if (kinds.count(request.kind) == 0) continue;
    auto it = request.counters.find(name);
    if (it != request.counters.end()) values.push_back(it->second);
  }
  return Median(values);
}

double TracedRun::CounterSum(const std::string& name,
                             const std::set<std::string>& kinds) const {
  double total = 0;
  for (const Request& request : requests_) {
    if (kinds.count(request.kind) == 0) continue;
    auto it = request.counters.find(name);
    if (it != request.counters.end()) total += it->second;
  }
  return total;
}

void TracedRun::WriteSpans() const {
  const std::string path = config_.workdir + "/perfbench_spans_" +
                           WorkloadName(config_.workload) + ".tsv";
  std::ofstream out(path);
  out << "request\tkind\tspan\tparent\tname\tstart_ns\tend_ns\tself_ms\n";
  const std::vector<double>& self = self_ms_;
  const std::vector<Span>& spans = recorder_.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << spans[i].request << '\t' << requests_[spans[i].request].kind << '\t' << i
        << '\t' << spans[i].parent << '\t' << spans[i].name << '\t' << spans[i].start_ns
        << '\t' << spans[i].end_ns << '\t' << self[i] << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

void TracedRun::Report(RunResult* result) {
  self_ms_ = SelfTimesMs(recorder_.spans());
  // Query-side layers are summarized over the workload's own requests:
  // warm sessions, except cold_epochs, whose subject is the cold Query 1.
  const std::string body = config_.workload == Workload::kColdEpochs ? "churn" : "timed";
  const std::set<std::string> search =
      config_.workload == Workload::kColdEpochs ? std::set<std::string>{"cold_search"}
                                                : std::set<std::string>{body + "_search"};
  const std::set<std::string> complete = {body + "_complete", "warmup_complete"};
  const std::set<std::string> cube = {body + "_cube", "warmup_cube"};
  const std::set<std::string> build = {"build"}, commit = {"commit"}, open = {"open"};
  const std::set<std::string> cold = {"cold_search"};

  const double scored = CounterSum("topk.tuples_scored", search);
  const double hits = CounterSum("dataguide.cache_hits", search);
  const double misses = CounterSum("dataguide.cache_misses", search);
  const double connections = CounterSum("summary.connections", search);
  const double cube_tuples = CounterSum("cube.result_tuples", cube);
  // Share of each cold Query 1 (its core.search span) spent in the
  // connection summary's own time.
  std::vector<double> cold_shares;
  for (size_t i = 0; i < recorder_.spans().size(); ++i) {
    const Span& span = recorder_.spans()[i];
    if (span.name != "summary.connection" || span.parent < 0 ||
        requests_[span.request].kind != "cold_search") {
      continue;
    }
    const double total = recorder_.spans()[static_cast<size_t>(span.parent)].DurationMs();
    if (total > 0) cold_shares.push_back(self_ms_[i] / total);
  }
  const double traced_p50 = Median(traced_search_ms_);
  const double untraced_p50 = Median(untraced_search_ms_);
  std::printf("tracing overhead: search+refine p50 %.3f ms traced vs %.3f ms untraced "
              "(%zu requests)\n",
              traced_p50, untraced_p50, traced_search_ms_.size());
  std::printf("cold Query 1: %.3f ms (median of %zu), %.1f%% in summary.connection\n",
              SpanDurationMetric("core.search", cold), cold_shares.size(),
              100.0 * Median(cold_shares));
  std::printf("untraced Seda::Commit of the replayed deltas: p50 %.3f ms (%zu commits)\n",
              Median(seda_commit_ms_), seda_commit_ms_.size());

  const std::vector<Metric> metrics = {
      {"net.overhead_ms", wire_["net.overhead_ms"], "ms"},
      {"net.requests_shed", wire_["net.requests_shed"], "count"},
      {"net.bytes_written", wire_["net.bytes_written"], "bytes"},
      {"api.handle_ms", wire_["api.handle_ms"], "ms"},
      {"api.codec_ms", wire_["api.codec_ms"], "ms"},
      {"api.response_kb", wire_["api.response_kb"], "KiB"},
      {"query.parse_us", SpanMetric("query.parse", search) * 1000.0, "us"},
      {"exec.candidates_ms", SpanMetric("exec.candidates", search), "ms"},
      {"exec.candidates_total", CounterMetric("exec.candidates_total", search), "count"},
      {"exec.postings_advanced", CounterMetric("exec.postings_advanced", search), "count"},
      {"exec.docs_skipped", CounterMetric("exec.docs_skipped", search), "count"},
      {"topk.scan_ms", SpanMetric("topk.scan", search), "ms"},
      {"topk.docs_scored", CounterMetric("topk.docs_scored", search), "count"},
      {"topk.tuples_scored", CounterMetric("topk.tuples_scored", search), "count"},
      {"topk.tuples_trimmed", CounterMetric("topk.tuples_trimmed", search), "count"},
      {"topk.heap_evictions", CounterMetric("topk.heap_evictions", search), "count"},
      {"topk.kept_ratio", scored > 0 ? CounterSum("topk.returned", search) / scored : 0,
       "ratio"},
      {"graph.bfs_expansions", CounterMetric("graph.bfs_expansions", search), "count"},
      {"graph.intersection_probes", CounterMetric("graph.intersection_probes", search),
       "count"},
      {"graph.sketch_hits", CounterMetric("graph.sketch_hits", search), "count"},
      {"graph.hub_links_skipped", CounterMetric("graph.hub_links_skipped", search), "count"},
      {"graph.link_resolution_ms", SpanMetric("graph.link_resolution", commit), "ms"},
      {"graph.csr_build_ms", SpanMetric("graph.csr_build", commit), "ms"},
      {"graph.edges", CounterMetric("graph.edges", commit), "count"},
      {"graph.load_ms", SpanMetric("graph.load", open), "ms"},
      {"summary.context_ms", SpanMetric("summary.context", search), "ms"},
      {"summary.connection_ms", SpanMetric("summary.connection", search), "ms"},
      {"summary.cold_connection_share", Median(cold_shares), "ratio"},
      {"summary.false_positive_ratio",
       connections > 0 ? CounterSum("summary.false_positives", search) / connections : 0,
       "ratio"},
      {"dataguide.cache_hits", hits, "count"},
      {"dataguide.cache_misses", misses, "count"},
      {"dataguide.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
      {"dataguide.extend_ms", SpanMetric("dataguide.extend", commit), "ms"},
      {"dataguide.build_ms", SpanMetric("dataguide.build", build), "ms"},
      {"dataguide.load_ms", SpanMetric("dataguide.load", open), "ms"},
      {"twig.execute_ms", SpanMetric("twig.execute", complete), "ms"},
      {"twig.result_tuples", CounterMetric("twig.result_tuples", complete), "count"},
      {"cube.build_ms", SpanMetric("cube.build", cube), "ms"},
      {"column.rows_scanned", CounterMetric("column.rows_scanned", cube), "count"},
      {"column.fallback_docs", CounterMetric("column.fallback_docs", cube), "count"},
      {"column.hit_ratio",
       cube_tuples > 0 ? 1.0 - CounterSum("column.fallback_docs", cube) / cube_tuples : 0,
       "ratio"},
      {"olap.load_ms", SpanMetric("olap.load", cube), "ms"},
      {"olap.aggregate_ms", SpanMetric("olap.aggregate", cube), "ms"},
      {"column.build_ms", SpanMetric("column.build", commit), "ms"},
      {"column.load_ms", SpanMetric("column.load", open), "ms"},
      {"xml.parse_ms", SpanMetric("xml.parse", commit), "ms"},
      {"store.clone_ms", SpanMetric("store.clone", commit), "ms"},
      {"store.load_ms", SpanMetric("store.load", open), "ms"},
      {"text.index_extend_ms", SpanMetric("text.index_extend", commit), "ms"},
      {"text.index_build_ms", SpanMetric("text.index_build", build), "ms"},
      {"text.postings", CounterMetric("text.postings", build), "count"},
      {"text.load_ms", SpanMetric("text.load", open), "ms"},
      {"persist.map_ms", SpanMetric("persist.map", open), "ms"},
      {"persist.save_ms", SpanMetric("persist.save", build), "ms"},
      {"core.commit_other_ms", Median(commit_other_ms_), "ms"},
      {"trace.search_overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  for (const Metric& metric : metrics) {
    std::printf("%-32s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  result->metrics = metrics;
}

RunResult TracedRun::Run() {
  std::printf("traced run: workload %s, seed %llu, scale %.2f\n",
              WorkloadName(config_.workload), static_cast<unsigned long long>(config_.seed),
              config_.scale);
  DefineCatalog(&catalog_);
  const size_t deltas =
      config_.workload == Workload::kColdEpochs ? static_cast<size_t>(commits_) : 1;
  const Corpus corpus = MakeCorpus(config_.seed, config_.scale, deltas);

  // Cold build + save: Seda untraced, the replay traced; same image bytes.
  seda::core::Seda writer;
  for (const XmlDoc& doc : corpus.base) (void)writer.AddXml(doc.xml, doc.name);
  seda::Status finalized = writer.Finalize(ServingOptions());
  checks_.Expect(finalized.ok() && writer.Save(image_).ok(), "setup_finalize",
                 finalized.ToString());
  seda::store::DocumentStore build_staging;
  BeginRequest("build");
  std::unique_ptr<Layers> built = Commit(nullptr, &build_staging, corpus.base);
  {
    uint64_t postings = 0;
    for (const std::string& term : built->index->AllTerms()) {
      postings += built->index->Postings(term).size();
    }
    counters()["text.postings"] = static_cast<double>(postings);
  }
  Save(*built, replay_image_);
  {
    std::ifstream a(image_, std::ios::binary), b(replay_image_, std::ios::binary);
    std::stringstream bytes_a, bytes_b;
    bytes_a << a.rdbuf();
    bytes_b << b.rdbuf();
    checks_.Expect(bytes_a.str() == bytes_b.str(), "replay_image_equal",
                   "replayed build saved different image bytes");
  }

  // The commit probe on the built epoch, both sides.
  auto commit_both = [&](seda::core::Seda* seda, std::unique_ptr<Layers>* layers,
                         seda::store::DocumentStore* staging, const std::vector<XmlDoc>& docs) {
    for (const XmlDoc& doc : docs) (void)seda->AddXml(doc.xml, doc.name);
    const Clock::time_point start = Clock::now();
    auto committed = seda->Commit();
    const double seda_ms = MsSince(start);
    checks_.Expect(committed.ok(), "seda_commit", committed.status().ToString());
    BeginRequest("commit");
    const size_t first_span = recorder_.spans().size();
    *layers = Commit(layers->get(), staging, docs);
    // The replayed commit's wall time minus its pipeline stages: pool
    // set-up and teardown plus whatever runs between the stage calls.
    double stages_ms = 0;
    const std::vector<Span>& spans = recorder_.spans();
    for (size_t i = first_span + 1; i < spans.size(); ++i) {
      if (spans[i].parent == static_cast<int>(first_span) &&
          spans[i].name != "core.commit_pool") {
        stages_ms += spans[i].DurationMs();
      }
    }
    commit_other_ms_.push_back(spans[first_span].DurationMs() - stages_ms);
    seda_commit_ms_.push_back(seda_ms);
    checks_.Expect(LayersDigest(**layers) == EpochDigest(*seda->snapshot()),
                   "replay_commit_equal",
                   LayersDigest(**layers) + " vs " + EpochDigest(*seda->snapshot()));
  };
  commit_both(&writer, &built, &build_staging, corpus.deltas.front());
  built.reset();

  // Open: the replay opens the image first, and its first query is the cold
  // Query 1; the untraced instance opens the same image.
  BeginRequest("open");
  std::unique_ptr<Layers> layers = Open(image_);
  seda::core::Seda serving;
  seda::Status opened = serving.Open(image_);
  checks_.Expect(opened.ok() && layers != nullptr, "replay_open", opened.ToString());
  if (!opened.ok() || layers == nullptr) {
    checks_.PrintSummary();
    return RunResult{false, 0, 1, {}, ""};
  }
  DefineCatalog(serving.mutable_catalog());
  const std::string cold_answer = ColdQueryOne(*layers);
  {
    auto untraced = serving.Search(QueryOne());
    checks_.Expect(untraced.ok() && Fingerprint(untraced.value(), serving.snapshot()->store()) ==
                                        cold_answer,
                   "replay_equals_untraced", "cold Query 1");
  }
  WarmBoth(*layers, serving);
  TcpAnswers(&serving);

  // The workload body.
  auto replay_log = [&](const Layers& on, const seda::core::Seda& seda, size_t count,
                        const std::string& kind) {
    const std::vector<SessionPlan> log =
        RequestLog(config_.seed, config_.workload, 0, pool_.draws, count);
    for (size_t i = 0; i < log.size(); ++i) {
      SessionAnswers traced = ReplaySession(on, log[i], kind);
      SessionAnswers untraced = SessionUntraced(seda, log[i]);
      Compare(traced, untraced, kind + " session " + std::to_string(i));
      traced_search_ms_.insert(traced_search_ms_.end(), traced.search_ms.begin(),
                               traced.search_ms.end());
      untraced_search_ms_.insert(untraced_search_ms_.end(), untraced.search_ms.begin(),
                                 untraced.search_ms.end());
    }
  };
  if (config_.workload == Workload::kExploreWarm) {
    replay_log(*layers, serving, kExploreSessions, "timed");
  } else if (config_.workload == Workload::kOlapDrill) {
    replay_log(*layers, serving, kDrillSessions, "timed");
  } else {
    for (int r = 0; r < restarts_; ++r) {
      BeginRequest("open");
      std::unique_ptr<Layers> fresh = Open(image_);
      if (fresh == nullptr) break;
      checks_.Expect(ColdQueryOne(*fresh) == cold_answer, "replay_equals_untraced",
                     "restart cold Query 1");
    }
    // Seda::Open's staging store continues from the loaded epoch.
    std::unique_ptr<seda::store::DocumentStore> churn_staging = layers->store->Clone();
    for (int k = 0; k < commits_; ++k) {
      commit_both(&serving, &layers, churn_staging.get(),
                  corpus.deltas[static_cast<size_t>(k)]);
      const std::string traced = ColdQueryOne(*layers);
      auto untraced = serving.Search(QueryOne());
      checks_.Expect(untraced.ok() &&
                         Fingerprint(untraced.value(), serving.snapshot()->store()) == traced,
                     "replay_equals_untraced", "churn cold Query 1");
      replay_log(*layers, serving, kChurnSessions / static_cast<size_t>(commits_), "churn");
    }
  }
  layers.reset();

  WireMetrics(&serving);
  if (config_.workload == Workload::kColdEpochs) {
    answers_.Add(EpochDigest(*serving.snapshot()));
    seda::api::SedaService service(&serving);
    std::string response, failure, bytes;
    TimedCall(InProcessCall(&service), kSearch, SearchEnvelope(QueryOne()), &response,
              &failure);
    CanonicalBytes(kSearch, response, &bytes);
    answers_.Add(bytes);
  }

  RunResult result;
  Report(&result);
  WriteSpans();
  std::remove(image_.c_str());
  std::remove(replay_image_.c_str());
  result.answers_digest = answers_.Hex();
  std::printf("answers_digest %s\n", result.answers_digest.c_str());
  checks_.PrintSummary();
  result.correct = checks_.ok();
  result.attempted = requests_.size();
  result.failed = 0;
  return result;
}

}  // namespace

RunResult RunTraced(const RunConfig& config) { return TracedRun(config).Run(); }

}  // namespace perfbench
