#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"

namespace seda::api {
namespace {

constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";
constexpr const char* kQuery1 =
    R"((*, "United States") AND (trade_country, *) AND (percentage, *))";

void DefineScenarioCatalog(core::Seda* seda) {
  auto* catalog = seda->mutable_catalog();
  using cube::RelativeKey;
  ASSERT_TRUE(catalog
                  ->DefineDimension("country",
                                    {{kName, RelativeKey::Parse({kName, kYear})}})
                  .ok());
  ASSERT_TRUE(catalog
                  ->DefineDimension("year",
                                    {{kYear, RelativeKey::Parse({kName, kYear})}})
                  .ok());
  ASSERT_TRUE(catalog
                  ->DefineDimension(
                      "import-country",
                      {{kTrade, RelativeKey::Parse({kName, kYear, "."})}})
                  .ok());
  ASSERT_TRUE(catalog
                  ->DefineFact("import-trade-percentage",
                               {{kPct, RelativeKey::Parse(
                                           {kName, kYear, "../trade_country"})}})
                  .ok());
}

// --- Fingerprints: the common projection of service DTOs and direct
// core::Session results, compared byte for byte (hex floats). ---------------

std::string NodeFp(uint32_t doc, const std::string& dewey,
                   const std::string& path) {
  return "n" + std::to_string(doc) + "@" + dewey + "[" + path + "]";
}

std::string TupleListFp(const std::vector<TupleDto>& topk) {
  std::string out;
  char buf[96];
  for (const TupleDto& tuple : topk) {
    for (const NodeRefDto& node : tuple.nodes) {
      out += NodeFp(node.doc, node.dewey, node.path);
    }
    std::snprintf(buf, sizeof(buf), " c=%a n=%llu s=%a\n", tuple.content_score,
                  static_cast<unsigned long long>(tuple.connection_size),
                  tuple.score);
    out += buf;
  }
  return out;
}

std::string TupleListFp(const std::vector<topk::ScoredTuple>& topk,
                        const store::DocumentStore& store) {
  std::string out;
  char buf[96];
  for (const topk::ScoredTuple& tuple : topk) {
    for (const text::NodeMatch& match : tuple.nodes) {
      std::string path = match.path != store::kInvalidPathId
                             ? store.paths().PathString(match.path)
                             : std::string();
      out += NodeFp(match.node.doc, match.node.dewey.ToString(), path);
    }
    std::snprintf(buf, sizeof(buf), " c=%a n=%llu s=%a\n", tuple.content_score,
                  static_cast<unsigned long long>(tuple.connection_size),
                  tuple.score);
    out += buf;
  }
  return out;
}

std::string CompleteFp(const std::vector<std::vector<NodeRefDto>>& tuples) {
  std::string out;
  for (const auto& row : tuples) {
    for (const NodeRefDto& node : row) {
      out += NodeFp(node.doc, node.dewey, node.path);
    }
    out += "\n";
  }
  return out;
}

std::string CompleteFp(const twig::CompleteResult& result,
                       const store::DocumentStore& store) {
  std::string out;
  for (const twig::ResultTuple& tuple : result.tuples) {
    for (size_t i = 0; i < tuple.nodes.size(); ++i) {
      out += NodeFp(tuple.nodes[i].doc, tuple.nodes[i].dewey.ToString(),
                    store.paths().PathString(tuple.paths[i]));
    }
    out += "\n";
  }
  return out;
}

/// Drives the Fig. 6 loop (search -> data-driven refine -> complete) through
/// the service AND directly through a core::Session over the same Seda, and
/// requires identical outcomes at every stage. `query` is corpus-specific;
/// refinement picks each term's most frequent context from the summary, so
/// the walk adapts to whatever the corpus contains.
void ExpectFig6Equivalence(core::Seda* seda, const std::string& query,
                           const char* corpus) {
  SCOPED_TRACE(corpus);
  SedaService service(seda);
  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok()) << created.status.message;

  auto direct = seda->NewSession();
  ASSERT_TRUE(direct.ok());
  const store::DocumentStore& store = direct->snapshot().store();

  // Stage 1: search.
  SearchRequest search_request;
  search_request.session_id = created.session_id;
  search_request.query = query;
  SearchResponseDto via_service = service.Search(search_request);
  auto via_session = direct->Search(query);
  ASSERT_EQ(via_service.status.ok(), via_session.ok())
      << via_service.status.message << " vs " << via_session.status().ToString();
  if (!via_session.ok()) return;
  EXPECT_EQ(TupleListFp(via_service.topk),
            TupleListFp(via_session->topk, store));
  EXPECT_EQ(via_service.stats.epoch, via_session->stats.epoch);
  ASSERT_EQ(via_service.contexts.size(), via_session->contexts.buckets.size());
  ASSERT_EQ(via_service.connections.size(),
            via_session->connections.entries.size());

  // Stage 2: refine every term to its most frequent context (data-driven,
  // identical on both sides by the stage-1 equivalence).
  std::vector<std::vector<std::string>> picks;
  std::vector<std::string> term_paths;
  for (size_t i = 0; i < via_service.contexts.size(); ++i) {
    const ContextBucketDto& bucket = via_service.contexts[i];
    ASSERT_EQ(bucket.entries.size(),
              via_session->contexts.buckets[i].entries.size());
    if (bucket.entries.empty()) return;  // corpus cannot complete this query
    picks.push_back({bucket.entries[0].path});
    term_paths.push_back(bucket.entries[0].path);
    EXPECT_EQ(bucket.entries[0].path,
              via_session->contexts.buckets[i].entries[0].path_text);
  }
  RefineRequest refine_request;
  refine_request.session_id = created.session_id;
  refine_request.chosen_paths = picks;
  SearchResponseDto refined_service = service.Refine(refine_request);
  auto refined_session = direct->RefineContexts(picks);
  ASSERT_EQ(refined_service.status.ok(), refined_session.ok())
      << refined_service.status.message;
  if (!refined_session.ok()) return;
  EXPECT_EQ(TupleListFp(refined_service.topk),
            TupleListFp(refined_session->topk, store));

  // Stage 3: complete results for the pinned contexts.
  CompleteRequest complete_request;
  complete_request.session_id = created.session_id;
  complete_request.term_paths = term_paths;
  CompleteResponseDto complete_service = service.Complete(complete_request);
  auto complete_session = direct->CompleteResults(term_paths, {});
  ASSERT_EQ(complete_service.status.ok(), complete_session.ok())
      << complete_service.status.message << " vs "
      << complete_session.status().ToString();
  if (!complete_session.ok()) {
    // Both sides must fail identically (e.g. twigs not bridged by links).
    EXPECT_EQ(complete_service.status.ToStatus().code(),
              complete_session.status().code());
    return;
  }
  EXPECT_EQ(CompleteFp(complete_service.tuples),
            CompleteFp(complete_session.value(), store));
  EXPECT_EQ(complete_service.twig_count, complete_session->twig_count);

  // Stage 4: cube — with no catalog defined both sides produce the same
  // (possibly empty) star schema; with one, MakeScenario's tests compare
  // cell totals in depth.
  CubeRequest cube_request;
  cube_request.session_id = created.session_id;
  CubeResponseDto cube_service = service.Cube(cube_request);
  auto cube_session = direct->BuildCube(complete_session.value());
  ASSERT_EQ(cube_service.status.ok(), cube_session.ok())
      << cube_service.status.message;
  if (cube_session.ok()) {
    ASSERT_EQ(cube_service.fact_tables.size(),
              cube_session->fact_tables.size());
    for (size_t i = 0; i < cube_service.fact_tables.size(); ++i) {
      EXPECT_EQ(cube_service.fact_tables[i].rows,
                cube_session->fact_tables[i].rows);
    }
  }
}

TEST(ServiceEquivalenceTest, ScenarioCorpus) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  ASSERT_TRUE(seda.Finalize(options).ok());
  DefineScenarioCatalog(&seda);
  ExpectFig6Equivalence(&seda, kQuery1, "scenario");
}

TEST(ServiceEquivalenceTest, WorldFactbookCorpus) {
  core::Seda seda;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.05;
  data::WorldFactbookGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  DefineScenarioCatalog(&seda);
  ExpectFig6Equivalence(&seda, kQuery1, "world-factbook");
}

TEST(ServiceEquivalenceTest, MondialCorpus) {
  core::Seda seda;
  data::MondialGenerator::Options options;
  options.scale = 0.05;
  data::MondialGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  ExpectFig6Equivalence(&seda, R"((name, *) AND (*, "United States"))",
                        "mondial");
}

TEST(ServiceEquivalenceTest, GoogleBaseCorpus) {
  core::Seda seda;
  data::GoogleBaseGenerator::Options options;
  options.scale = 0.02;
  data::GoogleBaseGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  ExpectFig6Equivalence(&seda, R"((title, *) AND (item_type, "type1"))",
                        "google-base");
}

TEST(ServiceEquivalenceTest, RecipeMLCorpus) {
  core::Seda seda;
  data::RecipeMLGenerator::Options options;
  options.scale = 0.02;
  data::RecipeMLGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  ExpectFig6Equivalence(&seda, R"((item, "flour") AND (title, *))",
                        "recipe-ml");
}

/// Full worked-example loop incl. the OLAP aggregate: service cube cells and
/// total must equal what the engine computes directly.
TEST(ServiceEquivalenceTest, ScenarioCubeCellTotals) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  ASSERT_TRUE(seda.Finalize(options).ok());
  DefineScenarioCatalog(&seda);
  SedaService service(&seda);

  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok());
  SearchRequest search;
  search.session_id = created.session_id;
  search.query = kQuery1;
  ASSERT_TRUE(service.Search(search).status.ok());
  CompleteRequest complete;
  complete.session_id = created.session_id;
  complete.term_paths = {kName, kTrade, kPct};
  ASSERT_TRUE(service.Complete(complete).status.ok());

  CubeRequest cube_request;
  cube_request.session_id = created.session_id;
  cube_request.group_dims = {"year"};
  cube_request.agg_fn = "sum";
  cube_request.measure = "import-trade-percentage";
  CubeResponseDto via_service = service.Cube(cube_request);
  ASSERT_TRUE(via_service.status.ok()) << via_service.status.message;
  ASSERT_FALSE(via_service.fact_tables.empty());
  ASSERT_FALSE(via_service.cells.empty());

  // Direct engine reference.
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());
  auto query = session->Parse(kQuery1);
  ASSERT_TRUE(query.ok());
  session->SetQuery(query.value());
  auto result = session->CompleteResults({kName, kTrade, kPct}, {});
  ASSERT_TRUE(result.ok());
  auto schema = session->BuildCube(result.value());
  ASSERT_TRUE(schema.ok());
  auto cube = session->ToOlapCube(schema.value());
  ASSERT_TRUE(cube.ok());
  auto cuboid =
      cube->Aggregate({"year"}, olap::AggFn::kSum, "import-trade-percentage");
  ASSERT_TRUE(cuboid.ok());

  ASSERT_EQ(via_service.cells.size(), cuboid->cells.size());
  for (size_t i = 0; i < cuboid->cells.size(); ++i) {
    EXPECT_EQ(via_service.cells[i].group, cuboid->cells[i].group);
    EXPECT_DOUBLE_EQ(via_service.cells[i].value, cuboid->cells[i].value);
    EXPECT_EQ(via_service.cells[i].count, cuboid->cells[i].count);
  }
  EXPECT_DOUBLE_EQ(via_service.cell_total, cuboid->Total());
}

/// Choosing a connection by index must execute the same ChosenConnection the
/// engine-level API would.
TEST(ServiceTest, CompleteWithConnectionIndex) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  ASSERT_TRUE(seda.Finalize(options).ok());
  SedaService service(&seda);

  auto created = service.CreateSession(CreateSessionRequest{});
  SearchRequest search;
  search.session_id = created.session_id;
  search.query = R"((trade_country, *) AND (percentage, *))";
  SearchResponseDto response = service.Search(search);
  ASSERT_TRUE(response.status.ok());
  ASSERT_FALSE(response.connections.empty());

  // Pick the first tree connection (FromDataguideConnection supports tree
  // and single-link shapes).
  size_t index = response.connections.size();
  for (size_t i = 0; i < response.connections.size(); ++i) {
    bool has_link = false;
    for (const auto& step : response.connections[i].steps) {
      if (step.move == "link") has_link = true;
    }
    if (!has_link) {
      index = i;
      break;
    }
  }
  ASSERT_LT(index, response.connections.size());

  CompleteRequest complete;
  complete.session_id = created.session_id;
  complete.term_paths = {response.connections[index].from_path,
                         response.connections[index].to_path};
  complete.connections = {index};
  CompleteResponseDto via_service = service.Complete(complete);
  ASSERT_TRUE(via_service.status.ok()) << via_service.status.message;

  // Engine-level reference through the same session machinery.
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());
  auto direct_search = session->Search(search.query);
  ASSERT_TRUE(direct_search.ok());
  const auto& entry = direct_search->connections.entries[index];
  auto chosen = twig::ChosenConnection::FromDataguideConnection(
      entry.term_a, entry.term_b, entry.connection);
  ASSERT_TRUE(chosen.ok());
  auto direct = session->CompleteResults(complete.term_paths, {chosen.value()});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(CompleteFp(via_service.tuples),
            CompleteFp(direct.value(), session->snapshot().store()));

  // Out-of-range indices are rejected with the valid range in the message.
  complete.connections = {9999};
  CompleteResponseDto bad = service.Complete(complete);
  EXPECT_EQ(bad.status.code, "OutOfRange");
  EXPECT_NE(bad.status.message.find("9999"), std::string::npos);
}

/// Acceptance: a tight deadline yields a well-formed partial response with
/// the overrun flagged in stats — not an error, not unbounded latency.
TEST(ServiceTest, TightDeadlineReturnsFlaggedPartialResponse) {
  core::Seda seda;
  data::WorldFactbookGenerator::Options corpus;
  corpus.scale = 0.2;
  data::WorldFactbookGenerator(corpus).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);
  auto created = service.CreateSession(CreateSessionRequest{});

  SearchRequest request;
  request.session_id = created.session_id;
  request.query = kQuery1;
  request.k = 200;  // keep the heap hungry so the scan would visit every doc
  request.deadline_ms = 1;
  SearchResponseDto partial = service.Search(request);
  ASSERT_TRUE(partial.status.ok()) << partial.status.message;
  EXPECT_TRUE(partial.stats.deadline_exceeded);
  EXPECT_EQ(partial.stats.deadline_ms, 1u);
  // Well-formed: every response block is present and consistent.
  EXPECT_EQ(partial.contexts.size(), 3u);
  EXPECT_GT(partial.stats.docs_considered, partial.stats.docs_scored);

  // The same request without a deadline runs to the TA fixpoint.
  request.deadline_ms = 0;
  SearchResponseDto full = service.Search(request);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.stats.deadline_exceeded);
  EXPECT_GE(full.topk.size(), partial.topk.size());
}

TEST(ServiceTest, SessionLifecycle) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);

  CreateSessionRequest named;
  named.session_id = "analyst-1";
  auto created = service.CreateSession(named);
  ASSERT_TRUE(created.status.ok());
  EXPECT_EQ(created.session_id, "analyst-1");
  EXPECT_EQ(created.epoch, 1u);
  EXPECT_EQ(service.SessionCount(), 1u);

  EXPECT_EQ(service.CreateSession(named).status.code, "AlreadyExists");

  SearchRequest search;
  search.session_id = "no-such-session";
  search.query = "(a, b)";
  EXPECT_EQ(service.Search(search).status.code, "NotFound");

  EXPECT_TRUE(
      service.CloseSession(CloseSessionRequest{"analyst-1"}).status.ok());
  EXPECT_EQ(service.CloseSession(CloseSessionRequest{"analyst-1"}).status.code,
            "NotFound");
  EXPECT_EQ(service.SessionCount(), 0u);

  // Unfinalized backends fail cleanly at session creation.
  core::Seda fresh;
  SedaService unready(&fresh);
  EXPECT_EQ(unready.CreateSession(CreateSessionRequest{}).status.code,
            "FailedPrecondition");
}

TEST(ServiceTest, SessionsPinTheirEpochAcrossCommits) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);
  auto pinned = service.CreateSession(CreateSessionRequest{});
  ASSERT_EQ(pinned.epoch, 1u);

  ASSERT_TRUE(seda.AddXml("<country><name>Epochia</name></country>", "late")
                  .ok());
  ASSERT_TRUE(seda.Commit().ok());

  SearchRequest request;
  request.session_id = pinned.session_id;
  request.query = R"((name, "Epochia"))";
  SearchResponseDto old_epoch = service.Search(request);
  ASSERT_TRUE(old_epoch.status.ok());
  EXPECT_EQ(old_epoch.stats.epoch, 1u);
  EXPECT_TRUE(old_epoch.topk.empty());  // the pinned epoch predates the doc

  auto fresh = service.CreateSession(CreateSessionRequest{});
  EXPECT_EQ(fresh.epoch, 2u);
  request.session_id = fresh.session_id;
  SearchResponseDto new_epoch = service.Search(request);
  ASSERT_TRUE(new_epoch.status.ok());
  EXPECT_EQ(new_epoch.stats.epoch, 2u);
  EXPECT_FALSE(new_epoch.topk.empty());
}

TEST(ServiceTest, TtlEvictionAndLruCapacity) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());

  ServiceOptions options;
  options.session_ttl_ms = 20;
  options.max_sessions = 2;
  SedaService service(&seda, options);

  auto expiring = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(expiring.status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  SearchRequest search;
  search.session_id = expiring.session_id;
  search.query = "(name, *)";
  EXPECT_EQ(service.Search(search).status.code, "NotFound");

  // LRU: with capacity 2, touching 'a' makes 'b' the eviction victim.
  CreateSessionRequest keepalive;
  keepalive.ttl_ms = 60000;
  keepalive.session_id = "a";
  ASSERT_TRUE(service.CreateSession(keepalive).status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  keepalive.session_id = "b";
  ASSERT_TRUE(service.CreateSession(keepalive).status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  search.session_id = "a";
  ASSERT_TRUE(service.Search(search).status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  keepalive.session_id = "c";
  ASSERT_TRUE(service.CreateSession(keepalive).status.ok());
  EXPECT_LE(service.SessionCount(), 2u);
  search.session_id = "b";
  EXPECT_EQ(service.Search(search).status.code, "NotFound");
  search.session_id = "a";
  EXPECT_TRUE(service.Search(search).status.ok());
}

TEST(ServiceTest, FailedDuplicateCreateCostsNoLiveSession) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  ServiceOptions options;
  options.max_sessions = 2;
  SedaService service(&seda, options);

  CreateSessionRequest create;
  create.ttl_ms = 60000;
  create.session_id = "a";
  ASSERT_TRUE(service.CreateSession(create).status.ok());
  create.session_id = "b";
  ASSERT_TRUE(service.CreateSession(create).status.ok());

  SearchRequest search;
  search.session_id = "a";
  search.query = R"((trade_country, *) AND (percentage, *))";
  ASSERT_TRUE(service.Search(search).status.ok());

  // At capacity, a duplicate create must fail WITHOUT evicting anything —
  // neither the LRU victim nor the session it collided with.
  create.session_id = "a";
  EXPECT_EQ(service.CreateSession(create).status.code, "AlreadyExists");
  EXPECT_EQ(service.SessionCount(), 2u);
  search.session_id = "b";
  EXPECT_TRUE(service.Search(search).status.ok());
  // "a" keeps its loop state: refine still has the current query.
  RefineRequest refine;
  refine.session_id = "a";
  refine.chosen_paths = {{}, {}};
  EXPECT_TRUE(service.Refine(refine).status.ok());
}

TEST(ServiceTest, RefinePreservesRequestedTopK) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);
  auto created = service.CreateSession(CreateSessionRequest{});

  SearchRequest search;
  search.session_id = created.session_id;
  search.query = R"((trade_country, *) AND (percentage, *))";
  search.k = 1;
  SearchResponseDto first = service.Search(search);
  ASSERT_TRUE(first.status.ok());
  ASSERT_EQ(first.topk.size(), 1u);

  RefineRequest refine;
  refine.session_id = created.session_id;
  refine.chosen_paths = {{}, {}};
  refine.k = 1;
  SearchResponseDto narrow = service.Refine(refine);
  ASSERT_TRUE(narrow.status.ok());
  EXPECT_EQ(narrow.topk.size(), 1u);

  refine.k = 0;  // back to the snapshot default (k = 10)
  SearchResponseDto wide = service.Refine(refine);
  ASSERT_TRUE(wide.status.ok());
  EXPECT_GT(wide.topk.size(), 1u);
}

TEST(ServiceTest, ExpiredSessionsAreSweptWithoutNewCreates) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  ServiceOptions options;
  options.session_ttl_ms = 10;
  SedaService service(&seda, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.CreateSession(CreateSessionRequest{}).status.ok());
  }
  EXPECT_EQ(service.SessionCount(), 3u);
  // Expired sessions pin whole snapshot epochs, so lookups must reclaim
  // them too (rate-limited to one full sweep per second) — not only the
  // next CreateSession.
  std::this_thread::sleep_for(std::chrono::milliseconds(1050));
  SearchRequest search;
  search.session_id = "untracked";
  search.query = "(name, *)";
  EXPECT_EQ(service.Search(search).status.code, "NotFound");
  EXPECT_EQ(service.SessionCount(), 0u);
}

// --- Satellite: Session-level validation -------------------------------

TEST(SessionValidationTest, RefineContextsRequiresOneListPerTerm) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Search(R"((trade_country, *) AND (percentage, *))").ok());

  auto mismatch = session->RefineContexts({{kTrade}});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("2 term(s)"), std::string::npos)
      << mismatch.status().message();
  EXPECT_NE(mismatch.status().message().find("1 list(s)"), std::string::npos);

  // A non-absolute pick names its term index.
  auto relative = session->RefineContexts({{kTrade}, {"not-absolute"}});
  ASSERT_FALSE(relative.ok());
  EXPECT_NE(relative.status().message().find("term 1"), std::string::npos)
      << relative.status().message();
}

TEST(SessionValidationTest, CompleteResultsBeforeSearchFails) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());
  auto result = session->CompleteResults({kTrade}, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // Same contract over the service: refine and cube are stateful too.
  SedaService service(&seda);
  auto created = service.CreateSession(CreateSessionRequest{});
  RefineRequest refine;
  refine.session_id = created.session_id;
  refine.chosen_paths = {{kTrade}};
  EXPECT_EQ(service.Refine(refine).status.code, "FailedPrecondition");
  CompleteRequest complete;
  complete.session_id = created.session_id;
  complete.term_paths = {kTrade};
  EXPECT_EQ(service.Complete(complete).status.code, "FailedPrecondition");
  CubeRequest cube;
  cube.session_id = created.session_id;
  EXPECT_EQ(service.Cube(cube).status.code, "FailedPrecondition");
}

// --- Wire envelope ------------------------------------------------------

TEST(ServiceTest, HandleDispatchesJsonEnvelopes) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);

  std::string created_json =
      service.Handle(R"({"method":"create_session","session_id":"wire"})");
  auto created = DecodeCreateSessionResponse(created_json);
  ASSERT_TRUE(created.ok()) << created_json;
  ASSERT_TRUE(created.value().status.ok());
  EXPECT_EQ(created.value().session_id, "wire");

  SearchRequest request;
  request.session_id = "wire";
  request.query = R"((name, "United States"))";
  Json envelope = Json::Parse(Encode(request)).value();
  envelope.Set("method", Json::Str("search"));
  auto response = DecodeSearchResponseDto(service.Handle(envelope.Write()));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.ok()) << response.value().status.message;
  EXPECT_FALSE(response.value().topk.empty());

  // Envelope-level failures come back as {"status": ...} objects.
  auto unknown = DecodeWireStatus(
      Json::Parse(service.Handle(R"({"method":"frobnicate"})"))
          .value()
          .Find("status")
          ->Write());
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().code, "InvalidArgument");
  auto malformed = service.Handle("this is not json");
  EXPECT_NE(malformed.find("ParseError"), std::string::npos);
}

TEST(ServiceTest, StatzAccountsForEveryRequestPath) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  SedaService service(&seda);

  // Two OK searches, one method-level error, one session round trip.
  SearchRequest search;
  search.query = R"((name, "United States"))";
  ASSERT_TRUE(service.Search(search).status.ok());
  ASSERT_TRUE(service.Search(search).status.ok());
  SearchRequest bad;
  bad.query = "((((";
  ASSERT_FALSE(service.Search(bad).status.ok());
  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok());

  StatzResponse statz = service.Statz(StatzRequest{});
  EXPECT_TRUE(statz.status.ok());
  EXPECT_GT(statz.epoch, 0u);
  EXPECT_EQ(statz.sessions, 1u);
  EXPECT_EQ(statz.sessions_created, 1u);
  EXPECT_EQ(statz.sessions_evicted, 0u);
  EXPECT_GT(statz.uptime_ms, 0.0);
  ASSERT_FALSE(statz.bucket_bounds_ms.empty());

  ASSERT_EQ(statz.methods.size(), 9u);
  uint64_t histogram_total = 0;
  for (const MethodStatsDto& method : statz.methods) {
    ASSERT_EQ(method.latency_buckets.size(),
              statz.bucket_bounds_ms.size() + 1)
        << method.method << " histogram must carry an overflow bucket";
    for (uint64_t bucket : method.latency_buckets) histogram_total += bucket;
    if (method.method == "search") {
      EXPECT_EQ(method.count, 3u);
      EXPECT_EQ(method.errors, 1u);
      EXPECT_GT(method.total_ms, 0.0);
    }
    if (method.method == "create_session") {
      EXPECT_EQ(method.count, 1u);
    }
  }
  // Every recorded request landed in exactly one histogram slot.
  EXPECT_EQ(histogram_total, 4u);

  // Cumulative engine counters summed over the search-shaped requests.
  EXPECT_GT(statz.cumulative.docs_scored, 0u);
  EXPECT_GT(statz.cumulative.candidates_total, 0u);
  // No transport hosting this service: the section stays empty.
  EXPECT_TRUE(statz.transport.empty());

  // Statz records itself, so a second call sees the first.
  StatzResponse again = service.Statz(StatzRequest{});
  for (const MethodStatsDto& method : again.methods) {
    if (method.method == "statz") {
      EXPECT_EQ(method.count, 1u);
    }
  }

  // TTL/LRU evictions (not explicit closes) feed sessions_evicted.
  ServiceOptions tight;
  tight.max_sessions = 1;
  SedaService evicting(&seda, tight);
  ASSERT_TRUE(evicting.CreateSession(CreateSessionRequest{}).status.ok());
  ASSERT_TRUE(evicting.CreateSession(CreateSessionRequest{}).status.ok());
  StatzResponse evicted = evicting.Statz(StatzRequest{});
  EXPECT_EQ(evicted.sessions_created, 2u);
  EXPECT_EQ(evicted.sessions_evicted, 1u);

  // The transport callback surfaces in order.
  evicting.set_transport_statz([] {
    return std::vector<std::pair<std::string, uint64_t>>{{"conns", 5}};
  });
  StatzResponse with_transport = evicting.Statz(StatzRequest{});
  ASSERT_EQ(with_transport.transport.size(), 1u);
  EXPECT_EQ(with_transport.transport[0].first, "conns");
  EXPECT_EQ(with_transport.transport[0].second, 5u);

  // And over the Handle() wire.
  auto wire = DecodeStatzResponse(service.Handle(R"({"method":"statz"})"));
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire.value().sessions_created, 1u);
}

// --- Satellite: concurrent registry stress (run under TSan in CI) -------

TEST(ServiceStressTest, ConcurrentSessionsWithTtlEvictionRacingRequests) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());

  ServiceOptions options;
  options.max_sessions = 48;     // below total creations: LRU eviction races
  options.session_ttl_ms = 5;    // TTL eviction races active requests
  SedaService service(&seda, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kSessionsPerThread = 64;
  std::atomic<size_t> ok_requests{0};
  std::atomic<size_t> evicted_requests{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &ok_requests, &evicted_requests, t] {
      for (size_t i = 0; i < kSessionsPerThread; ++i) {
        CreateSessionRequest create;
        create.session_id = "t";
        create.session_id += std::to_string(t) + "-" + std::to_string(i);
        auto created = service.CreateSession(create);
        if (!created.status.ok()) continue;
        SearchRequest search;
        search.session_id = created.session_id;
        search.query = (i % 2 == 0) ? R"((trade_country, *))"
                                    : R"((name, "United States"))";
        SearchResponseDto response = service.Search(search);
        if (response.status.ok()) {
          ok_requests.fetch_add(1);
          RefineRequest refine;
          refine.session_id = created.session_id;
          refine.chosen_paths = {{}};
          (void)service.Refine(refine);
        } else {
          // The only acceptable failure is losing the session to eviction.
          EXPECT_EQ(response.status.code, "NotFound")
              << response.status.message;
          evicted_requests.fetch_add(1);
        }
        if (i % 8 == 0) {
          (void)service.CloseSession(CloseSessionRequest{created.session_id});
        }
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(6));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_GT(ok_requests.load(), 0u);
  EXPECT_LE(service.SessionCount(), options.max_sessions);
}

}  // namespace
}  // namespace seda::api
