// Equivalence of DataguideCollection::FindConnections (integer-keyed summary
// graph, allocation-free DFS) with the string-keyed reference implementation
// in tests/support/legacy_connections.h: identical connections — endpoints,
// every step's move, path and label, and their order — for every path pair
// the top-k of the queries below observes, at every combination of DFS step
// budget, connection length and count. Equal output at budgets that cut the
// DFS off mid-walk shows the step accounting and the iteration order are
// unchanged. Covered: the five generated corpora, an incremental epoch
// (DataguideCollection::Extend) and a reopened image (LoadFrom).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/seda.h"
#include "data/generators.h"
#include "dataguide/dataguide.h"
#include "persist/reader.h"
#include "support/legacy_connections.h"

namespace seda::dataguide {
namespace {

using PathPair = std::pair<std::string, std::string>;

// The CI smoke queries plus the engine-equivalence and per-corpus queries,
// so every corpus contributes path pairs.
const char* const kQueries[] = {
    R"((*, "United States") AND (trade_country, *))",
    "(name, *) AND (GDP_ppp, *)",
    R"((name, china OR canada) AND (percentage, *))",
    "(name, *) AND (*, china)",
    R"((*, pacific) AND (name, *))",
    R"((*, "United States") AND (title, *))",
    "(item_type, *) AND (price, *)",
    "(categories, dessert) AND (item, *)",
    "(amt, *) AND (title, *)",
};

const size_t kMaxSteps[] = {1, 17, 1000, 1000000};
const size_t kMaxLens[] = {2, 4, 6};
const size_t kMaxCounts[] = {1, 8, 16};

/// Every (path a, path b) pair, a < b in term order, that the top-k tuples
/// of kQueries instantiate — the pairs ConnectionSummaryGenerator probes.
std::set<PathPair> ObservedPairs(const core::Snapshot& snap) {
  std::set<PathPair> pairs;
  topk::TopKOptions options;
  options.k = 40;
  for (const char* text : kQueries) {
    auto query = snap.Parse(text);
    EXPECT_TRUE(query.ok()) << text;
    if (!query.ok()) continue;
    auto response = snap.Search(query.value(), options);
    EXPECT_TRUE(response.ok()) << text;
    if (!response.ok()) continue;
    for (const topk::ScoredTuple& tuple : response.value().topk) {
      for (size_t a = 0; a < tuple.nodes.size(); ++a) {
        for (size_t b = a + 1; b < tuple.nodes.size(); ++b) {
          xml::Node* node_a = snap.store().GetNode(tuple.nodes[a].node);
          xml::Node* node_b = snap.store().GetNode(tuple.nodes[b].node);
          if (node_a == nullptr || node_b == nullptr) continue;
          pairs.emplace(node_a->ContextPath(), node_b->ContextPath());
        }
      }
    }
  }
  return pairs;
}

/// Unambiguous rendering of everything a connection list carries.
std::string Render(const std::vector<Connection>& connections) {
  std::string out;
  for (const Connection& conn : connections) {
    out += conn.from_path + " -> " + conn.to_path + "\n";
    for (const Connection::Step& step : conn.steps) {
      out += "  ";
      out += std::to_string(static_cast<int>(step.move)) + " [" + step.label +
             "] " + step.path + "\n";
    }
  }
  return out;
}

/// Compares `guides` (cache off) with the reference on every pair and
/// budget combination. Stops at the first mismatch.
void ExpectEquivalent(DataguideCollection& guides,
                      const store::PathDictionary& paths,
                      const std::set<PathPair>& pairs, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_FALSE(pairs.empty()) << "no observed path pairs";
  guides.set_cache_enabled(false);
  reference::LegacyConnectionFinder reference(guides, paths);
  size_t nonempty = 0;
  uint64_t tight_exhausted = 0;  // 17-step probes cut short
  for (const auto& [from, to] : pairs) {
    for (size_t max_steps : kMaxSteps) {
      for (size_t max_len : kMaxLens) {
        for (size_t max_count : kMaxCounts) {
          ConnectionStats stats;
          std::vector<Connection> got = guides.FindConnections(
              from, to, max_len, max_count, max_steps, &stats);
          std::vector<Connection> want =
              reference.Find(from, to, max_len, max_count, max_steps);
          ASSERT_EQ(Render(got), Render(want))
              << from << " ~ " << to << " max_steps=" << max_steps
              << " max_len=" << max_len << " max_count=" << max_count;
          ASSERT_EQ(stats.cache_misses, 1u);
          ASSERT_LE(stats.dfs_steps, max_steps);
          if (!got.empty()) ++nonempty;
          if (max_steps == 17) tight_exhausted += stats.budget_exhausted;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 0u) << "every probe came back empty";
  // The tight budget must actually cut probes short, or the budgets prove
  // nothing about the step accounting.
  EXPECT_GT(tight_exhausted, 0u);
}

struct Corpus {
  const char* name;
  std::function<void(store::DocumentStore*)> populate;
  bool trade_partner_links = false;
};

/// The Fig. 1 value-based relationship (country name -> trade partner): link
/// edges across every Factbook guide, which make the DFS run out of budget.
core::SedaOptions CorpusOptions(const Corpus& corpus) {
  core::SedaOptions options;
  if (corpus.trade_partner_links) {
    options.value_edges.push_back(
        {"/country/name", "/country/economy/import_partners/item/trade_country",
         "trade_partner"});
  }
  return options;
}

const Corpus kCorpora[] = {
    {"scenario", [](store::DocumentStore* s) { data::PopulateScenario(s); }},
    {"factbook",
     [](store::DocumentStore* s) {
       data::WorldFactbookGenerator::Options o;
       o.scale = 0.05;
       data::WorldFactbookGenerator(o).Populate(s);
     },
     true},
    {"mondial",
     [](store::DocumentStore* s) {
       data::MondialGenerator::Options o;
       o.scale = 0.05;
       data::MondialGenerator(o).Populate(s);
     }},
    {"googlebase",
     [](store::DocumentStore* s) {
       data::GoogleBaseGenerator::Options o;
       o.scale = 0.01;
       data::GoogleBaseGenerator(o).Populate(s);
     }},
    {"recipeml",
     [](store::DocumentStore* s) {
       data::RecipeMLGenerator::Options o;
       o.scale = 0.01;
       data::RecipeMLGenerator(o).Populate(s);
     }},
};

DataguideCollection BuildLike(const core::Snapshot& snap) {
  DataguideCollection::Options options;
  options.overlap_threshold = snap.options().dataguide_overlap_threshold;
  DataguideCollection guides = DataguideCollection::Build(snap.store(), options);
  guides.AddLinksFromGraph(snap.data_graph());
  return guides;
}

TEST(DataguideEquivalenceTest, FiveCorporaMatchReference) {
  for (const Corpus& corpus : kCorpora) {
    core::Seda seda;
    corpus.populate(seda.mutable_store());
    ASSERT_TRUE(seda.Finalize(CorpusOptions(corpus)).ok()) << corpus.name;
    auto snap = seda.snapshot();
    DataguideCollection guides = BuildLike(*snap);
    ExpectEquivalent(guides, snap->store().paths(), ObservedPairs(*snap),
                     corpus.name);
  }
}

// Two value-based relationships over the same pair of paths: connections
// that differ only in a link label must both survive the integer-keyed
// deduplication of target hits.
TEST(DataguideEquivalenceTest, ParallelLinkLabelsStayDistinct) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  core::SedaOptions options;
  const char* trade = "/country/economy/import_partners/item/trade_country";
  options.value_edges.push_back({"/country/name", trade, "trade_partner"});
  options.value_edges.push_back({"/country/name", trade, "import_source"});
  ASSERT_TRUE(seda.Finalize(options).ok());
  auto snap = seda.snapshot();
  DataguideCollection guides = BuildLike(*snap);
  std::set<PathPair> pairs = ObservedPairs(*snap);
  pairs.emplace("/country/name", trade);
  ExpectEquivalent(guides, snap->store().paths(), pairs, "parallel labels");

  std::set<std::string> labels;
  for (const Connection& conn :
       guides.FindConnections("/country/name", trade, 1, 16)) {
    ASSERT_EQ(conn.steps.size(), 1u);
    labels.insert(conn.steps[0].label);
  }
  EXPECT_EQ(labels, (std::set<std::string>{"import_source", "trade_partner"}));
}

/// A Factbook delta that adds a new schema variant (a new optional element)
/// next to documents of existing shapes.
std::string DeltaDoc(int i) {
  std::string xml = "<country><name>Deltaland ";
  xml += std::to_string(i) + "</name><year>2009</year><economy><GDP_ppp>" +
         std::to_string(700 + i) +
         "</GDP_ppp><import_partners><item><trade_country>China</trade_country>"
         "<percentage>12.5</percentage></item></import_partners>"
         "<delta_note>release " +
         std::to_string(i) + "</delta_note></economy></country>";
  return xml;
}

class DataguideEquivalenceEpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kCorpora[1].populate(seda_.mutable_store());
    ASSERT_TRUE(seda_.Finalize(CorpusOptions(kCorpora[1])).ok());
    base_ = seda_.snapshot();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(seda_.AddXml(DeltaDoc(i), std::string("delta-") += std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(seda_.Commit().ok());
    next_ = seda_.snapshot();
    ASSERT_EQ(next_->epoch(), base_->epoch() + 1);
  }

  core::Seda seda_;
  std::shared_ptr<const core::Snapshot> base_;
  std::shared_ptr<const core::Snapshot> next_;
};

TEST_F(DataguideEquivalenceEpochTest, IncrementalEpochMatchesReference) {
  DataguideCollection base = BuildLike(*base_);
  DataguideCollection::Options options;
  options.overlap_threshold = next_->options().dataguide_overlap_threshold;
  DataguideCollection guides =
      DataguideCollection::Extend(base, next_->store(), options);
  guides.AddLinksFromGraph(next_->data_graph());
  ExpectEquivalent(guides, next_->store().paths(), ObservedPairs(*next_),
                   "incremental epoch");
}

TEST_F(DataguideEquivalenceEpochTest, ReopenedImageMatchesReference) {
  const std::string path = ::testing::TempDir() + "seda_dg_equivalence_" +
                           std::to_string(::getpid()) + ".img";
  ASSERT_TRUE(seda_.Save(path).ok());
  core::Seda reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  auto snap = reopened.snapshot();
  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto guides = DataguideCollection::LoadFrom(*image.value(), &snap->store());
  ASSERT_TRUE(guides.ok()) << guides.status().ToString();
  EXPECT_EQ(guides.value().LinkCount(), next_->dataguides().LinkCount());
  ExpectEquivalent(guides.value(), snap->store().paths(), ObservedPairs(*snap),
                   "reopened image");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seda::dataguide
