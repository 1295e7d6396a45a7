#ifndef SEDA_DATAGUIDE_DATAGUIDE_H_
#define SEDA_DATAGUIDE_DATAGUIDE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/data_graph.h"
#include "store/document_store.h"

namespace seda {
class ThreadPool;
}

namespace seda::persist {
class ImageWriter;
class MappedImage;
}  // namespace seda::persist

namespace seda::dataguide {

/// A dataguide: the set of distinct root-to-leaf paths of one or more
/// documents (paper §6.1 represents a dataguide exactly as "a list of full
/// root-to-leaf paths"). Paths are interned PathIds, kept sorted.
class Dataguide {
 public:
  Dataguide() = default;
  Dataguide(std::vector<store::PathId> paths, store::DocId first_member);

  const std::vector<store::PathId>& paths() const { return paths_; }
  const std::vector<store::DocId>& members() const { return members_; }
  size_t PathCount() const { return paths_.size(); }

  /// True iff every path of `other` is contained in this dataguide.
  bool Contains(const std::vector<store::PathId>& other) const;

  /// |common_paths| between this dataguide and `other`.
  size_t CommonPathCount(const std::vector<store::PathId>& other) const;

  /// The paper's similarity metric:
  ///   overlap(dg1, dg2) = min(|common|/|paths(dg1)|, |common|/|paths(dg2)|)
  double Overlap(const std::vector<store::PathId>& other) const;

  /// Unions `other`'s paths into this dataguide and records the member doc.
  void Merge(const std::vector<store::PathId>& other, store::DocId member);

  void AddMember(store::DocId doc) { members_.push_back(doc); }

  /// Persistence hook: reassembles a dataguide from its serialized parts.
  static Dataguide FromParts(std::vector<store::PathId> paths,
                             std::vector<store::DocId> members) {
    Dataguide guide;
    guide.paths_ = std::move(paths);
    guide.members_ = std::move(members);
    return guide;
  }

 private:
  std::vector<store::PathId> paths_;    // sorted, distinct
  std::vector<store::DocId> members_;
};

/// A path-level (schema-level) connection between two contexts, discovered on
/// the dataguide summary graph. Steps walk from `from_path` to `to_path`
/// through parent/child moves inside a dataguide tree and through link edges
/// (IDREF / XLink / value-based) between dataguides.
struct Connection {
  enum class Move { kUp, kDown, kLink };

  struct Step {
    Move move = Move::kUp;
    std::string path;   ///< the context arrived at after the move
    std::string label;  ///< relationship label for kLink moves
  };

  std::string from_path;
  std::string to_path;
  std::vector<Step> steps;

  size_t Length() const { return steps.size(); }
  bool HasLink() const;
  /// Canonical signature used for deduplication and display, e.g.
  /// "/a/b/c ^/a/b v/a/b/d" or with "~label>/x/y" for link moves.
  std::string Signature() const;
  /// Human-readable rendering.
  std::string ToString() const;
};

/// Work counters of FindConnections calls, accumulated (+=) across calls so
/// one instance can total a whole connection summary.
struct ConnectionStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// DFS steps the misses spent (edge expansions plus frame pops).
  uint64_t dfs_steps = 0;
  /// Misses whose DFS stopped at `max_steps`: their connection lists are
  /// shaped by the budget, not only by max_len/max_count.
  uint64_t budget_exhausted = 0;
};

/// Statistics from building a dataguide collection (Table 1 rows).
struct BuildStats {
  size_t documents = 0;
  size_t dataguides = 0;
  size_t merges = 0;
  size_t absorbed = 0;  ///< documents whose guide was a subset/equal match
  double reduction_factor = 0;  ///< documents / dataguides
};

/// The dataguide summary DG of a collection (paper §6.1): one dataguide per
/// "schema cluster" of documents, built incrementally with the overlap
/// threshold merge rule, plus link edges corresponding to the non-tree edges
/// of the data graph. Connection discovery runs BFS/DFS over this summary
/// instead of the full data graph, with a connection cache (§6.1 "we cache
/// the connections we discover").
class DataguideCollection {
 public:
  struct Options {
    /// Merge two dataguides when overlap >= threshold. The paper's Table 1
    /// uses 0.4. Threshold > 1 disables merging entirely (one dataguide per
    /// distinct document schema).
    double overlap_threshold = 0.4;
    /// When set, each document's probe against existing dataguides (the inner
    /// O(m) loop) fans out over the pool. The incremental merge itself stays
    /// sequential in document order, so the result is independent of the
    /// worker count.
    ThreadPool* pool = nullptr;
  };

  /// Builds the collection over every document in `store`. Cost O(n·m) as in
  /// the paper: each document probes every existing dataguide.
  static DataguideCollection Build(const store::DocumentStore& store,
                                   const Options& options);

  /// Incremental-commit constructor: continues `base`'s sequential
  /// overlap-threshold merge over the documents `base` has not seen
  /// (`store`'s document prefix must be identical to the store `base` was
  /// built over). Because the paper's build is a strictly document-ordered
  /// incremental algorithm, extending an epoch-N collection over the new
  /// documents makes exactly the merge decisions a from-scratch build over
  /// the whole store would — only the new documents pay the O(m) probe.
  /// Link edges and the lazy summary graph are *not* carried over; call
  /// AddLinksFromGraph with the new epoch's data graph as usual.
  static DataguideCollection Extend(const DataguideCollection& base,
                                    const store::DocumentStore& store,
                                    const Options& options);

  const std::vector<Dataguide>& guides() const { return guides_; }
  size_t size() const { return guides_.size(); }
  const BuildStats& build_stats() const { return build_stats_; }

  /// Index of the dataguide summarizing document `doc`.
  size_t GuideOfDoc(store::DocId doc) const { return guide_of_doc_.at(doc); }

  /// Non-throwing GuideOfDoc for callers probing consistency (the audit
  /// layer): nullopt when no guide claims the document.
  std::optional<size_t> FindGuideOfDoc(store::DocId doc) const {
    auto it = guide_of_doc_.find(doc);
    if (it == guide_of_doc_.end()) return std::nullopt;
    return it->second;
  }

  /// Materializes link edges between dataguides from the data graph's
  /// non-tree edges (mapped to path level). Call once after Build.
  void AddLinksFromGraph(const graph::DataGraph& graph);

  /// FindConnections' default DFS step budget.
  static constexpr size_t kDefaultMaxSteps = 1000000;

  /// Finds up to `max_count` distinct simple connections between two
  /// contexts, each at most `max_len` moves, ordered by length (shortest
  /// first, the paper's preference). Results are cached per (from, to) pair.
  /// `max_steps` (0 = unlimited) bounds the total DFS steps: the summary
  /// graph allows revisits (see ComputeConnections), so on schema clusters
  /// with wide fan-out an exhaustive depth-6 enumeration is exponential, and
  /// on the scale-1.0 Factbook most pairs a query touches use up the default
  /// budget. Iterative deepening guarantees the shortest connections are
  /// found before it runs out; the longer ones a pair gets are whichever the
  /// budget reached (ConnectionStats::budget_exhausted says when). A cold
  /// probe that uses up the default budget costs 3.5–35 ms (Query 1's eight
  /// pairs on the scale-1.0 Factbook with trade-partner links, 4-core VM);
  /// the string-keyed DFS this replaced took 35–650 ms on the same pairs.
  std::vector<Connection> FindConnections(const std::string& from_path,
                                          const std::string& to_path,
                                          size_t max_len = 6,
                                          size_t max_count = 16,
                                          size_t max_steps = kDefaultMaxSteps) const;
  /// As above, adding this call's cache and DFS work to `*stats` (may be
  /// null).
  std::vector<Connection> FindConnections(const std::string& from_path,
                                          const std::string& to_path,
                                          size_t max_len, size_t max_count,
                                          size_t max_steps,
                                          ConnectionStats* stats) const;

  /// Cache behaviour control + counters (ablation A3).
  void set_cache_enabled(bool enabled);
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

  /// Total number of link edges added from the data graph.
  size_t LinkCount() const { return link_count_; }

  /// A path-level link edge between two dataguides, deduplicated per
  /// (guide_a, path_a, guide_b, path_b, label).
  struct LinkEdge {
    size_t guide_a, guide_b;
    std::string path_a, path_b, label;
  };
  /// The link edges the summary graph applies, in insertion order.
  const std::vector<LinkEdge>& link_edges() const { return pending_links_; }

  /// Persistence hooks (src/persist/): writes guides, build statistics and
  /// the path-level link edges / reconstructs the collection over `store`.
  /// The lazy summary graph and the connection cache start cold (they are
  /// derived state); Extend() continues a loaded collection exactly like an
  /// in-memory one.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<DataguideCollection> LoadFrom(const persist::MappedImage& image,
                                              const store::DocumentStore* store);

 private:
  explicit DataguideCollection(const store::DocumentStore* store) : store_(store) {}

  /// The shared tail of Build and Extend: runs the sequential
  /// overlap-threshold merge over documents [first_doc, DocumentCount) and
  /// refreshes the build statistics.
  void IngestDocuments(store::DocId first_doc, const Options& options);

  /// Summary-graph node: a path prefix inside one dataguide. Paths and
  /// link labels are interned per summary graph (summary_paths_,
  /// summary_labels_), so the DFS moves integers only.
  struct SummaryNode {
    uint32_t guide = 0;
    uint32_t path = 0;
  };
  struct SummaryEdge {
    uint32_t to = 0;
    uint32_t path = 0;   ///< summary_nodes_[to].path, kept inline for the DFS
    uint32_t label = 0;  ///< summary_labels_ id; 0 = "" (tree edges)
    Connection::Move move = Connection::Move::kUp;
  };

  uint32_t InternSummaryPath(const std::string& path);
  uint32_t InternSummaryLabel(const std::string& label);
  /// Returns the node of (guide, path) and whether this call created it.
  std::pair<uint32_t, bool> InternSummaryNode(size_t guide, uint32_t path);
  void EnsureSummaryGraph() const;
  std::vector<Connection> ComputeConnections(const std::string& from_path,
                                             const std::string& to_path,
                                             size_t max_len, size_t max_count,
                                             size_t max_steps,
                                             ConnectionStats* stats) const;

  const store::DocumentStore* store_;
  std::vector<Dataguide> guides_;
  std::unordered_map<store::DocId, size_t> guide_of_doc_;
  BuildStats build_stats_;

  // Summary graph (built lazily).
  mutable std::vector<std::string> summary_paths_;  // path id -> prefix
  mutable std::unordered_map<std::string, uint32_t> summary_path_ids_;
  mutable std::vector<std::string> summary_labels_;  // label id -> label
  mutable std::unordered_map<std::string, uint32_t> summary_label_ids_;
  mutable std::vector<SummaryNode> summary_nodes_;
  // (guide << 32 | path id) -> node id.
  mutable std::unordered_map<uint64_t, uint32_t> summary_index_;
  // Adjacency in CSR form: node n's edges are
  // summary_edges_[summary_edge_begin_[n] .. summary_edge_begin_[n + 1]).
  mutable std::vector<uint32_t> summary_edge_begin_;
  mutable std::vector<SummaryEdge> summary_edges_;
  // Path id -> its nodes, in creation order.
  mutable std::vector<std::vector<uint32_t>> nodes_by_path_;
  mutable bool summary_built_ = false;
  // Pending link edges (path level), applied when the summary graph builds.
  std::vector<LinkEdge> pending_links_;
  size_t link_count_ = 0;

  // Connection cache; every field below is guarded by summary_mu_.
  bool cache_enabled_ = true;
  mutable std::map<std::pair<std::string, std::string>, std::vector<Connection>>
      connection_cache_;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;

  /// Serializes the lazy summary-graph build and the connection cache so
  /// concurrent queries against one published snapshot can share the
  /// collection. Behind a unique_ptr to keep the collection movable (Build
  /// and Extend return by value).
  mutable std::unique_ptr<std::mutex> summary_mu_ = std::make_unique<std::mutex>();
};

}  // namespace seda::dataguide

#endif  // SEDA_DATAGUIDE_DATAGUIDE_H_
