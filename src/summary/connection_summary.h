#ifndef SEDA_SUMMARY_CONNECTION_SUMMARY_H_
#define SEDA_SUMMARY_CONNECTION_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "topk/topk.h"

namespace seda::summary {

/// One candidate connection between two query terms, discovered on the
/// dataguide summary and validated against the top-k result instances.
struct ConnectionEntry {
  size_t term_a = 0;  ///< query term indices
  size_t term_b = 0;
  dataguide::Connection connection;
  /// Number of top-k result tuples whose (a, b) nodes instantiate this
  /// connection (same step length through the data graph).
  uint64_t instance_count = 0;
  /// True when the connection comes from the dataguide but no scanned
  /// instance realizes it — the paper's "false positive" case (§6.1): either
  /// keyword constraints exclude it or a dataguide merge fabricated it.
  bool false_positive = false;
};

/// The connection summary of a query (§6): pairwise connections between the
/// contexts matched by the top-k results.
struct ConnectionSummary {
  std::vector<ConnectionEntry> entries;

  uint64_t FalsePositiveCount() const;
  std::string ToString() const;
};

/// Computes connection summaries per the paper's §6.1 algorithm: map top-k
/// result nodes onto dataguide nodes by root-to-leaf path, enumerate
/// connections between the dataguide nodes (shortest first, using the
/// dataguide's connection cache), then count instances per connection in the
/// top-k tuples to surface false positives.
class ConnectionSummaryGenerator {
 public:
  ConnectionSummaryGenerator(const dataguide::DataguideCollection* guides,
                             const graph::DataGraph* graph)
      : guides_(guides), graph_(graph) {}

  struct Options {
    size_t max_connection_len = 6;
    size_t max_connections_per_pair = 8;
    /// Work budget per instance-validation BFS (DataGraph::ShortestPath
    /// visits). On a dense value-edge mesh an unbudgeted search floods the
    /// whole store once per top-k tuple pair — the same hub cliff the top-k
    /// engine caps — so a pair whose shortest path is not found within the
    /// budget counts as unconnected. 0 = unlimited.
    size_t max_path_visits = 2048;
  };

  ConnectionSummary Generate(const std::vector<topk::ScoredTuple>& topk_results,
                             const Options& options) const;
  /// As above, adding the dataguide work (cache hits and misses, DFS steps,
  /// pairs that ran out of DFS budget) to `*stats` (may be null).
  ConnectionSummary Generate(const std::vector<topk::ScoredTuple>& topk_results,
                             const Options& options,
                             dataguide::ConnectionStats* stats) const;
  ConnectionSummary Generate(const std::vector<topk::ScoredTuple>& topk_results) const {
    return Generate(topk_results, Options{});
  }

 private:
  const dataguide::DataguideCollection* guides_;
  const graph::DataGraph* graph_;
};

}  // namespace seda::summary

#endif  // SEDA_SUMMARY_CONNECTION_SUMMARY_H_
