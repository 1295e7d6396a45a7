#ifndef SEDA_TESTS_SUPPORT_LEGACY_CONNECTIONS_H_
#define SEDA_TESTS_SUPPORT_LEGACY_CONNECTIONS_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataguide/dataguide.h"
#include "store/path_dictionary.h"

namespace seda::reference {

/// Reference implementation of DataguideCollection::FindConnections with the
/// cache off: the string-keyed summary graph (a std::map over (guide, path
/// string), prefixes split into label vectors) and the string-copying DFS
/// (Connection::Step stack, std::set targets, a Signature() per target hit)
/// that the runtime library used before its integer-keyed rewrite. Kept out
/// of src/ as the oracle the equivalence test compares against: same node
/// numbering, same adjacency order, same step accounting, hence the same
/// connections at every budget.
class LegacyConnectionFinder {
 public:
  /// Builds the summary graph of `guides` (whose paths are ids of `paths`)
  /// including its link edges.
  LegacyConnectionFinder(const dataguide::DataguideCollection& guides,
                         const store::PathDictionary& paths);

  std::vector<dataguide::Connection> Find(const std::string& from_path,
                                          const std::string& to_path,
                                          size_t max_len, size_t max_count,
                                          size_t max_steps) const;

 private:
  struct SummaryNode {
    size_t guide = 0;
    std::string path;
  };
  struct SummaryEdge {
    size_t to = 0;
    dataguide::Connection::Move move = dataguide::Connection::Move::kUp;
    std::string label;
  };

  size_t InternSummaryNode(size_t guide, const std::string& path);

  std::vector<SummaryNode> summary_nodes_;
  std::map<std::pair<size_t, std::string>, size_t> summary_index_;
  std::vector<std::vector<SummaryEdge>> summary_adj_;
  std::unordered_map<std::string, std::vector<size_t>> nodes_by_path_;
};

}  // namespace seda::reference

#endif  // SEDA_TESTS_SUPPORT_LEGACY_CONNECTIONS_H_
