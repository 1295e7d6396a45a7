#include "summary/connection_summary.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace seda::summary {

namespace {

/// Abstracts a concrete node path (from DataGraph::ShortestPath) to a
/// path-level connection signature comparable with dataguide connections.
std::optional<std::string> AbstractInstancePath(
    const std::vector<store::NodeId>& nodes, const graph::DataGraph& graph) {
  if (nodes.empty()) return std::nullopt;
  const store::DocumentStore& store = graph.store();
  xml::Node* first = store.GetNode(nodes.front());
  if (first == nullptr) return std::nullopt;

  dataguide::Connection conn;
  conn.from_path = first->ContextPath();
  for (size_t i = 1; i < nodes.size(); ++i) {
    const store::NodeId& prev = nodes[i - 1];
    const store::NodeId& cur = nodes[i];
    xml::Node* cur_node = store.GetNode(cur);
    if (cur_node == nullptr) return std::nullopt;
    dataguide::Connection::Step step;
    step.path = cur_node->ContextPath();
    if (prev.doc == cur.doc && cur.dewey == prev.dewey.Parent()) {
      step.move = dataguide::Connection::Move::kUp;
    } else if (prev.doc == cur.doc && prev.dewey == cur.dewey.Parent()) {
      step.move = dataguide::Connection::Move::kDown;
    } else {
      step.move = dataguide::Connection::Move::kLink;
      for (const graph::Edge& edge : graph.NonTreeEdges(prev)) {
        if (edge.to == cur || edge.from == cur) {
          step.label = edge.label;
          break;
        }
      }
    }
    conn.steps.push_back(std::move(step));
  }
  return conn.Signature();
}

}  // namespace

uint64_t ConnectionSummary::FalsePositiveCount() const {
  uint64_t count = 0;
  for (const ConnectionEntry& entry : entries) {
    if (entry.false_positive) ++count;
  }
  return count;
}

std::string ConnectionSummary::ToString() const {
  std::string out;
  for (const ConnectionEntry& entry : entries) {
    out += "terms (" + std::to_string(entry.term_a) + "," +
           std::to_string(entry.term_b) + "): " + entry.connection.ToString() +
           "  [instances=" + std::to_string(entry.instance_count) +
           (entry.false_positive ? ", FALSE POSITIVE" : "") + "]\n";
  }
  return out;
}

ConnectionSummary ConnectionSummaryGenerator::Generate(
    const std::vector<topk::ScoredTuple>& topk_results, const Options& options) const {
  return Generate(topk_results, options, nullptr);
}

ConnectionSummary ConnectionSummaryGenerator::Generate(
    const std::vector<topk::ScoredTuple>& topk_results, const Options& options,
    dataguide::ConnectionStats* stats) const {
  ConnectionSummary summary;
  if (topk_results.empty()) return summary;
  const store::DocumentStore& store = graph_->store();
  const size_t m = topk_results.front().nodes.size();

  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      // Distinct path pairs observed between terms a and b in the top-k.
      std::set<std::pair<std::string, std::string>> path_pairs;
      // Instance connection signatures with counts.
      std::map<std::string, uint64_t> instance_signatures;

      for (const topk::ScoredTuple& tuple : topk_results) {
        xml::Node* node_a = store.GetNode(tuple.nodes[a].node);
        xml::Node* node_b = store.GetNode(tuple.nodes[b].node);
        if (node_a == nullptr || node_b == nullptr) continue;
        path_pairs.emplace(node_a->ContextPath(), node_b->ContextPath());
        auto instance_path = graph_->ShortestPath(
            tuple.nodes[a].node, tuple.nodes[b].node,
            options.max_connection_len, options.max_path_visits);
        if (instance_path.empty()) continue;
        auto signature = AbstractInstancePath(instance_path, *graph_);
        if (signature) instance_signatures[*signature] += 1;
      }

      // Enumerate dataguide-level connections for every observed path pair.
      std::set<std::string> emitted;
      for (const auto& [path_a, path_b] : path_pairs) {
        auto connections = guides_->FindConnections(
            path_a, path_b, options.max_connection_len,
            options.max_connections_per_pair,
            dataguide::DataguideCollection::kDefaultMaxSteps, stats);
        for (dataguide::Connection& conn : connections) {
          std::string signature = conn.Signature();
          if (!emitted.insert(signature).second) continue;
          ConnectionEntry entry;
          entry.term_a = a;
          entry.term_b = b;
          entry.connection = std::move(conn);
          auto it = instance_signatures.find(signature);
          entry.instance_count = it == instance_signatures.end() ? 0 : it->second;
          entry.false_positive = entry.instance_count == 0;
          summary.entries.push_back(std::move(entry));
        }
      }
    }
  }
  // Shortest, most-instantiated connections first.
  std::sort(summary.entries.begin(), summary.entries.end(),
            [](const ConnectionEntry& x, const ConnectionEntry& y) {
              if (x.term_a != y.term_a) return x.term_a < y.term_a;
              if (x.term_b != y.term_b) return x.term_b < y.term_b;
              if (x.connection.Length() != y.connection.Length()) {
                return x.connection.Length() < y.connection.Length();
              }
              return x.instance_count > y.instance_count;
            });
  return summary;
}

}  // namespace seda::summary
