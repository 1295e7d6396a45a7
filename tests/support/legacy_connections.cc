#include "support/legacy_connections.h"

#include <set>

#include "common/strings.h"

namespace seda::reference {

using dataguide::Connection;

LegacyConnectionFinder::LegacyConnectionFinder(
    const dataguide::DataguideCollection& guides,
    const store::PathDictionary& paths) {
  for (size_t g = 0; g < guides.size(); ++g) {
    for (store::PathId pid : guides.guides()[g].paths()) {
      const std::string& full = paths.PathString(pid);
      // Intern all prefixes and chain them with parent/child edges.
      std::vector<std::string> labels = SplitSkipEmpty(full, '/');
      std::string prefix;
      size_t prev = SIZE_MAX;
      for (const std::string& label : labels) {
        prefix += "/" + label;
        size_t node = InternSummaryNode(g, prefix);
        if (prev != SIZE_MAX) {
          // Avoid duplicate edges: adjacency may already link prev<->node.
          bool exists = false;
          for (const SummaryEdge& e : summary_adj_[prev]) {
            if (e.to == node && e.move == Connection::Move::kDown) {
              exists = true;
              break;
            }
          }
          if (!exists) {
            summary_adj_[prev].push_back({node, Connection::Move::kDown, ""});
            summary_adj_[node].push_back({prev, Connection::Move::kUp, ""});
          }
        }
        prev = node;
      }
    }
  }
  // Apply link edges.
  for (const dataguide::DataguideCollection::LinkEdge& link : guides.link_edges()) {
    size_t a = InternSummaryNode(link.guide_a, link.path_a);
    size_t b = InternSummaryNode(link.guide_b, link.path_b);
    summary_adj_[a].push_back({b, Connection::Move::kLink, link.label});
    summary_adj_[b].push_back({a, Connection::Move::kLink, link.label});
  }
}

size_t LegacyConnectionFinder::InternSummaryNode(size_t guide,
                                                 const std::string& path) {
  auto key = std::make_pair(guide, path);
  auto it = summary_index_.find(key);
  if (it != summary_index_.end()) return it->second;
  size_t id = summary_nodes_.size();
  summary_nodes_.push_back({guide, path});
  summary_adj_.emplace_back();
  summary_index_.emplace(std::move(key), id);
  nodes_by_path_[path].push_back(id);
  return id;
}

std::vector<Connection> LegacyConnectionFinder::Find(
    const std::string& from_path, const std::string& to_path, size_t max_len,
    size_t max_count, size_t max_steps) const {
  std::vector<Connection> out;
  std::set<std::string> signatures;

  auto from_it = nodes_by_path_.find(from_path);
  if (from_it == nodes_by_path_.end()) return out;
  auto to_it = nodes_by_path_.find(to_path);
  if (to_it == nodes_by_path_.end()) return out;
  std::set<size_t> targets(to_it->second.begin(), to_it->second.end());

  size_t steps = 0;
  for (size_t depth_limit = 1; depth_limit <= max_len && out.size() < max_count;
       ++depth_limit) {
    for (size_t start : from_it->second) {
      std::vector<Connection::Step> step_stack;

      struct Frame {
        size_t node;
        size_t edge_index;
        size_t prev;                 // SIZE_MAX at the start node
        Connection::Move prev_move;  // move that entered `node`
      };
      std::vector<Frame> frames{{start, 0, SIZE_MAX, Connection::Move::kUp}};

      while (!frames.empty()) {
        if (max_steps > 0 && ++steps > max_steps) return out;
        Frame& frame = frames.back();
        if (step_stack.size() == depth_limit ||
            frame.edge_index >= summary_adj_[frame.node].size()) {
          frames.pop_back();
          if (!step_stack.empty()) step_stack.pop_back();
          continue;
        }
        const SummaryEdge& edge = summary_adj_[frame.node][frame.edge_index++];
        if (frame.prev != SIZE_MAX && edge.to == frame.prev) {
          if (frame.prev_move == Connection::Move::kDown &&
              edge.move == Connection::Move::kUp) {
            continue;
          }
          if (frame.prev_move == Connection::Move::kLink &&
              edge.move == Connection::Move::kLink) {
            continue;
          }
        }
        Connection::Step step;
        step.move = edge.move;
        step.path = summary_nodes_[edge.to].path;
        step.label = edge.label;
        step_stack.push_back(step);
        if (targets.count(edge.to) && step_stack.size() == depth_limit) {
          Connection conn;
          conn.from_path = from_path;
          conn.to_path = to_path;
          conn.steps = step_stack;
          if (signatures.insert(conn.Signature()).second) {
            out.push_back(std::move(conn));
            if (out.size() >= max_count) return out;
          }
          step_stack.pop_back();
          continue;
        }
        frames.push_back({edge.to, 0, frame.node, edge.move});
      }
    }
  }
  return out;
}

}  // namespace seda::reference
