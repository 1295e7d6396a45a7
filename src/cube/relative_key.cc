#include "cube/relative_key.h"

#include <map>
#include <set>

#include "common/strings.h"

namespace seda::cube {

KeyPath KeyPath::Of(const std::string& text) {
  KeyPath kp;
  kp.absolute = !text.empty() && text[0] == '/';
  kp.text = text;
  return kp;
}

RelativeKey RelativeKey::Parse(const std::vector<std::string>& paths) {
  std::vector<KeyPath> parsed;
  parsed.reserve(paths.size());
  for (const std::string& p : paths) parsed.push_back(KeyPath::Of(p));
  return RelativeKey(std::move(parsed));
}

namespace {

/// Evaluates an absolute path inside the document of `node`: the document
/// must contain exactly one node with that context path.
Result<std::string> EvaluateAbsolute(const store::DocumentStore& store,
                                     store::DocId doc, const std::string& path) {
  const xml::Document& document = store.document(doc);
  xml::Node* found = nullptr;
  bool duplicate = false;
  document.ForEachNode([&](xml::Node* n) {
    if (n->kind() == xml::NodeKind::kText || duplicate) return;
    if (n->ContextPath() == path) {
      if (found != nullptr) {
        duplicate = true;
      } else {
        found = n;
      }
    }
  });
  if (duplicate) {
    return Status::FailedPrecondition("key component " + path +
                                      " is not single-valued in document " +
                                      document.name());
  }
  if (found == nullptr) {
    return Status::NotFound("key component " + path + " missing in document " +
                            document.name());
  }
  return found->ContentString();
}

/// Evaluates a relative path starting at `node`: ".." steps to the parent,
/// "." stays, a name steps to the unique child with that name.
Result<std::string> EvaluateRelative(const store::DocumentStore& store,
                                     const store::NodeId& node,
                                     const std::string& path) {
  xml::Node* current = store.GetNode(node);
  if (current == nullptr) return Status::NotFound("context node not found");
  for (const std::string& step : SplitSkipEmpty(path, '/')) {
    if (step == ".") continue;
    if (step == "..") {
      current = current->parent();
      if (current == nullptr) {
        return Status::NotFound("relative key step '..' walked past the root");
      }
      continue;
    }
    xml::Node* next = nullptr;
    bool duplicate = false;
    for (const auto& child : current->children()) {
      if (child->kind() == xml::NodeKind::kText) continue;
      if (child->name() == step) {
        if (next != nullptr) {
          duplicate = true;
          break;
        }
        next = child.get();
      }
    }
    if (duplicate) {
      return Status::FailedPrecondition("relative key step '" + step +
                                        "' is not single-valued");
    }
    if (next == nullptr) {
      return Status::NotFound("relative key step '" + step + "' has no match");
    }
    current = next;
  }
  return current->ContentString();
}

}  // namespace

Result<std::string> EvaluateKeyComponent(const store::DocumentStore& store,
                                         const store::NodeId& node,
                                         const KeyPath& component) {
  return component.absolute ? EvaluateAbsolute(store, node.doc, component.text)
                            : EvaluateRelative(store, node, component.text);
}

Result<std::vector<std::string>> RelativeKey::Evaluate(
    const store::DocumentStore& store, const store::NodeId& node) const {
  std::vector<std::string> values;
  values.reserve(paths_.size());
  for (const KeyPath& kp : paths_) {
    Result<std::string> value = EvaluateKeyComponent(store, node, kp);
    if (!value.ok()) return value.status();
    values.push_back(std::move(value).value());
  }
  return values;
}

std::vector<std::string> RelativeKey::ResolveTargetPaths(
    const std::string& context_path) const {
  std::vector<std::string> out;
  out.reserve(paths_.size());
  for (const KeyPath& kp : paths_) {
    if (kp.absolute) {
      out.push_back(kp.text);
      continue;
    }
    // Apply ".."/"."/name steps to the context path symbolically.
    std::vector<std::string> labels = SplitSkipEmpty(context_path, '/');
    for (const std::string& step : SplitSkipEmpty(kp.text, '/')) {
      if (step == ".") continue;
      if (step == "..") {
        if (!labels.empty()) labels.pop_back();
        continue;
      }
      labels.push_back(step);
    }
    std::string resolved;
    for (const std::string& label : labels) resolved += "/" + label;
    out.push_back(std::move(resolved));
  }
  return out;
}

bool RelativeKey::SameTargets(const std::string& my_context, const RelativeKey& other,
                              const std::string& other_context) const {
  return ResolveTargetPaths(my_context) == other.ResolveTargetPaths(other_context);
}

std::string RelativeKey::ToString() const {
  std::vector<std::string> parts;
  for (const KeyPath& kp : paths_) parts.push_back(kp.text);
  std::string out = "(";
  out += Join(parts, ", ");
  out += ')';
  return out;
}

Status VerifyKeyUniqueness(const store::DocumentStore& store,
                           const std::string& context_path, const RelativeKey& key) {
  std::set<std::vector<std::string>> seen;
  Status failure = Status::OK();
  store.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (!failure.ok() || node->kind() == xml::NodeKind::kText) return;
    if (node->ContextPath() != context_path) return;
    auto values = key.Evaluate(store, id);
    if (!values.ok()) {
      failure = values.status();
      return;
    }
    if (!seen.insert(values.value()).second) {
      failure = Status::FailedPrecondition(
          "key " + key.ToString() + " is not unique for context " + context_path +
          " (duplicate at " + id.ToString() + ")");
    }
  });
  return failure;
}

}  // namespace seda::cube
