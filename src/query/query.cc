#include "query/query.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace seda::query {

Result<ContextSpec> ContextSpec::Parse(const std::string& text) {
  ContextSpec spec;
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty() || stripped == "*") return spec;
  std::vector<std::string> pieces = Split(std::string(stripped), '|');
  for (size_t i = 0; i < pieces.size(); ++i) {
    std::string piece(StripWhitespace(pieces[i]));
    if (piece.empty()) {
      return Status::InvalidArgument(
          "context '" + std::string(stripped) + "' has an empty alternative (" +
          std::to_string(i + 1) + " of " + std::to_string(pieces.size()) +
          "); remove the stray '|'");
    }
    if (piece == "*") {
      // '*' admits every context, so the whole disjunction is unrestricted.
      return ContextSpec();
    }
    if (piece[0] == '/') {
      spec.AddPath(piece);
    } else {
      spec.AddTagPattern(piece);
    }
  }
  return spec;
}

void ContextSpec::AddPath(const std::string& path) {
  alternatives_.push_back({true, path});
}

void ContextSpec::AddTagPattern(const std::string& pattern) {
  alternatives_.push_back({false, pattern});
}

bool ContextSpec::Matches(const std::string& path, const std::string& last_tag) const {
  if (unrestricted()) return true;
  for (const Alternative& alt : alternatives_) {
    if (alt.is_path) {
      if (alt.text == path) return true;
    } else {
      if (WildcardMatch(alt.text, last_tag)) return true;
    }
  }
  return false;
}

std::vector<store::PathId> ContextSpec::ResolvePathIds(
    const store::PathDictionary& dict) const {
  std::vector<store::PathId> out;
  if (unrestricted()) {
    out.resize(dict.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<store::PathId>(i);
    return out;
  }
  for (const Alternative& alt : alternatives_) {
    if (alt.is_path) {
      store::PathId id = dict.Find(alt.text);
      if (id != store::kInvalidPathId) out.push_back(id);
    } else {
      for (store::PathId id : dict.PathsMatchingTagPattern(alt.text)) {
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string ContextSpec::ToString() const {
  if (unrestricted()) return "*";
  std::vector<std::string> parts;
  for (const Alternative& alt : alternatives_) parts.push_back(alt.text);
  return Join(parts, " | ");
}

std::string QueryTerm::ToString() const {
  std::string search_text = search ? search->ToString() : "*";
  std::string out = "(";
  out += context.ToString();
  out += ", ";
  out += search_text;
  out += ')';
  return out;
}

std::string Query::ToString() const {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += " AND ";
    out += terms[i].ToString();
  }
  return out;
}

namespace {

/// The run of non-whitespace characters at `pos` (capped for readability),
/// for pointing at the offending token in parse errors.
std::string TokenAt(const std::string& input, size_t pos) {
  if (pos >= input.size()) return "<end of input>";
  size_t end = pos;
  while (end < input.size() && end - pos < 24 &&
         !std::isspace(static_cast<unsigned char>(input[end]))) {
    ++end;
  }
  std::string out = "'";
  out.append(input, pos, end - pos);
  out += '\'';
  return out;
}

std::string AtOffset(size_t pos) { return " at offset " + std::to_string(pos); }

}  // namespace

Result<Query> ParseQuery(const std::string& input) {
  Query query;
  size_t pos = 0;
  auto skip_separators = [&]() {
    while (pos < input.size()) {
      char c = input[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
        continue;
      }
      // Term separators: AND, &&, ∧ (UTF-8 e2 88 a7).
      if (input.compare(pos, 3, "AND") == 0 || input.compare(pos, 3, "and") == 0) {
        pos += 3;
        continue;
      }
      if (input.compare(pos, 2, "&&") == 0) {
        pos += 2;
        continue;
      }
      if (input.compare(pos, 3, "\xe2\x88\xa7") == 0) {
        pos += 3;
        continue;
      }
      break;
    }
  };

  while (true) {
    skip_separators();
    if (pos >= input.size()) break;
    if (input[pos] != '(') {
      return Status::ParseError("expected '(' starting a query term" +
                                AtOffset(pos) + ", got " + TokenAt(input, pos));
    }
    const size_t term_start = pos;
    ++pos;
    // The context part runs to the first top-level comma. Quotes may contain
    // commas; respect them.
    const size_t context_start = pos;
    std::string context_text;
    bool in_quotes = false;
    while (pos < input.size() && (in_quotes || input[pos] != ',')) {
      if (input[pos] == '"') in_quotes = !in_quotes;
      context_text.push_back(input[pos++]);
    }
    if (pos >= input.size()) {
      return Status::ParseError(
          "expected ',' inside the query term starting" + AtOffset(term_start) +
          ", got " + TokenAt(input, pos));
    }
    ++pos;  // consume ','
    const size_t search_start = pos;
    std::string search_text;
    int parens = 0;
    in_quotes = false;
    while (pos < input.size() && (in_quotes || parens > 0 || input[pos] != ')')) {
      char c = input[pos];
      if (c == '"') in_quotes = !in_quotes;
      if (!in_quotes && c == '(') ++parens;
      if (!in_quotes && c == ')') --parens;
      search_text.push_back(c);
      ++pos;
    }
    if (pos >= input.size()) {
      return Status::ParseError(
          "expected ')' closing the query term starting" + AtOffset(term_start) +
          ", got " + TokenAt(input, pos));
    }
    ++pos;  // consume ')'

    // Context strings may be quoted; strip one level of quotes.
    std::string ctx(StripWhitespace(context_text));
    if (ctx.size() >= 2 && ctx.front() == '"' && ctx.back() == '"') {
      ctx = ctx.substr(1, ctx.size() - 2);
    }
    auto spec = ContextSpec::Parse(ctx);
    if (!spec.ok()) {
      return Status::ParseError("in the context starting" +
                                AtOffset(context_start) + ": " +
                                spec.status().message());
    }
    auto expr = text::ParseTextExpr(search_text);
    if (!expr.ok()) {
      // ParseTextExpr offsets are relative to the search substring; anchor
      // the message to the term's search part within `input`.
      return Status::ParseError("in the search query starting" +
                                AtOffset(search_start) + ": " +
                                expr.status().message());
    }
    query.terms.emplace_back(std::move(spec).value(), std::move(expr).value());
  }
  if (query.terms.empty()) {
    return Status::InvalidArgument("query contains no terms");
  }
  return query;
}

}  // namespace seda::query
