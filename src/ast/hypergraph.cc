#include "ast/hypergraph.h"

#include <algorithm>
#include <set>

namespace cqac {

namespace {

std::vector<std::set<std::string>> EdgeSets(const ConjunctiveQuery& q) {
  std::vector<std::set<std::string>> edges;
  edges.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    std::set<std::string> vars;
    for (const Term& t : a.args()) {
      if (t.IsVariable()) vars.insert(t.name());
    }
    edges.push_back(std::move(vars));
  }
  return edges;
}

}  // namespace

std::vector<int> GyoEliminationOrder(const ConjunctiveQuery& q) {
  std::vector<std::set<std::string>> edges = EdgeSets(q);
  const int n = static_cast<int>(edges.size());
  std::vector<bool> removed(n, false);
  std::vector<int> order;

  bool progress = true;
  while (progress && static_cast<int>(order.size()) < n) {
    progress = false;
    for (int i = 0; i < n; ++i) {
      if (removed[i]) continue;
      // i is an ear iff every variable is private (occurs in no other
      // live edge) or the set of its shared variables is contained in one
      // single other live edge.
      std::set<std::string> shared;
      for (const std::string& v : edges[i]) {
        for (int j = 0; j < n; ++j) {
          if (j == i || removed[j]) continue;
          if (edges[j].count(v) > 0) {
            shared.insert(v);
            break;
          }
        }
      }
      bool is_ear = shared.empty();
      for (int j = 0; j < n && !is_ear; ++j) {
        if (j == i || removed[j]) continue;
        is_ear = std::all_of(
            shared.begin(), shared.end(),
            [&](const std::string& v) { return edges[j].count(v) > 0; });
      }
      if (is_ear) {
        removed[i] = true;
        order.push_back(i);
        progress = true;
      }
    }
  }
  if (static_cast<int>(order.size()) < n) return {};  // Cyclic.
  return order;
}

bool IsAcyclic(const ConjunctiveQuery& q) {
  if (q.body().empty()) return true;
  return !GyoEliminationOrder(q).empty();
}

std::vector<std::string> JoinVariables(const ConjunctiveQuery& q) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  const std::vector<std::set<std::string>> edges = EdgeSets(q);
  for (size_t i = 0; i < edges.size(); ++i) {
    for (const std::string& v : edges[i]) {
      if (seen.count(v) > 0) continue;
      for (size_t j = 0; j < edges.size(); ++j) {
        if (j == i) continue;
        if (edges[j].count(v) > 0) {
          out.push_back(v);
          seen.insert(v);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace cqac
