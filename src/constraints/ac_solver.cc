#include "constraints/ac_solver.h"

#include <algorithm>

namespace cqac {

int AcCore::Intern(const Term& t) {
  if (t.IsConstant()) {
    for (const int id : constants_) {
      if (terms_[id].value() == t.value()) return id;
    }
  } else {
    for (size_t id = 0; id < terms_.size(); ++id) {
      if (terms_[id] == t) return static_cast<int>(id);
    }
  }
  const int id = static_cast<int>(terms_.size());
  terms_.push_back(t);
  if (t.IsConstant()) {
    constants_.push_back(id);
    constants_sorted_ = false;
  }
  return id;
}

void AcCore::Activate(int u) {
  if (stamp_[u] == run_) return;
  stamp_[u] = run_;
  std::fill_n(Row(u), words_, uint64_t{0});
  active_.push_back(u);
}

bool AcCore::Satisfiable(const std::vector<IdComparison>& comparisons,
                         int skip, const IdComparison* extra) {
  ++checks_;
  if (!constants_sorted_) {
    std::sort(constants_.begin(), constants_.end(), [this](int a, int b) {
      return terms_[a].value() < terms_[b].value();
    });
    constants_sorted_ = true;
  }
  const size_t n = terms_.size();
  words_ = (n + 63) / 64;
  if (reach_.size() < n * words_) reach_.resize(n * words_);
  if (stamp_.size() < n) stamp_.resize(n, run_);
  if (++run_ == 0) {  // Wrapped: no stale stamp may equal the new run.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    run_ = 1;
  }
  active_.clear();
  strict_.clear();
  unequal_.clear();

  auto add = [this](const IdComparison& c) {
    const int u = c.lhs;
    const int v = c.rhs;
    Activate(u);
    Activate(v);
    switch (c.op) {
      case CompOp::kLt:
        AddEdge(u, v);
        strict_.push_back({u, v});
        break;
      case CompOp::kLe:
        AddEdge(u, v);
        break;
      case CompOp::kEq:
        AddEdge(u, v);
        AddEdge(v, u);
        break;
      case CompOp::kNe:
        unequal_.push_back({u, v});
        break;
      case CompOp::kGe:
        AddEdge(v, u);
        break;
      case CompOp::kGt:
        AddEdge(v, u);
        strict_.push_back({v, u});
        break;
    }
  };
  for (size_t i = 0; i < comparisons.size(); ++i) {
    if (static_cast<int>(i) != skip) add(comparisons[i]);
  }
  if (extra != nullptr) add(*extra);
  // The numeric order of the constants, so that any constraint
  // contradicting it closes a strict cycle.
  for (size_t i = 1; i < constants_.size(); ++i) {
    add({constants_[i - 1], CompOp::kLt, constants_[i]});
  }

  // Warshall over the touched terms: afterwards row u holds every term
  // reachable from u by a non-empty <=-path.
  for (const int k : active_) {
    const uint64_t* row_k = Row(k);
    for (const int i : active_) {
      if (!Reaches(i, k)) continue;
      uint64_t* row_i = Row(i);
      for (size_t w = 0; w < words_; ++w) row_i[w] |= row_k[w];
    }
  }
  for (const auto& [u, v] : strict_) {
    if (u == v || Reaches(v, u)) return false;
  }
  for (const auto& [u, v] : unequal_) {
    if (u == v || (Reaches(u, v) && Reaches(v, u))) return false;
  }
  return true;
}

void AcCore::RemoveRedundant(std::vector<IdComparison>* comparisons) {
  if (!Satisfiable(*comparisons)) return;
  for (size_t i = 0; i < comparisons->size();) {
    if (Implies(*comparisons, static_cast<int>(i), (*comparisons)[i])) {
      comparisons->erase(comparisons->begin() + i);
    } else {
      ++i;
    }
  }
}

bool AcCore::ForcedEqualities(const std::vector<IdComparison>& comparisons,
                              std::vector<int>* representative) {
  if (!Satisfiable(comparisons)) return false;
  representative->resize(terms_.size());
  for (int u = 0; u < size(); ++u) (*representative)[u] = u;
  // Over a dense order the forced equalities are exactly the strongly
  // connected components of the <=-graph: a != b stays consistent unless
  // there are <=-paths both ways.  A satisfiable component holds at most
  // one constant; it wins, else the least variable name.
  for (const int u : active_) {
    int rep = u;
    for (const int v : active_) {
      if (v == rep || !Reaches(u, v) || !Reaches(v, u)) continue;
      const Term& best = terms_[rep];
      const Term& t = terms_[v];
      if (t.IsConstant() ||
          (best.IsVariable() && t.IsVariable() && t.name() < best.name())) {
        rep = v;
      }
    }
    (*representative)[u] = rep;
  }
  return true;
}

namespace {

std::vector<IdComparison> InternAll(AcCore* core,
                                    const std::vector<Comparison>& comparisons) {
  std::vector<IdComparison> ids;
  ids.reserve(comparisons.size());
  for (const Comparison& c : comparisons) ids.push_back(core->Intern(c));
  return ids;
}

}  // namespace

bool AcSolver::IsSatisfiable(const std::vector<Comparison>& comparisons) {
  AcCore core;
  const std::vector<IdComparison> ids = InternAll(&core, comparisons);
  return core.Satisfiable(ids);
}

bool AcSolver::ImpliesAll(const std::vector<Comparison>& axioms,
                          const std::vector<Comparison>& conclusions) {
  AcCore core;
  const std::vector<IdComparison> ids = InternAll(&core, axioms);
  for (const Comparison& c : conclusions) {
    if (!core.Implies(ids, -1, core.Intern(c))) return false;
  }
  return true;
}

std::optional<Substitution> AcSolver::ForcedEqualities(
    const std::vector<Comparison>& comparisons) {
  AcCore core;
  const std::vector<IdComparison> ids = InternAll(&core, comparisons);
  std::vector<int> representative;
  if (!core.ForcedEqualities(ids, &representative)) return std::nullopt;
  Substitution result;
  for (int u = 0; u < core.size(); ++u) {
    if (core.term(u).IsVariable() && representative[u] != u) {
      result.Bind(core.term(u).name(), core.term(representative[u]));
    }
  }
  return result;
}

bool AcSolver::SatisfiedBy(const std::vector<Comparison>& comparisons,
                           const std::map<std::string, Rational>& assignment) {
  auto value_of = [&assignment](const Term& t,
                                Rational* out) -> bool {
    if (t.IsConstant()) {
      *out = t.value();
      return true;
    }
    auto it = assignment.find(t.name());
    if (it == assignment.end()) return false;
    *out = it->second;
    return true;
  };
  for (const Comparison& c : comparisons) {
    Rational a, b;
    if (!value_of(c.lhs(), &a) || !value_of(c.rhs(), &b)) return false;
    if (!EvalCompOp(a, c.op(), b)) return false;
  }
  return true;
}

std::vector<Comparison> AcSolver::RemoveRedundant(
    std::vector<Comparison> comparisons) {
  AcCore core;
  std::vector<IdComparison> ids = InternAll(&core, comparisons);
  core.RemoveRedundant(&ids);
  if (ids.size() == comparisons.size()) return comparisons;
  std::vector<Comparison> kept;
  kept.reserve(ids.size());
  for (const IdComparison& c : ids) kept.push_back(core.ToComparison(c));
  return kept;
}

}  // namespace cqac
