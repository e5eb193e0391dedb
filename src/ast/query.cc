#include "ast/query.h"

#include <algorithm>
#include <ostream>
#include <unordered_set>

namespace cqac {

namespace {

void CollectVariable(const Term& t, std::vector<std::string>* out,
                     std::unordered_set<std::string>* seen) {
  if (t.IsVariable() && seen->insert(t.name()).second) {
    out->push_back(t.name());
  }
}

}  // namespace

std::vector<std::string> ConjunctiveQuery::HeadVariables() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const Term& t : head_.args()) CollectVariable(t, &out, &seen);
  return out;
}

std::vector<std::string> ConjunctiveQuery::BodyVariables() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const Atom& a : body_) {
    for (const Term& t : a.args()) CollectVariable(t, &out, &seen);
  }
  return out;
}

std::vector<std::string> ConjunctiveQuery::AllVariables() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const Term& t : head_.args()) CollectVariable(t, &out, &seen);
  for (const Atom& a : body_) {
    for (const Term& t : a.args()) CollectVariable(t, &out, &seen);
  }
  for (const Comparison& c : comparisons_) {
    CollectVariable(c.lhs(), &out, &seen);
    CollectVariable(c.rhs(), &out, &seen);
  }
  return out;
}

std::vector<Rational> ConjunctiveQuery::Constants() const {
  std::set<Rational, std::less<Rational>> seen;
  auto collect = [&seen](const Term& t) {
    if (t.IsConstant()) seen.insert(t.value());
  };
  for (const Term& t : head_.args()) collect(t);
  for (const Atom& a : body_) {
    for (const Term& t : a.args()) collect(t);
  }
  for (const Comparison& c : comparisons_) {
    collect(c.lhs());
    collect(c.rhs());
  }
  return std::vector<Rational>(seen.begin(), seen.end());
}

bool ConjunctiveQuery::IsDistinguished(const std::string& var) const {
  for (const Term& t : head_.args()) {
    if (t.IsVariable() && t.name() == var) return true;
  }
  return false;
}

bool ConjunctiveQuery::IsSafe() const {
  std::unordered_set<std::string> body_vars;
  for (const Atom& a : body_) {
    for (const Term& t : a.args()) {
      if (t.IsVariable()) body_vars.insert(t.name());
    }
  }
  for (const Term& t : head_.args()) {
    if (t.IsVariable() && body_vars.find(t.name()) == body_vars.end()) {
      return false;
    }
  }
  for (const Comparison& c : comparisons_) {
    for (const Term* t : {&c.lhs(), &c.rhs()}) {
      if (t->IsVariable() && body_vars.find(t->name()) == body_vars.end()) {
        return false;
      }
    }
  }
  return true;
}

ConjunctiveQuery ConjunctiveQuery::WithoutComparisons() const {
  return ConjunctiveQuery(head_, body_);
}

ConjunctiveQuery ConjunctiveQuery::ApplySubstitution(
    const Substitution& s) const {
  std::vector<Atom> new_body;
  new_body.reserve(body_.size());
  for (const Atom& a : body_) new_body.push_back(s.Apply(a));
  std::vector<Comparison> new_comps;
  new_comps.reserve(comparisons_.size());
  for (const Comparison& c : comparisons_) new_comps.push_back(s.Apply(c));
  return ConjunctiveQuery(s.Apply(head_), std::move(new_body),
                          std::move(new_comps));
}

ConjunctiveQuery ConjunctiveQuery::RenameVariables(
    const std::string& prefix, Substitution* renaming_out) const {
  Substitution renaming;
  int counter = 0;
  for (const std::string& v : AllVariables()) {
    renaming.Bind(v, Term::Variable(prefix + std::to_string(counter++)));
  }
  if (renaming_out != nullptr) *renaming_out = renaming;
  return ApplySubstitution(renaming);
}

ConjunctiveQuery ConjunctiveQuery::Deduplicated() const {
  std::vector<Atom> new_body;
  for (const Atom& a : body_) {
    if (std::find(new_body.begin(), new_body.end(), a) == new_body.end()) {
      new_body.push_back(a);
    }
  }
  std::vector<Comparison> new_comps;
  for (const Comparison& c : comparisons_) {
    if (std::find(new_comps.begin(), new_comps.end(), c) == new_comps.end()) {
      new_comps.push_back(c);
    }
  }
  return ConjunctiveQuery(head_, std::move(new_body), std::move(new_comps));
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = head_.ToString() + " :- ";
  bool first = true;
  for (const Atom& a : body_) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString();
  }
  for (const Comparison& c : comparisons_) {
    if (!first) out += ", ";
    first = false;
    out += c.ToString();
  }
  if (first) out += "true";
  return out;
}

std::ostream& operator<<(std::ostream& os, const ConjunctiveQuery& q) {
  return os << q.ToString();
}

std::string UnionQuery::ToString() const {
  std::string out;
  for (const ConjunctiveQuery& q : disjuncts_) {
    if (!out.empty()) out += "\n";
    out += q.ToString();
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const UnionQuery& q) {
  return os << q.ToString();
}

}  // namespace cqac
