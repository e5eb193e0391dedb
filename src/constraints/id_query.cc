#include "constraints/id_query.h"

#include <utility>

namespace cqac {

IdQuery::IdQuery(const ConjunctiveQuery& q) : head_pred(q.name()) {
  head.reserve(q.head().args().size());
  for (const Term& t : q.head().args()) head.push_back(core.Intern(t));
  body.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    IdAtom atom{PredId(a.predicate()), {}};
    atom.args.reserve(a.args().size());
    for (const Term& t : a.args()) atom.args.push_back(core.Intern(t));
    body.push_back(std::move(atom));
  }
  comparisons.reserve(q.comparisons().size());
  for (const Comparison& c : q.comparisons()) {
    comparisons.push_back(core.Intern(c));
  }
}

int IdQuery::PredId(const std::string& name) {
  for (size_t id = 0; id < preds.size(); ++id) {
    if (preds[id] == name) return static_cast<int>(id);
  }
  preds.push_back(name);
  return static_cast<int>(preds.size()) - 1;
}

void IdQuery::CollectTerms(std::vector<int>* variables,
                           std::vector<int>* constants) const {
  std::vector<char> seen(core.size(), 0);
  auto visit = [&](int id) {
    if (seen[id]) return;
    seen[id] = 1;
    (core.term(id).IsVariable() ? variables : constants)->push_back(id);
  };
  for (const int t : head) visit(t);
  for (const IdAtom& a : body) {
    for (const int t : a.args) visit(t);
  }
  for (const IdComparison& c : comparisons) {
    visit(c.lhs);
    visit(c.rhs);
  }
}

ConjunctiveQuery IdQuery::ToQuery() const {
  std::vector<Term> head_terms;
  head_terms.reserve(head.size());
  for (const int t : head) head_terms.push_back(core.term(t));
  std::vector<Atom> atoms;
  atoms.reserve(body.size());
  for (const IdAtom& a : body) {
    std::vector<Term> args;
    args.reserve(a.args.size());
    for (const int t : a.args) args.push_back(core.term(t));
    atoms.emplace_back(preds[a.pred], std::move(args));
  }
  std::vector<Comparison> comps;
  comps.reserve(comparisons.size());
  for (const IdComparison& c : comparisons) {
    comps.push_back(core.ToComparison(c));
  }
  return ConjunctiveQuery(Atom(head_pred, std::move(head_terms)),
                          std::move(atoms), std::move(comps));
}

}  // namespace cqac
