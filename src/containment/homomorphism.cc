#include "containment/homomorphism.h"

namespace cqac {

std::optional<Substitution> UnifyAtomOnto(const Atom& from, const Atom& to,
                                          Substitution base) {
  if (from.predicate() != to.predicate() || from.arity() != to.arity()) {
    return std::nullopt;
  }
  for (int i = 0; i < from.arity(); ++i) {
    const Term& f = from.args()[i];
    const Term& t = to.args()[i];
    if (f.IsConstant()) {
      if (f != t) return std::nullopt;
      continue;
    }
    if (const Term* bound = base.Find(f.name()); bound != nullptr) {
      if (*bound != t) return std::nullopt;
    } else {
      base.Bind(f.name(), t);
    }
  }
  return base;
}

namespace {

/// Backtracking search over `from`'s subgoals in body order, extending a
/// string substitution copied per branch.  Returns false once `fn` asks to
/// stop.
bool SearchMappings(const ConjunctiveQuery& from, const ConjunctiveQuery& to,
                    size_t next_subgoal, const Substitution& current,
                    const std::function<bool(const Substitution&)>& fn) {
  if (next_subgoal == from.body().size()) return fn(current);
  const Atom& subgoal = from.body()[next_subgoal];
  for (const Atom& target : to.body()) {
    std::optional<Substitution> extended =
        UnifyAtomOnto(subgoal, target, current);
    if (!extended.has_value()) continue;
    if (!SearchMappings(from, to, next_subgoal + 1, *extended, fn)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ForEachContainmentMapping(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to,
    const std::function<bool(const Substitution&)>& fn) {
  // Seed: the head of `from` must map exactly onto the head of `to`.
  std::optional<Substitution> seed =
      UnifyAtomOnto(from.head(), to.head(), Substitution());
  if (!seed.has_value()) return;
  SearchMappings(from, to, 0, *seed, fn);
}

std::optional<Substitution> FindContainmentMapping(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to) {
  std::optional<Substitution> found;
  ForEachContainmentMapping(from, to,
                            [&found](const Substitution& s) {
                              found = s;
                              return false;  // Stop at the first mapping.
                            });
  return found;
}

}  // namespace cqac
