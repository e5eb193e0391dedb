#include "workload/generator.h"

#include <algorithm>
#include <set>

#include "constraints/ac_solver.h"
#include "workload/prand.h"

namespace cqac {

namespace {

std::string VarName(int i) { return "X" + std::to_string(i); }

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config)
    : config_(config), rng_(config.seed) {}

int WorkloadGenerator::RandomInt(int lo, int hi) {
  // Not std::uniform_int_distribution: its draw sequence is
  // implementation-defined, which would break cross-platform seed
  // reproducibility (see workload/prand.h).
  return PortableUniformInt(rng_, lo, hi);
}

Rational WorkloadGenerator::RandomConstant() {
  // Constants 10, 20, 30, ...: a fixed pool of size num_constants.
  return Rational(10 * (1 + RandomInt(0, std::max(0, config_.num_constants - 1))));
}

CompOp WorkloadGenerator::RandomOrderOp() {
  switch (RandomInt(0, 3)) {
    case 0:
      return CompOp::kLt;
    case 1:
      return CompOp::kLe;
    case 2:
      return CompOp::kGt;
    default:
      return CompOp::kGe;
  }
}

ConjunctiveQuery WorkloadGenerator::GenerateQuery() {
  // With s binary subgoals at most s+1 distinct variables can occur;
  // clamp so comparisons never pick a variable absent from the body.
  const int n = std::min(config_.num_variables, config_.num_subgoals + 1);
  std::vector<Atom> body;
  // A connected chain: subgoal i joins variable (i mod n) with the next
  // one (guaranteeing all n variables occur) or a random one, so the join
  // graph is connected and the variable budget is met exactly.
  for (int i = 0; i < config_.num_subgoals; ++i) {
    const std::string pred = "p" + std::to_string(RandomInt(
                                 0, std::max(0, config_.num_predicates - 1)));
    const int ai = i % n;
    const int bi = i + 1 < n ? i + 1 : RandomInt(0, n - 1);
    body.push_back(Atom(pred, {Term::Variable(VarName(ai)),
                               Term::Variable(VarName(bi))}));
  }
  // Head: the first one or two variables.
  std::vector<Term> head_args = {Term::Variable(VarName(0))};
  if (n > 1) head_args.push_back(Term::Variable(VarName(1 % n)));
  const Atom head("q", std::move(head_args));

  // Comparisons: variable-vs-constant and occasionally variable-vs-
  // variable, retried until jointly satisfiable.
  std::vector<Comparison> comparisons;
  for (int i = 0; i < config_.num_query_comparisons; ++i) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const bool var_vs_const =
          config_.num_constants > 0 && RandomInt(0, 2) != 0;
      Comparison candidate =
          var_vs_const
              ? Comparison(Term::Variable(VarName(RandomInt(0, n - 1))),
                           RandomOrderOp(), Term::Constant(RandomConstant()))
              : Comparison(Term::Variable(VarName(RandomInt(0, n - 1))),
                           RandomOrderOp(),
                           Term::Variable(VarName(RandomInt(0, n - 1))));
      std::vector<Comparison> with = comparisons;
      with.push_back(candidate);
      if (AcSolver::IsSatisfiable(with)) {
        comparisons.push_back(candidate);
        break;
      }
    }
  }
  return ConjunctiveQuery(head, std::move(body), std::move(comparisons));
}

ConjunctiveQuery WorkloadGenerator::FragmentView(const ConjunctiveQuery& query,
                                                 int index) {
  const int qn = static_cast<int>(query.body().size());
  const int len = std::min(config_.view_subgoals, qn);
  const int start = RandomInt(0, qn - len);

  std::vector<Atom> body(query.body().begin() + start,
                         query.body().begin() + start + len);

  // Variables the rest of the query or the head still needs must be
  // exported; export everything the fragment touches to keep the views
  // widely usable (projections would only shrink the search space).
  std::vector<Term> head_args;
  std::set<std::string> seen;
  for (const Atom& a : body) {
    for (const Term& t : a.args()) {
      if (t.IsVariable() && seen.insert(t.name()).second) {
        head_args.push_back(t);
      }
    }
  }
  // Occasionally drop the last exported variable to force MiniCon to
  // reason about nondistinguished variables.
  if (head_args.size() > 1 && RandomInt(0, 3) == 0) head_args.pop_back();

  // Comparisons: the query's comparisons over the fragment's variables,
  // each kept verbatim or relaxed.
  std::vector<Comparison> comparisons;
  for (const Comparison& c : query.comparisons()) {
    auto in_fragment = [&seen](const Term& t) {
      return t.IsConstant() || seen.count(t.name()) > 0;
    };
    if (!in_fragment(c.lhs()) || !in_fragment(c.rhs())) continue;
    Comparison kept = c;
    if (RandomInt(0, 1) == 0) {
      // Relax: open to closed.
      if (kept.op() == CompOp::kLt) {
        kept = Comparison(kept.lhs(), CompOp::kLe, kept.rhs());
      } else if (kept.op() == CompOp::kGt) {
        kept = Comparison(kept.lhs(), CompOp::kGe, kept.rhs());
      }
    }
    comparisons.push_back(kept);
  }

  const Atom head("v" + std::to_string(index), std::move(head_args));
  ConjunctiveQuery view(head, std::move(body), std::move(comparisons));
  // Views get their own variable namespace.
  return view.RenameVariables("Y" + std::to_string(index) + "_");
}

ConjunctiveQuery WorkloadGenerator::DistractorView(int index) {
  std::vector<Atom> body;
  const int n = std::max(2, config_.num_variables);
  for (int i = 0; i < config_.view_subgoals; ++i) {
    const std::string pred = "p" + std::to_string(RandomInt(
                                 0, std::max(0, config_.num_predicates - 1)));
    body.push_back(Atom(pred, {Term::Variable(VarName(RandomInt(0, n - 1))),
                               Term::Variable(VarName(RandomInt(0, n - 1)))}));
  }
  std::vector<Term> head_args;
  std::set<std::string> seen;
  for (const Atom& a : body) {
    for (const Term& t : a.args()) {
      if (t.IsVariable() && seen.insert(t.name()).second) {
        head_args.push_back(t);
      }
    }
  }
  std::vector<Comparison> comparisons;
  // Distractor comparisons are var-vs-const (semi-interval).
  if (config_.num_constants > 0) {
    comparisons.push_back(Comparison(head_args.front(), RandomOrderOp(),
                                     Term::Constant(RandomConstant())));
  }
  const Atom head("v" + std::to_string(index), std::move(head_args));
  ConjunctiveQuery view(head, std::move(body), std::move(comparisons));
  return view.RenameVariables("Z" + std::to_string(index) + "_");
}

WorkloadInstance WorkloadGenerator::Generate() {
  WorkloadInstance instance;
  instance.query = GenerateQuery();
  const int distractors = static_cast<int>(config_.num_views *
                                           config_.distractor_fraction);
  for (int i = 0; i < config_.num_views; ++i) {
    if (i < config_.num_views - distractors) {
      instance.views.Add(FragmentView(instance.query, i));
    } else {
      instance.views.Add(DistractorView(i));
    }
  }
  return instance;
}

}  // namespace cqac
