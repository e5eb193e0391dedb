// Containment explorer: a tour of the containment machinery underlying
// the rewriting algorithm — Chandra–Merlin mappings for plain CQs, the
// canonical-database test and the order-refinement implication test for
// CQACs, and union containment (where comparisons break the classical
// disjunct-wise criterion).
//
// Build & run:  ./build/examples/containment_explorer

#include <cstdio>

#include "containment/cq_containment.h"
#include "containment/cqac_containment.h"
#include "containment/homomorphism.h"
#include "parser/parser.h"

namespace {

using cqac::ConjunctiveQuery;
using cqac::Parser;

void ShowCq(const char* q1_text, const char* q2_text) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(q1_text);
  const ConjunctiveQuery q2 = Parser::MustParseRule(q2_text);
  const bool c12 = CqContained(q1, q2);
  const bool c21 = CqContained(q2, q1);
  std::printf("  %-42s %s %s\n", q1_text,
              c12 && c21  ? "==="
              : c12       ? "⊑ "
              : c21       ? "⊒ "
                          : "≢ ",
              q2_text);
  const auto mapping = FindContainmentMapping(q2, q1);
  if (mapping.has_value() && !mapping->empty()) {
    std::printf("      witness mapping: %s\n", mapping->ToString().c_str());
  }
}

void ShowCqac(const char* q1_text, const char* q2_text) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(q1_text);
  const ConjunctiveQuery q2 = Parser::MustParseRule(q2_text);
  cqac::ContainmentStats stats;
  const bool canonical = CqacContainedCanonical(q1, q2, &stats);
  const bool implication = CqacContainedImplication(q1, q2);
  std::printf("  %-42s %s %s   [canonical dbs checked: %lld]%s\n", q1_text,
              canonical ? "⊑ " : "⋢ ", q2_text,
              static_cast<long long>(stats.orders_enumerated),
              canonical == implication ? "" : "  METHODS DISAGREE!");
}

}  // namespace

int main() {
  std::printf("--- plain conjunctive queries (Chandra & Merlin) ---\n");
  ShowCq("q(X) :- a(X,X)", "q(X) :- a(X,Y)");
  ShowCq("q() :- a(X,Y), a(Y,Z)", "q() :- a(U,V)");
  ShowCq("q(X) :- a(X,Y), a(X,Z)", "q(X) :- a(X,Y)");
  ShowCq("q(X,Y) :- a(X,Y)", "q(X,Y) :- a(Y,X)");

  std::printf(
      "\n--- arithmetic comparisons (canonical-database test, cross-checked "
      "against the implication test) ---\n");
  // Tight vs loose intervals.
  ShowCqac("q(X) :- a(X), X < 3", "q(X) :- a(X), X < 5");
  ShowCqac("q(X) :- a(X), X <= 3", "q(X) :- a(X), X < 3");
  // Klug's phenomenon: containment that NO single mapping witnesses —
  // the split on the order of U and V needs two mappings.
  ShowCqac("q() :- p(X,Y), p(Y,X)", "q() :- p(U,V), U <= V");
  // Without the symmetric closure it fails.
  ShowCqac("q() :- p(X,Y)", "q() :- p(U,V), U <= V");
  // The paper's Example 1 expansion is equivalent to the query.
  ShowCqac("q(X,X) :- a(X,X), b(X), X < 7",
           "q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7");
  ShowCqac("q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7",
           "q(X,X) :- a(X,X), b(X), X < 7");

  std::printf("\n--- unions: Example 2's closed half-line ---\n");
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- p(X), X >= 0");
  cqac::UnionQuery covers;
  covers.Add(Parser::MustParseRule("q() :- p(X), X = 0"));
  covers.Add(Parser::MustParseRule("q() :- p(X), X > 0"));
  std::printf("  q() :- p(X), X >= 0   vs   {X = 0} UNION {X > 0}\n");
  std::printf("    contained in the union:     %s\n",
              CqacContainedInUnion(q, covers) ? "yes" : "no");
  std::printf("    contained in either alone:  %s / %s\n",
              CqacContained(q, covers.disjuncts()[0]) ? "yes" : "no",
              CqacContained(q, covers.disjuncts()[1]) ? "yes" : "no");
  std::printf("    union equivalent to query:  %s\n",
              UnionCqacEquivalent(cqac::UnionQuery({q}), covers) ? "yes"
                                                                 : "no");
  return 0;
}
