// Quickstart: find an equivalent rewriting of a conjunctive query with
// arithmetic comparisons (CQAC) using CQAC views.
//
// Walks through the paper's running examples:
//   * Example 1  — a comparison decides which of two near-identical views
//                  is usable;
//   * Examples 5/7/8/9 — the full two-phase algorithm, ending in the union
//                  rewriting  q(A) :- v(A,A), A < 8  UNION  A = 8;
//   * Example 10 — a case with no equivalent rewriting.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"

namespace {

/// Runs one case and prints its outcome; false when a rewriting was found
/// but failed its verification.
bool RunCase(const char* title, const char* query_text,
             const char* views_text) {
  using cqac::EquivalentRewriter;
  using cqac::Parser;
  using cqac::RewriteOptions;
  using cqac::RewriteOutcome;
  using cqac::RewriteResult;
  using cqac::ViewSet;

  std::printf("=== %s ===\n", title);
  const cqac::ConjunctiveQuery query = Parser::MustParseRule(query_text);
  const ViewSet views(Parser::MustParseProgram(views_text));

  std::printf("query:  %s\n", query.ToString().c_str());
  for (const cqac::ConjunctiveQuery& v : views.views()) {
    std::printf("view:   %s\n", v.ToString().c_str());
  }

  RewriteOptions options;
  options.verify = true;           // Double-check equivalence independently.
  options.minimize_output = true;  // Compact union, as in the paper's text.
  const RewriteResult result =
      EquivalentRewriter(query, views, options).Run();

  switch (result.outcome) {
    case RewriteOutcome::kRewritingFound:
      std::printf("equivalent rewriting (%d disjunct%s, verified=%s):\n",
                  result.rewriting.size(),
                  result.rewriting.size() == 1 ? "" : "s",
                  result.verified ? "yes" : "NO");
      for (const cqac::ConjunctiveQuery& d : result.rewriting.disjuncts()) {
        std::printf("  %s\n", d.ToString().c_str());
      }
      break;
    case RewriteOutcome::kNoRewriting:
      std::printf("no equivalent rewriting exists (%s)\n",
                  result.failure_reason.c_str());
      break;
    case RewriteOutcome::kAborted:
      std::printf("aborted: %s\n", result.failure_reason.c_str());
      break;
  }
  std::printf(
      "work: %lld canonical databases (%lld kept), %lld MCDs, "
      "%lld phase-2 checks\n\n",
      static_cast<long long>(result.stats.canonical_databases),
      static_cast<long long>(result.stats.kept_canonical_databases),
      static_cast<long long>(result.stats.mcds_formed),
      static_cast<long long>(result.stats.phase2_checks));
  return result.outcome != RewriteOutcome::kRewritingFound || result.verified;
}

}  // namespace

int main() {
  bool ok = true;
  // Paper Example 1: V1 and V2 differ only in one comparison (S <= U vs
  // S < U), and only V1 supports an equivalent rewriting.
  ok &= RunCase("Example 1: the comparison decides",
                "q(X,X) :- a(X,X), b(X), X < 7",
                "v1(T,U) :- a(S,T), b(U), T <= S, S <= U.\n"
                "v2(T,U) :- a(S,T), b(U), T <= S, S < U.");

  // Paper Examples 5/7/8/9: exportable variables plus a union over the
  // canonical databases A < 8 and A = 8.
  ok &= RunCase("Examples 5-9: exportable variable, union rewriting",
                "q(A) :- r(A), s(A,A), A <= 8",
                "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.");

  // Paper Example 2: no single CQAC works; the union of two views covers
  // the query's closed half-line.
  ok &= RunCase("Example 2: a union is required",
                "q() :- p(X), X >= 0",
                "v1() :- p(X), X = 0.\n"
                "v2() :- p(X), X > 0.");

  // Paper Example 10: the view's strict comparison makes it useless; the
  // algorithm stops in Phase 1.
  ok &= RunCase("Example 10: no rewriting exists",
                "q(A) :- r(A), s(A,A), A <= 8",
                "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X < Z.");

  return ok ? 0 : 1;
}
