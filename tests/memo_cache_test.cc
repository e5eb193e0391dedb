#include "runtime/memo_cache.h"

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(NormalizedQueryKeyTest, AlphaEquivalentQueriesShareKeys) {
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y), X <= 5");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("h(A) :- p(A,B), r(B), A <= 5");
  EXPECT_EQ(NormalizedQueryKey(q1), NormalizedQueryKey(q2));
}

TEST(NormalizedQueryKeyTest, DistinguishesStructure) {
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)");
  const ConjunctiveQuery swapped =
      Parser::MustParseRule("q(X) :- p(Y,X), r(Y)");
  const ConjunctiveQuery different_constant =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y), X <= 5");
  const ConjunctiveQuery collapsed =
      Parser::MustParseRule("q(X) :- p(X,X), r(X)");
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(swapped));
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(different_constant));
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(collapsed));
}

}  // namespace
}  // namespace cqac
