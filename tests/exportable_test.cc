#include "rewriting/exportable.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

bool ContainsVariant(const std::vector<ConjunctiveQuery>& variants,
                     const std::string& rule) {
  const ConjunctiveQuery expected = Parser::MustParseRule(rule);
  return std::any_of(variants.begin(), variants.end(),
                     [&expected](const ConjunctiveQuery& v) {
                       return v.ToString() == expected.ToString();
                     });
}

TEST(ExportableTest, PlainViewHasBaseAndMergedVariants) {
  const ConjunctiveQuery view = Parser::MustParseRule("v(X,Y) :- a(X,Y)");
  const auto variants = BuildV0Variants(view);
  // Partitions {X}{Y} and {X,Y}: the merged one gives v(X,X) :- a(X,X).
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_TRUE(ContainsVariant(variants, "v(X,Y) :- a(X,Y)"));
  EXPECT_TRUE(ContainsVariant(variants, "v(X,X) :- a(X,X)"));
}

TEST(ExportableTest, PaperExample5Export) {
  // v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z: equating Y = Z exports X.
  const ConjunctiveQuery view =
      Parser::MustParseRule("v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z");
  const auto variants = BuildV0Variants(view);
  EXPECT_TRUE(ContainsVariant(variants, "v(Y,Z) :- r(X), s(Y,Z)"));
  EXPECT_TRUE(ContainsVariant(variants, "v(Y,Y) :- r(Y), s(Y,Y)"));
  EXPECT_EQ(variants.size(), 2u);
}

TEST(ExportableTest, PaperExample10NoExport) {
  // Each view keeps only its base variant.  In Example 10 the strict
  // comparison X < Z blocks the export: the Y = Z homomorphism forces
  // Y <= X < Z = Y, unsatisfiable, so it is skipped.  Without comparisons
  // nothing forces Y onto the head.
  const std::pair<const char*, const char*> cases[] = {
      {"v(Y,Z) :- r(X), s(Y,Z), Y <= X, X < Z", "v(Y,Z) :- r(X), s(Y,Z)"},
      {"v(X) :- a(X,Y)", "v(X) :- a(X,Y)"},
  };
  for (const auto& [rule, base] : cases) {
    const auto variants = BuildV0Variants(Parser::MustParseRule(rule));
    ASSERT_EQ(variants.size(), 1u) << rule;
    EXPECT_TRUE(ContainsVariant(variants, base)) << rule;
  }
}

TEST(ExportableTest, PaperExample6TwoExports) {
  const ConjunctiveQuery view = Parser::MustParseRule(
      "v(X,Y,W) :- a(X,Z1), a(Z1,Z2), b(Z2,Y,W), X <= Z1, W <= Z1, Z1 <= Y");
  const auto variants = BuildV0Variants(view);
  // The paper's V1: equate X = Y, exporting Z1 as X.
  EXPECT_TRUE(ContainsVariant(
      variants, "v(X,X,W) :- a(X,X), a(X,Z2), b(Z2,X,W)"));
  // The paper's V2: equate Y = W, exporting Z1 (named W here).
  EXPECT_TRUE(ContainsVariant(
      variants, "v(X,W,W) :- a(X,W), a(W,Z2), b(Z2,W,W)"));
  // Base variant is always present.
  EXPECT_TRUE(ContainsVariant(
      variants, "v(X,Y,W) :- a(X,Z1), a(Z1,Z2), b(Z2,Y,W)"));
}

TEST(ExportableTest, DirectlyForcedEqualityAppliedInBaseVariant) {
  // The comparisons alone force S = T: the base variant already exports S.
  const ConjunctiveQuery view =
      Parser::MustParseRule("v(T) :- a(S,T), T <= S, S <= T");
  const auto variants = BuildV0Variants(view);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_TRUE(ContainsVariant(variants, "v(T) :- a(T,T)"));
}

TEST(ExportableTest, ConstantPinnedVariable) {
  // S is forced equal to 5; the variant should inline the constant.
  const ConjunctiveQuery view =
      Parser::MustParseRule("v(T) :- a(S,T), S <= 5, 5 <= S");
  const auto variants = BuildV0Variants(view);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_TRUE(ContainsVariant(variants, "v(T) :- a(5,T)"));
}

TEST(ExportableTest, BooleanViewHasOneVariant) {
  const ConjunctiveQuery view =
      Parser::MustParseRule("v() :- p(X), X > 0");
  const auto variants = BuildV0Variants(view);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_TRUE(ContainsVariant(variants, "v() :- p(X)"));
}

TEST(ExportableTest, VariantsKeepOriginalPredicateName) {
  const ConjunctiveQuery view =
      Parser::MustParseRule("source(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z");
  for (const ConjunctiveQuery& variant : BuildV0Variants(view)) {
    EXPECT_EQ(variant.name(), "source");
    EXPECT_TRUE(variant.IsPlainCQ());
  }
}

TEST(ExportableTest, PlainViewYieldsBellManyVariants) {
  // Every partition of a plain view's k distinct head variables gives a
  // distinct variant: Bell(k) of them.
  const size_t bell[] = {1, 2, 5, 15, 52, 203, 877};
  for (int k = 1; k <= 7; ++k) {
    std::string args;
    for (int i = 0; i < k; ++i) {
      if (i > 0) args += ",";
      args += "X" + std::to_string(i);
    }
    const ConjunctiveQuery view =
        Parser::MustParseRule("v(" + args + ") :- a(" + args + ")");
    EXPECT_EQ(BuildV0Variants(view).size(), bell[k - 1]) << "k=" << k;
  }
}

}  // namespace
}  // namespace cqac
