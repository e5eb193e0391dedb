#include "containment/homomorphism.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

// Every containment mapping from `from` to `to`, collected through
// ForEachContainmentMapping.
std::vector<Substitution> AllMappings(const ConjunctiveQuery& from,
                                      const ConjunctiveQuery& to) {
  std::vector<Substitution> all;
  ForEachContainmentMapping(from, to, [&all](const Substitution& s) {
    all.push_back(s);
    return true;
  });
  return all;
}

TEST(UnifyAtomOntoTest, SimpleVariableBinding) {
  const Atom from = Parser::MustParseRule("x() :- a(X,Y)").body()[0];
  const Atom to = Parser::MustParseRule("x() :- a(1,2)").body()[0];
  const auto s = UnifyAtomOnto(from, to, Substitution());
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->Lookup("X"), Term::Constant(1));
  EXPECT_EQ(s->Lookup("Y"), Term::Constant(2));
}

TEST(UnifyAtomOntoTest, PredicateMismatch) {
  const Atom from("a", {Term::Variable("X")});
  const Atom to("b", {Term::Variable("X")});
  EXPECT_FALSE(UnifyAtomOnto(from, to, Substitution()).has_value());
}

TEST(UnifyAtomOntoTest, ArityMismatch) {
  const Atom from("a", {Term::Variable("X")});
  const Atom to("a", {Term::Variable("X"), Term::Variable("Y")});
  EXPECT_FALSE(UnifyAtomOnto(from, to, Substitution()).has_value());
}

TEST(UnifyAtomOntoTest, ConstantMustMatchExactly) {
  const Atom from("a", {Term::Constant(3)});
  EXPECT_TRUE(
      UnifyAtomOnto(from, Atom("a", {Term::Constant(3)}), Substitution())
          .has_value());
  EXPECT_FALSE(
      UnifyAtomOnto(from, Atom("a", {Term::Constant(4)}), Substitution())
          .has_value());
  EXPECT_FALSE(
      UnifyAtomOnto(from, Atom("a", {Term::Variable("X")}), Substitution())
          .has_value());
}

TEST(UnifyAtomOntoTest, RepeatedVariableNeedsEqualImages) {
  const Atom from("a", {Term::Variable("X"), Term::Variable("X")});
  EXPECT_TRUE(UnifyAtomOnto(
                  from, Atom("a", {Term::Constant(1), Term::Constant(1)}),
                  Substitution())
                  .has_value());
  EXPECT_FALSE(UnifyAtomOnto(
                   from, Atom("a", {Term::Constant(1), Term::Constant(2)}),
                   Substitution())
                   .has_value());
}

TEST(UnifyAtomOntoTest, RespectsBaseBindings) {
  Substitution base;
  base.Bind("X", Term::Constant(7));
  const Atom from("a", {Term::Variable("X")});
  EXPECT_FALSE(
      UnifyAtomOnto(from, Atom("a", {Term::Constant(3)}), base).has_value());
  EXPECT_TRUE(
      UnifyAtomOnto(from, Atom("a", {Term::Constant(7)}), base).has_value());
}

TEST(ContainmentMappingTest, IdentityMappingExists) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y)");
  EXPECT_TRUE(FindContainmentMapping(q, q).has_value());
}

TEST(ContainmentMappingTest, MapsOntoSpecializedQuery) {
  const ConjunctiveQuery general = Parser::MustParseRule("q(X) :- a(X,Y)");
  const ConjunctiveQuery special = Parser::MustParseRule("q(X) :- a(X,X)");
  // general -> special exists (Y -> X); witnesses special ⊑ general.
  EXPECT_TRUE(FindContainmentMapping(general, special).has_value());
  // special -> general requires a(X,X) in the target; absent.
  EXPECT_FALSE(FindContainmentMapping(special, general).has_value());
}

TEST(ContainmentMappingTest, HeadMustMapExactly) {
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(X) :- a(X,Y)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(Y) :- a(X,Y)");
  // Mapping q1 -> q2 must send X to Y (head) and then a(Y, ?) must match
  // a(X,Y): fails.
  EXPECT_FALSE(FindContainmentMapping(q1, q2).has_value());
}

TEST(ContainmentMappingTest, HeadConstantsMustAgree) {
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(3) :- a(X)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(4) :- a(X)");
  EXPECT_FALSE(FindContainmentMapping(q1, q2).has_value());
  const ConjunctiveQuery q3 = Parser::MustParseRule("q(3) :- a(Y)");
  EXPECT_TRUE(FindContainmentMapping(q1, q3).has_value());
}

TEST(ContainmentMappingTest, HeadVariableOntoConstant) {
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(X) :- a(X)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(3) :- a(3)");
  EXPECT_TRUE(FindContainmentMapping(q1, q2).has_value());
}

TEST(ContainmentMappingTest, AllMappingsEnumerated) {
  const ConjunctiveQuery from = Parser::MustParseRule("q() :- a(X)");
  const ConjunctiveQuery to = Parser::MustParseRule("q() :- a(U), a(V)");
  const std::vector<Substitution> all = AllMappings(from, to);
  EXPECT_EQ(all.size(), 2u);
}

TEST(ContainmentMappingTest, MappingCountMultiplies) {
  const ConjunctiveQuery from = Parser::MustParseRule("q() :- a(X), b(Y)");
  const ConjunctiveQuery to =
      Parser::MustParseRule("q() :- a(U), a(V), b(W), b(S), b(T)");
  EXPECT_EQ(AllMappings(from, to).size(), 6u);
}

TEST(ContainmentMappingTest, SharedVariableConstrainsChoices) {
  const ConjunctiveQuery from = Parser::MustParseRule("q() :- a(X), b(X)");
  const ConjunctiveQuery to =
      Parser::MustParseRule("q() :- a(1), a(2), b(2), b(3)");
  const std::vector<Substitution> all = AllMappings(from, to);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].Lookup("X"), Term::Constant(2));
}

TEST(ContainmentMappingTest, ForEachStopsEarly) {
  const ConjunctiveQuery from = Parser::MustParseRule("q() :- a(X)");
  const ConjunctiveQuery to =
      Parser::MustParseRule("q() :- a(1), a(2), a(3)");
  int seen = 0;
  ForEachContainmentMapping(from, to, [&seen](const Substitution&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2);
}

TEST(ContainmentMappingTest, EarlyStopVisitsExactlyOneMapping) {
  const ConjunctiveQuery from = Parser::MustParseRule("q(X) :- p(X,Y)");
  const ConjunctiveQuery to =
      Parser::MustParseRule("q(A) :- p(A,B), p(A,C), p(A,D)");
  int visited = 0;
  ForEachContainmentMapping(from, to, [&visited](const Substitution&) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

TEST(ContainmentMappingTest, HandWrittenCornerCaseCounts) {
  struct Case {
    const char* from;
    const char* to;
    size_t mappings;
  };
  const Case cases[] = {
      // Repeated variables and constants in both queries: only
      // p(X,3) -> p(Y,3) after the head sends X to Y.
      {"q(X) :- p(X,X), p(X,3)", "q(Y) :- p(Y,Y), p(Y,3)", 1},
      // Different head predicates: no mappings at all.
      {"q(X) :- p(X,Y)", "r(A) :- p(A,B)", 0},
      // Multiple images per subgoal (fanout), shared variables:
      // Y,Z -> A,A / A,B / B,C.
      {"q(X) :- p(X,Y), p(Y,Z)", "q(A) :- p(A,A), p(A,B), p(B,C)", 3},
      // Constants that only exist on one side.
      {"q(X) :- p(X,5)", "q(A) :- p(A,7)", 0},
      // Boolean queries: r(Y) must follow p(X,Y) onto r(B).
      {"q() :- p(X,Y), r(Y)", "q() :- p(A,B), r(B), r(C)", 1},
      // From-query bigger than to-query: everything folds onto p(A,A).
      {"q(X) :- p(X,Y), p(Y,Z), p(Z,W)", "q(A) :- p(A,A)", 1},
  };
  for (const Case& c : cases) {
    const ConjunctiveQuery from = Parser::MustParseRule(c.from);
    const ConjunctiveQuery to = Parser::MustParseRule(c.to);
    const std::string label = std::string(c.from) + "  vs  " + c.to;
    EXPECT_EQ(AllMappings(from, to).size(), c.mappings) << label;
    EXPECT_EQ(FindContainmentMapping(from, to).has_value(), c.mappings > 0)
        << label;
  }
}

TEST(ContainmentMappingTest, NoMappingWhenPredicateMissing) {
  const ConjunctiveQuery from = Parser::MustParseRule("q() :- c(X)");
  const ConjunctiveQuery to = Parser::MustParseRule("q() :- a(X)");
  EXPECT_FALSE(FindContainmentMapping(from, to).has_value());
}

}  // namespace
}  // namespace cqac
