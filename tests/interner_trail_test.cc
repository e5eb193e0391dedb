// Tests for the dense-id building blocks of the integer engines: the
// symbol interner (FlatInstance, query plans) and the trail-based binding
// store (the Simplifier's fold search).

#include <string>
#include <vector>

#include "ast/interner.h"
#include "containment/binding_trail.h"
#include "gtest/gtest.h"

namespace cqac {
namespace {

// ---------------------------------------------------------------------------
// SymbolInterner

TEST(SymbolInternerTest, RoundTripsNamesAndIds) {
  SymbolInterner interner;
  const std::vector<std::string> names = {"X", "Y", "p", "q", "_f0", "X1"};
  std::vector<uint32_t> ids;
  for (const std::string& name : names) ids.push_back(interner.Intern(name));
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(interner.NameOf(ids[i]), names[i]);
    EXPECT_EQ(interner.Find(names[i]), ids[i]);
    EXPECT_EQ(interner.Intern(names[i]), ids[i]) << "re-intern must be stable";
  }
  EXPECT_EQ(interner.size(), names.size());
}

TEST(SymbolInternerTest, IdsAreDenseInFirstInternOrder) {
  SymbolInterner interner;
  EXPECT_EQ(interner.Intern("A"), 0u);
  EXPECT_EQ(interner.Intern("B"), 1u);
  EXPECT_EQ(interner.Intern("A"), 0u);
  EXPECT_EQ(interner.Intern("C"), 2u);
}

TEST(SymbolInternerTest, FindOnUnknownReturnsNotFound) {
  SymbolInterner interner;
  interner.Intern("X");
  EXPECT_EQ(interner.Find("Y"), SymbolInterner::kNotFound);
}

TEST(SymbolInternerTest, ClearInvalidatesAndRestartsAtZero) {
  SymbolInterner interner;
  interner.Intern("X");
  interner.Intern("Y");
  interner.Clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.Find("X"), SymbolInterner::kNotFound);
  EXPECT_EQ(interner.Intern("Z"), 0u);
}

// ---------------------------------------------------------------------------
// BindingTrail

TEST(BindingTrailTest, BindAndLookup) {
  BindingTrail trail;
  trail.Reset(4);
  EXPECT_FALSE(trail.IsBound(2));
  trail.Bind(2, 7);
  EXPECT_TRUE(trail.IsBound(2));
  EXPECT_EQ(trail.Get(2), 7);
  EXPECT_EQ(trail.Get(0), BindingTrail::kUnbound);
}

TEST(BindingTrailTest, UndoUnbindsNewestFirstBackToMark) {
  BindingTrail trail;
  trail.Reset(5);
  trail.Bind(0, 10);
  const size_t mark = trail.Mark();
  trail.Bind(3, 11);
  trail.Bind(1, 12);
  ASSERT_EQ(trail.trail().size(), 3u);
  // Trail records binding order, oldest first.
  EXPECT_EQ(trail.trail()[0], 0u);
  EXPECT_EQ(trail.trail()[1], 3u);
  EXPECT_EQ(trail.trail()[2], 1u);

  trail.UndoTo(mark);
  // Exactly the bindings after the mark are gone; the one before survives.
  EXPECT_FALSE(trail.IsBound(3));
  EXPECT_FALSE(trail.IsBound(1));
  EXPECT_TRUE(trail.IsBound(0));
  EXPECT_EQ(trail.Get(0), 10);
  EXPECT_EQ(trail.Mark(), mark);
}

TEST(BindingTrailTest, NestedMarksUndoInLifoOrder) {
  BindingTrail trail;
  trail.Reset(6);
  const size_t m0 = trail.Mark();
  trail.Bind(0, 1);
  const size_t m1 = trail.Mark();
  trail.Bind(1, 2);
  trail.Bind(2, 3);
  const size_t m2 = trail.Mark();
  trail.Bind(3, 4);

  trail.UndoTo(m2);
  EXPECT_TRUE(trail.IsBound(2));
  EXPECT_FALSE(trail.IsBound(3));
  trail.UndoTo(m1);
  EXPECT_TRUE(trail.IsBound(0));
  EXPECT_FALSE(trail.IsBound(1));
  trail.UndoTo(m0);
  EXPECT_FALSE(trail.IsBound(0));
  EXPECT_EQ(trail.trail().size(), 0u);
}

TEST(BindingTrailTest, ResetClearsBindingsAndTrail) {
  BindingTrail trail;
  trail.Reset(3);
  trail.Bind(0, 5);
  trail.Reset(2);
  EXPECT_EQ(trail.num_vars(), 2u);
  EXPECT_FALSE(trail.IsBound(0));
  EXPECT_TRUE(trail.trail().empty());
}

}  // namespace
}  // namespace cqac
