// Differential and property tests for the incremental Phase-1 pipeline:
// the prefix-pruned satisfying-order enumeration (against the naive
// enumerate-then-filter reference), delta freezing, the indexed frozen-tuple matcher, and the Phase-1 memo.

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_tuples.h"
#include "runtime/memo_cache.h"
#include "testing/corpus.h"
#include "testing/differential.h"
#include "testing/phase1_keys.h"
#include "workload/generator.h"

namespace cqac {
namespace {

// ---------------------------------------------------------------------------
// Random AC patterns.

struct Pattern {
  std::vector<std::string> variables;
  std::vector<Rational> constants;
  std::vector<Comparison> axioms;
};

Pattern RandomPattern(std::mt19937* rng) {
  Pattern p;
  std::uniform_int_distribution<int> num_vars(2, 5);
  std::uniform_int_distribution<int> num_consts(0, 2);
  std::uniform_int_distribution<int> num_axioms(0, 5);
  const int v = num_vars(*rng);
  for (int i = 0; i < v; ++i) p.variables.push_back("X" + std::to_string(i));
  const int c = num_consts(*rng);
  for (int i = 0; i < c; ++i) p.constants.push_back(Rational(3 * i + 1));

  std::uniform_int_distribution<int> op_pick(0, 5);
  const CompOp ops[] = {CompOp::kLt, CompOp::kLe, CompOp::kEq,
                        CompOp::kNe, CompOp::kGe, CompOp::kGt};
  // Terms: the pattern's variables and constants, with a small chance of an
  // out-of-universe constant or variable to exercise the fallback path.
  auto term = [&]() -> Term {
    std::uniform_int_distribution<int> pick(0, v + c + 1);
    const int t = pick(*rng);
    if (t < v) return Term::Variable(p.variables[t]);
    if (t < v + c) return Term::Constant(p.constants[t - v]);
    std::uniform_int_distribution<int> kind(0, 9);
    if (kind(*rng) == 0) return Term::Variable("Z_out");
    if (kind(*rng) == 1) return Term::Constant(Rational(999));
    // Mostly stay in-universe so the fast path gets real coverage.
    std::uniform_int_distribution<int> again(0, v + c - 1);
    const int u = again(*rng);
    return u < v ? Term::Variable(p.variables[u])
                 : Term::Constant(p.constants[u - v]);
  };
  const int a = num_axioms(*rng);
  for (int i = 0; i < a; ++i) {
    p.axioms.push_back(Comparison(term(), ops[op_pick(*rng)], term()));
  }
  return p;
}

TEST(PrunedOrderDifferentialTest, MatchesLegacyOn500Patterns) {
  std::mt19937 rng(20260807);
  for (int round = 0; round < 500; ++round) {
    const Pattern p = RandomPattern(&rng);

    std::vector<std::string> legacy;
    OrderEnumerationStats legacy_stats;
    internal::ForEachSatisfyingOrderLegacy(
        p.variables, p.constants, p.axioms,
        [&legacy](const TotalOrder& order) {
          legacy.push_back(order.ToString());
          return true;
        },
        &legacy_stats);

    // Exactly the same sequence, in the same order.
    std::vector<std::string> pruned;
    OrderEnumerationStats pruned_stats;
    ForEachSatisfyingOrder(
        p.variables, p.constants, p.axioms,
        [&pruned](const TotalOrder& order) {
          pruned.push_back(order.ToString());
          return true;
        },
        &pruned_stats);
    ASSERT_EQ(pruned, legacy) << "round " << round;
    EXPECT_EQ(pruned_stats.orders_emitted, legacy_stats.orders_emitted);
    EXPECT_LE(pruned_stats.nodes_visited, legacy_stats.nodes_visited);
  }
}

TEST(PrunedOrderDifferentialTest, EarlyStopIsHonored) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    const Pattern p = RandomPattern(&rng);
    int64_t total = 0;
    ForEachSatisfyingOrder(p.variables, p.constants, p.axioms,
                           [&total](const TotalOrder&) { return ++total < 3; });
    int64_t legacy_total = 0;
    internal::ForEachSatisfyingOrderLegacy(
        p.variables, p.constants, p.axioms,
        [&legacy_total](const TotalOrder&) { return ++legacy_total < 3; });
    EXPECT_EQ(total, legacy_total);
  }
}

TEST(PrunedOrderTest, ChainPrunesAtLeastFiveFold) {
  // The bench_canonical chained workload: X0 < X1 < ... < X4.  The naive
  // tree has 1+1+3+13+75+541 = 634 nodes; the pruned tree admits exactly
  // one placement per level.
  std::vector<std::string> vars;
  std::vector<Comparison> axioms;
  for (int i = 0; i < 5; ++i) vars.push_back("X" + std::to_string(i));
  for (int i = 0; i + 1 < 5; ++i) {
    axioms.push_back(Comparison(Term::Variable(vars[i]), CompOp::kLt,
                                Term::Variable(vars[i + 1])));
  }
  OrderEnumerationStats legacy_stats;
  internal::ForEachSatisfyingOrderLegacy(
      vars, {}, axioms, [](const TotalOrder&) { return true; },
      &legacy_stats);
  OrderEnumerationStats pruned_stats;
  ForEachSatisfyingOrder(
      vars, {}, axioms, [](const TotalOrder&) { return true; },
      &pruned_stats);
  EXPECT_EQ(legacy_stats.nodes_visited, 634);
  EXPECT_EQ(legacy_stats.orders_emitted, 1);
  EXPECT_EQ(pruned_stats.orders_emitted, 1);
  EXPECT_EQ(pruned_stats.nodes_visited, 6);
  EXPECT_GE(legacy_stats.nodes_visited, 5 * pruned_stats.nodes_visited);
}

TEST(PrunedOrderTest, TransitiveClosurePrunesImpliedViolations) {
  // X < Y, Y < Z: placing Z before X violates only the *implied* X < Z.
  // The closure catches it at Z's placement; count stays well below the
  // direct-checks-only tree.
  const std::vector<std::string> vars = {"X", "Z", "Y"};
  const std::vector<Comparison> axioms = {
      Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("Y")),
      Comparison(Term::Variable("Y"), CompOp::kLt, Term::Variable("Z"))};
  OrderEnumerationStats stats;
  std::vector<std::string> orders;
  ForEachSatisfyingOrder(
      vars, {}, axioms,
      [&orders](const TotalOrder& order) {
        orders.push_back(order.ToString());
        return true;
      },
      &stats);
  ASSERT_EQ(orders, std::vector<std::string>{"X < Y < Z"});
  // Root + X + {Z after X} + {Y between}: the X-Z-inverted subtree dies at
  // Z's placement, before Y is ever tried.
  EXPECT_EQ(stats.nodes_visited, 4);
}

TEST(PrunedOrderTest, UnsatisfiableAxiomsEmitNothing) {
  const std::vector<std::string> vars = {"X", "Y"};
  const std::vector<Comparison> cases[] = {
      {Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("X"))},
      {Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("Y")),
       Comparison(Term::Variable("Y"), CompOp::kLt, Term::Variable("X"))},
      {Comparison(Term::Constant(Rational(3)), CompOp::kGt,
                  Term::Constant(Rational(5)))},
      {Comparison(Term::Variable("X"), CompOp::kLe,
                  Term::Constant(Rational(1))),
       Comparison(Term::Variable("X"), CompOp::kGe,
                  Term::Constant(Rational(2)))}};
  for (const auto& axioms : cases) {
    std::vector<Rational> constants;
    for (const Comparison& c : axioms) {
      if (c.lhs().IsConstant()) constants.push_back(c.lhs().value());
      if (c.rhs().IsConstant()) constants.push_back(c.rhs().value());
    }
    int64_t emitted = 0;
    ForEachSatisfyingOrder(
        vars, constants, axioms,
        [&emitted](const TotalOrder&) {
          ++emitted;
          return true;
        });
    EXPECT_EQ(emitted, 0);
  }
}

// ---------------------------------------------------------------------------
// Delta freezing: a freezer that patches rows in place across an arbitrary
// order walk must produce the same instance a from-scratch refill does.

std::string SerializeInstance(const CanonicalFreezer& freezer) {
  const FlatInstance& inst = freezer.instance();
  std::string s;
  for (uint32_t rel = 0; rel < inst.NumRelations(); ++rel) {
    s += "rel" + std::to_string(rel) + ":";
    // Rows are multiset-semantics but the freezer's row layout is fixed,
    // so even the row order must agree.
    for (size_t r = 0; r < inst.RowCount(rel); ++r) {
      s += "(";
      for (int a = 0; a < inst.Arity(rel); ++a) {
        s += inst.Row(rel, r)[a].ToString() + ",";
      }
      s += ")";
    }
    s += ";";
  }
  s += "head:(";
  for (const Rational& v : freezer.frozen_head()) s += v.ToString() + ",";
  s += ")";
  return s;
}

TEST(DeltaFreezeTest, MatchesFullFreezeAcrossFullEnumeration) {
  const std::vector<ConjunctiveQuery> queries = {
      Parser::MustParseRule("q(X) :- r(X, Y), s(Y, Z), X < 3"),
      Parser::MustParseRule("q() :- p(A), p(B), r(A, B)"),
      Parser::MustParseRule("q(U, V) :- e(U, W), e(W, V), f(W)"),
  };
  for (const ConjunctiveQuery& q : queries) {
    CanonicalFreezer delta(q);
    CanonicalFreezer full(q);
    const std::vector<Rational> constants = q.Constants();
    int64_t orders = 0;
    ForEachTotalOrder(q.AllVariables(), constants,
                      [&](const TotalOrder& order) {
                        delta.Freeze(order);
                        full.FreezeFull(order);
                        EXPECT_EQ(SerializeInstance(delta),
                                  SerializeInstance(full))
                            << q.ToString() << " on " << order.ToString();
                        return ++orders < 2000;
                      });
    EXPECT_GT(orders, 0);
  }
}

TEST(DeltaFreezeTest, PurityAfterArbitraryJumps) {
  // The delta path must be a function of the current order only: revisit
  // orders in a shuffled sequence and require byte-equal instances on the
  // repeat visit.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- r(X, Y), s(Y, Z), t(Z, W)");
  const std::vector<TotalOrder> orders =
      EnumerateTotalOrders(q.AllVariables(), {});
  CanonicalFreezer delta(q);
  std::map<std::string, std::string> first_visit;
  std::vector<size_t> sequence;
  std::mt19937 rng(42);
  std::uniform_int_distribution<size_t> pick(0, orders.size() - 1);
  for (int i = 0; i < 500; ++i) sequence.push_back(pick(rng));
  for (const size_t i : sequence) {
    delta.Freeze(orders[i]);
    const std::string s = SerializeInstance(delta);
    const auto [it, inserted] =
        first_visit.emplace(orders[i].ToString(), s);
    if (!inserted) {
      EXPECT_EQ(it->second, s) << "revisit of " << orders[i].ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// The slot path: a freezer bound once to an enumeration's layout, reading
// OrderStates, against the TotalOrder reference path.

/// Queries over 0-3 constants, one with a comparison-only variable (C).
std::vector<ConjunctiveQuery> SlotPathQueries() {
  return {
      Parser::MustParseRule("q() :- p(A), p(B), r(A, B)"),
      Parser::MustParseRule("q(X) :- r(X, Y), s(Y, Z), X < 3"),
      Parser::MustParseRule("q(A) :- r(A, B), s(B, 5), A < C, C <= 9"),
      Parser::MustParseRule(
          "q(U, V) :- e(U, W), e(W, V), f(W), U <= 2, V >= 7, W != 4"),
  };
}

/// `freezer` bound to the layout of an enumeration over `variables` and
/// `constants`, as Phase 1 binds its freezer.
void BindToLayout(const std::vector<std::string>& variables,
                  const std::vector<Rational>& constants,
                  CanonicalFreezer* freezer) {
  std::vector<uint32_t> reps;
  for (const std::string& v : variables) {
    reps.push_back(freezer->VariableRepId(v));
  }
  freezer->BindLayout(reps, constants);
}

TEST(SlotFreezeTest, BlockValuesMatchTotalOrderOnEveryOrder) {
  for (const ConjunctiveQuery& q : SlotPathQueries()) {
    const std::vector<std::string> variables = q.AllVariables();
    const std::vector<Rational> constants = OrderConstants(q.Constants());
    CanonicalFreezer freezer(q);
    BindToLayout(variables, constants, &freezer);
    const OrderEnumerator tree(static_cast<int>(variables.size()),
                               static_cast<int>(constants.size()));
    OrderState root = tree.Root();
    TotalOrder order;
    std::vector<Rational> expected;
    int64_t orders = 0;
    tree.Walk(&root, tree.num_variables(), [&](const OrderState& state) {
      freezer.Freeze(state);
      RenderOrder(state, variables, constants, &order);
      order.BlockValues(&expected);
      EXPECT_EQ(freezer.block_values(), expected)
          << q.ToString() << " on " << order.ToString();
      ++orders;
      return true;
    });
    EXPECT_EQ(orders, CountTotalOrders(static_cast<int>(variables.size()),
                                       static_cast<int>(constants.size())));
  }
}

/// The slot freezer's whole view of the last order: instance, head, and
/// per-slot blocks and per-block representatives.
std::string SerializeSlotView(const CanonicalFreezer& freezer) {
  std::string s = SerializeInstance(freezer) + "|blocks:";
  for (const uint32_t b : freezer.var_blocks()) s += std::to_string(b) + ",";
  s += "|reps:";
  for (const uint32_t r : freezer.block_rep_ids()) s += std::to_string(r) + ",";
  return s;
}

TEST(SlotFreezeTest, MatchesFullFreezeOfTheRenderedOrder) {
  std::mt19937 rng(28);
  for (const ConjunctiveQuery& q : SlotPathQueries()) {
    const std::vector<std::string> variables = q.AllVariables();
    const std::vector<Rational> constants = OrderConstants(q.Constants());
    const int n = static_cast<int>(variables.size());
    const OrderEnumerator tree(n, static_cast<int>(constants.size()));
    CanonicalFreezer slot(q);
    BindToLayout(variables, constants, &slot);
    CanonicalFreezer reference(q);
    TotalOrder order;
    int64_t compared = 0;
    const OrderEnumerator::Visitor check = [&](const OrderState& state) {
      slot.Freeze(state);
      RenderOrder(state, variables, constants, &order);
      reference.FreezeFull(order);
      EXPECT_EQ(SerializeSlotView(slot), SerializeSlotView(reference))
          << q.ToString() << " on " << order.ToString();
      ++compared;
      return true;
    };
    // The whole tree in enumeration order: consecutive orders differ in
    // few blocks, the delta path's common case.
    OrderState root = tree.Root();
    tree.Walk(&root, n, check);
    // Subtrees in shuffled order: every subtree's first order is a jump.
    std::vector<OrderState> prefixes;
    tree.Walk(&root, std::min(n, 2), [&prefixes](const OrderState& prefix) {
      prefixes.push_back(prefix);
      return true;
    });
    std::shuffle(prefixes.begin(), prefixes.end(), rng);
    for (OrderState& prefix : prefixes) tree.Walk(&prefix, n, check);
    EXPECT_EQ(compared, 2 * CountTotalOrders(
                                n, static_cast<int>(constants.size())));
  }
}

// ---------------------------------------------------------------------------
// Indexed frozen-tuple matcher: verdict-identical to the per-tuple
// MatchesFrozenViewTuple scan on every canonical database.

TEST(FrozenTupleMatcherTest, MatchesLegacyScanOnWorkload) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  config.seed = 1000;
  const WorkloadInstance instance = WorkloadGenerator(config).Generate();
  const RewriteOptions options;
  const RewriteWork work =
      PrepareRewriteWork(instance.query, instance.views, options);
  ASSERT_FALSE(work.mcds.empty());

  CanonicalFreezer freezer(instance.query);
  ViewTupleEvaluator evaluator(instance.views);
  std::vector<Atom> mcd_tuples;
  for (const Mcd& mcd : work.mcds) mcd_tuples.push_back(mcd.view_tuple);
  FrozenTupleMatcher matcher(mcd_tuples, freezer);

  int64_t orders = 0;
  ForEachTotalOrder(
      instance.query.AllVariables(), work.constants,
      [&](const TotalOrder& order) {
        // Legacy path: map-based database, per-tuple scan.
        const CanonicalDatabase cdb = FreezeQuery(instance.query, order);
        const ViewTuples tuples = ComputeViewTuples(instance.views, cdb);
        // New path: delta freeze, epoch-gated evaluation, indexed probe.
        freezer.Freeze(order);
        evaluator.Refresh(freezer);
        EXPECT_EQ(evaluator.total(), tuples.total) << order.ToString();
        matcher.BindDatabase(evaluator);
        for (size_t m = 0; m < work.mcds.size(); ++m) {
          EXPECT_EQ(matcher.Matches(m),
                    MatchesFrozenViewTuple(work.mcds[m].view_tuple, tuples,
                                           cdb))
              << "mcd " << m << " on " << order.ToString();
        }
        return ++orders < 400;
      });
  EXPECT_GT(orders, 0);
}

// ---------------------------------------------------------------------------
// Fingerprint memo: byte-identical results, exhaustive hit+miss coverage.

void ExpectSameResultModuloMemoCounters(const RewriteResult& off,
                                        const RewriteResult& on) {
  EXPECT_EQ(off.outcome, on.outcome);
  EXPECT_EQ(off.failure_reason, on.failure_reason);
  ASSERT_EQ(off.rewriting.size(), on.rewriting.size());
  for (size_t i = 0; i < off.rewriting.disjuncts().size(); ++i) {
    EXPECT_EQ(off.rewriting.disjuncts()[i].ToString(),
              on.rewriting.disjuncts()[i].ToString());
  }
  EXPECT_EQ(off.stats.canonical_databases, on.stats.canonical_databases);
  EXPECT_EQ(off.stats.kept_canonical_databases,
            on.stats.kept_canonical_databases);
  EXPECT_EQ(off.stats.v0_variants, on.stats.v0_variants);
  EXPECT_EQ(off.stats.mcds_formed, on.stats.mcds_formed);
  EXPECT_EQ(off.stats.mcds_kept_total, on.stats.mcds_kept_total);
  EXPECT_EQ(off.stats.view_tuples_total, on.stats.view_tuples_total);
  EXPECT_EQ(off.stats.phase2_checks, on.stats.phase2_checks);
  EXPECT_EQ(off.stats.phase2_orders, on.stats.phase2_orders);
}

TEST(Phase1MemoTest, DedupOnAndOffAreByteIdentical) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  for (uint64_t seed = 1000; seed < 1003; ++seed) {
    config.seed = seed;
    const WorkloadInstance instance = WorkloadGenerator(config).Generate();
    RewriteOptions off_options;
    off_options.phase1_dedup = false;
    RewriteOptions on_options;
    on_options.phase1_dedup = true;
    const RewriteResult off =
        EquivalentRewriter(instance.query, instance.views, off_options).Run();
    const RewriteResult on =
        EquivalentRewriter(instance.query, instance.views, on_options).Run();
    ExpectSameResultModuloMemoCounters(off, on);
    EXPECT_EQ(off.stats.phase1_memo_hits, 0);
    EXPECT_EQ(off.stats.phase1_memo_misses, 0);
    // Every database past the keep-test either hits or misses the memo,
    // except a no-view-tuples short-circuit (which ends the run).
    if (on.outcome == RewriteOutcome::kRewritingFound) {
      EXPECT_EQ(on.stats.phase1_memo_hits + on.stats.phase1_memo_misses,
                on.stats.kept_canonical_databases)
          << "seed " << seed;
      EXPECT_GT(on.stats.phase1_memo_hits, 0) << "seed " << seed;
    }
  }
}

TEST(Phase1MemoTest, ParallelMemoSplitIsDeterministic) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  config.seed = 1002;
  const WorkloadInstance instance = WorkloadGenerator(config).Generate();
  RewriteOptions serial_options;
  serial_options.phase1_dedup = false;
  RewriteOptions parallel_options;
  parallel_options.phase1_dedup = true;
  parallel_options.jobs = 4;
  const RewriteResult serial =
      EquivalentRewriter(instance.query, instance.views, serial_options).Run();
  const RewriteResult first =
      EquivalentRewriter(instance.query, instance.views, parallel_options)
          .Run();
  const RewriteResult second =
      EquivalentRewriter(instance.query, instance.views, parallel_options)
          .Run();
  ExpectSameResultModuloMemoCounters(serial, first);
  ASSERT_EQ(first.outcome, RewriteOutcome::kRewritingFound);
  // Each subtree task owns its memo, so the hit/miss split is a function
  // of the jobs-dependent subtree partition, not of the interleaving.
  EXPECT_EQ(first.stats.phase1_memo_hits, second.stats.phase1_memo_hits);
  EXPECT_EQ(first.stats.phase1_memo_misses, second.stats.phase1_memo_misses);
  EXPECT_EQ(first.stats.phase1_memo_hits + first.stats.phase1_memo_misses,
            first.stats.kept_canonical_databases);
  EXPECT_GT(first.stats.phase1_memo_hits, 0);
}

TEST(Phase1MemoTest, ExplainBypassesTheMemo) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- r(X, Y), X < 5");
  ViewSet views;
  views.Add(Parser::MustParseRule("v(A, B) :- r(A, B)"));
  RewriteOptions options;
  options.explain = true;
  options.phase1_dedup = true;
  const RewriteResult result = EquivalentRewriter(q, views, options).Run();
  EXPECT_EQ(result.stats.phase1_memo_hits, 0);
  EXPECT_EQ(result.stats.phase1_memo_misses, 0);
  EXPECT_FALSE(result.trace.databases.empty());
}

TEST(Phase1MemoTest, CapacityBoundsResidentEntries) {
  Phase1Memo memo(/*capacity=*/32);
  const auto key = [](uint32_t i) { return Phase1Key{i, 7}; };
  for (uint32_t i = 0; i < 1000; ++i) {
    Phase1Entry entry;
    entry.mcds_kept = i;
    memo.Insert(key(i), entry);
    memo.Insert(key(0), entry);  // The first insert of a key wins.
  }
  EXPECT_EQ(memo.size(), 32u);
  // The first 32 keys stay resident; the rest were dropped.
  const Phase1Entry* first = memo.Find(key(0));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->mcds_kept, 0);
  EXPECT_NE(memo.Find(key(31)), nullptr);
  EXPECT_EQ(memo.Find(key(32)), nullptr);
  EXPECT_EQ(memo.Find(key(999)), nullptr);
  EXPECT_EQ(memo.Find(Phase1Key{0}), nullptr);
}

// ---------------------------------------------------------------------------
// Key parity: within a run, two databases share an integer memo key
// exactly when they share the reference string key, and two
// Pre-Rewritings share an integer key exactly when they render equal.

/// Every key pair the observer saw in one run, and the first mismatch.
struct KeyParity {
  std::mutex mu;
  std::map<std::string, Phase1Key> memo_of_string;
  std::map<Phase1Key, std::string> string_of_memo;
  std::map<std::string, Phase1Key> pre_of_string;
  std::map<Phase1Key, std::string> string_of_pre;
  int64_t databases = 0;
  int64_t pre_rewritings = 0;
  std::string mismatch;
};

KeyParity* g_parity = nullptr;

/// Records a <-> b, both directions; false when either already maps to a
/// different partner.
template <typename A, typename B>
bool Pair(std::map<A, B>* forward, std::map<B, A>* backward, const A& a,
          const B& b) {
  const auto f = forward->try_emplace(a, b).first;
  const auto r = backward->try_emplace(b, a).first;
  return f->second == b && r->second == a;
}

void ObserveKeys(const internal::Phase1KeyProbe& probe) {
  const std::string memo_string =
      testing::BuildPhase1Key(*probe.freezer, *probe.evaluator, *probe.order);
  const std::string pre_string = probe.pre_rewriting != nullptr
                                     ? probe.pre_rewriting->ToString()
                                     : std::string();
  std::lock_guard<std::mutex> lock(g_parity->mu);
  ++g_parity->databases;
  if (probe.memo_key == nullptr) {
    g_parity->mismatch = "no memo key";
  } else if (!Pair(&g_parity->memo_of_string, &g_parity->string_of_memo,
                   memo_string, *probe.memo_key) &&
             g_parity->mismatch.empty()) {
    g_parity->mismatch = "memo key of " + memo_string;
  }
  if ((probe.pre_rewriting_key == nullptr) != (probe.pre_rewriting == nullptr)) {
    g_parity->mismatch = "Pre-Rewriting without its key";
  }
  if (probe.pre_rewriting_key == nullptr) return;
  ++g_parity->pre_rewritings;
  if (!Pair(&g_parity->pre_of_string, &g_parity->string_of_pre, pre_string,
            *probe.pre_rewriting_key) &&
      g_parity->mismatch.empty()) {
    g_parity->mismatch = "Pre-Rewriting key of " + pre_string;
  }
}

/// Runs `c` at jobs 1, 2 and 4 under the key observer and checks each
/// run's key classes.  Adds the observed databases and Pre-Rewritings to
/// the totals.
void ExpectKeyParity(const ConjunctiveQuery& query, const ViewSet& views,
                     const std::string& context, int64_t* databases,
                     int64_t* pre_rewritings) {
  for (const int jobs : {1, 2, 4}) {
    KeyParity parity;
    g_parity = &parity;
    internal::SetPhase1KeyObserverForTest(&ObserveKeys);
    RewriteOptions options;
    options.jobs = jobs;
    const RewriteResult result = EquivalentRewriter(query, views, options).Run();
    internal::SetPhase1KeyObserverForTest(nullptr);
    g_parity = nullptr;
    EXPECT_EQ(parity.mismatch, "") << context << " jobs=" << jobs;
    // Every database past the view-tuple step hits or misses the memo.
    // Pooled subtrees past a failure may run but are never merged.
    const int64_t merged =
        result.stats.phase1_memo_hits + result.stats.phase1_memo_misses;
    if (jobs == 1 || result.outcome == RewriteOutcome::kRewritingFound) {
      EXPECT_EQ(parity.databases, merged) << context << " jobs=" << jobs;
    } else {
      EXPECT_GE(parity.databases, merged) << context << " jobs=" << jobs;
    }
    *databases += parity.databases;
    *pre_rewritings += parity.pre_rewritings;
  }
}

TEST(Phase1KeyParityTest, ChainQueries) {
  const ViewSet chain_views(Parser::MustParseProgram(
      "v1(A,C) :- r1(A,B), r2(B,C).\n"
      "v2(C) :- r3(C,D), r4(D,E)."));
  const ViewSet failing_views(Parser::MustParseProgram(
      "v1(A,C) :- r1(A,B), r2(B,C), B <= 8.\n"
      "v2(C) :- r3(C,D), r4(D,E)."));
  const std::string chain =
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), A <= 8";
  int64_t databases = 0;
  int64_t pre_rewritings = 0;
  ExpectKeyParity(Parser::MustParseRule(chain), chain_views, "chain",
                  &databases, &pre_rewritings);
  ExpectKeyParity(Parser::MustParseRule(chain + ", D > B"), failing_views,
                  "chain failure", &databases, &pre_rewritings);
  EXPECT_GT(databases, 1000);
  EXPECT_GT(pre_rewritings, 1000);
}

TEST(Phase1KeyParityTest, CorpusCases) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  ASSERT_FALSE(corpus->empty());
  int64_t databases = 0;
  int64_t pre_rewritings = 0;
  for (const testing::CorpusEntry& entry : *corpus) {
    ExpectKeyParity(entry.c.query, entry.c.views, entry.name, &databases,
                    &pre_rewritings);
  }
  EXPECT_GT(databases, 0);
  EXPECT_GT(pre_rewritings, 0);
}

// The cases cqacfuzz generates (as --dump-workloads draws them), seeds 1-2.
TEST(Phase1KeyParityTest, FuzzGeneratedCases) {
  int64_t databases = 0;
  int64_t pre_rewritings = 0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    std::mt19937_64 meta(seed);
    for (int i = 0; i < 25; ++i) {
      const WorkloadInstance instance =
          WorkloadGenerator(testing::DrawFuzzConfig(meta)).Generate();
      ExpectKeyParity(instance.query, instance.views,
                      "seed " + std::to_string(seed) + " case " +
                          std::to_string(i),
                      &databases, &pre_rewritings);
    }
  }
  EXPECT_GT(databases, 0);
  EXPECT_GT(pre_rewritings, 0);
}

// ---------------------------------------------------------------------------
// PrepareRewriteWork's MCD relations against the quadratic reference.

TEST(PrepareRewriteWorkTest, McdDupOfAndRankMatchTheQuadraticReference) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  int64_t duplicates = 0;
  for (const testing::CorpusEntry& entry : *corpus) {
    const RewriteOptions options;
    const RewriteWork work =
        PrepareRewriteWork(entry.c.query, entry.c.views, options);
    const size_t m = work.mcds.size();
    std::vector<int> dup_of(m);
    std::vector<int> distinct;
    for (size_t i = 0; i < m; ++i) {
      dup_of[i] = static_cast<int>(i);
      for (size_t j = 0; j < i; ++j) {
        if (work.mcds[j].view_tuple == work.mcds[i].view_tuple) {
          dup_of[i] = dup_of[j];
          break;
        }
      }
      if (dup_of[i] == static_cast<int>(i)) {
        distinct.push_back(static_cast<int>(i));
      } else {
        ++duplicates;
      }
    }
    std::sort(distinct.begin(), distinct.end(), [&work](int a, int b) {
      return work.mcds[a].view_tuple < work.mcds[b].view_tuple;
    });
    std::vector<int> rank(m);
    for (size_t r = 0; r < distinct.size(); ++r) {
      rank[distinct[r]] = static_cast<int>(r);
    }
    for (size_t i = 0; i < m; ++i) rank[i] = rank[dup_of[i]];
    EXPECT_EQ(work.mcd_dup_of, dup_of) << entry.name;
    EXPECT_EQ(work.mcd_rank, rank) << entry.name;
  }
  EXPECT_GT(duplicates, 0);
}

}  // namespace
}  // namespace cqac
