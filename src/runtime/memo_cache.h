#ifndef CQAC_RUNTIME_MEMO_CACHE_H_
#define CQAC_RUNTIME_MEMO_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/query.h"

namespace cqac {

/// An exact integer key, hashed by Phase1KeyHash.  Phase 1 keys both its
/// memo and its Pre-Rewritings this way (rewriting/equiv_rewriter.cc).
using Phase1Key = std::vector<uint32_t>;

struct Phase1KeyHash {
  size_t operator()(const Phase1Key& key) const;
};

/// What Phase 1 concluded about one canonical database, keyed by the
/// database's structural key (BuildPhase1MemoKey): per view, its ground
/// tuples with every value replaced by the representative id of its
/// order block (CanonicalFreezer::block_rep_ids), then every slot's
/// representative id.  Canonical databases with equal keys provably keep the same MCD
/// set, pass or fail the combination check together, and assemble the
/// same Pre-Rewriting body — so the conclusion is shared and only the
/// order-dependent comparisons are rebuilt per database.
struct Phase1Entry {
  bool combination_exists = false;
  int64_t mcds_kept = 0;
  /// Surviving MCD indices (deduplicated, fold-dropped, sorted by tuple
  /// rank), the body's variables in first-occurrence order, and their
  /// freezer slots (kNoSlot for MCD-fresh variables); valid only within
  /// the run (RewriteWork) that produced them, which is why a Phase1Memo
  /// must never outlive or be shared across runs.
  std::vector<int> body_mcds;
  std::vector<std::string> body_vars;
  std::vector<uint32_t> body_slots;

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
};

/// An insert-only memo from exact Phase-1 keys to Phase-1 conclusions,
/// owned by one thread: the rewriter keeps one per Phase-1 subtree task.
/// The first insert of a key wins; inserts beyond the capacity are dropped
/// — the memo is an accelerator, never a source of truth.  A lookup
/// allocates nothing.
class Phase1Memo {
 public:
  explicit Phase1Memo(size_t capacity = 1 << 16) : capacity_(capacity) {}

  Phase1Memo(const Phase1Memo&) = delete;
  Phase1Memo& operator=(const Phase1Memo&) = delete;

  /// The entry for `key`, or null on a miss.  Valid until the next Insert.
  const Phase1Entry* Find(const Phase1Key& key) const;

  /// Inserts `entry` under `key` unless the key is present or the memo
  /// is full.
  void Insert(const Phase1Key& key, Phase1Entry entry);

  size_t size() const { return entries_.size(); }

 private:
  size_t capacity_;
  std::unordered_map<Phase1Key, Phase1Entry, Phase1KeyHash> entries_;
};

/// A canonical key for a query: atoms and comparisons rendered with every
/// variable renamed to its first-occurrence index (`?0`, `?1`, ...), so
/// alpha-equivalent queries — equal up to a consistent renaming of
/// variables — produce equal keys.  Head predicate names are dropped
/// (containment ignores them); body predicate names are kept.
std::string NormalizedQueryKey(const ConjunctiveQuery& q);

namespace internal {

/// Test-only fault injection: while enabled, every Phase1Memo keys its
/// entries on a 4-bit hash of the key, so unrelated canonical databases
/// share entries and the memo replays wrong conclusions.  The differential
/// harness (cqacfuzz --inject-fault memo) must detect the resulting
/// disagreement and shrink it; that detection is the acceptance test for
/// the whole fuzzing subsystem.  Relaxed atomic: flip only between runs.
void SetPhase1MemoKeyCollisionsForTest(bool enabled);

}  // namespace internal

}  // namespace cqac

#endif  // CQAC_RUNTIME_MEMO_CACHE_H_
