#include "runtime/memo_cache.h"

#include <atomic>
#include <utility>

#include "ast/comparison.h"

namespace cqac {

// ---------------------------------------------------------------------------
// Phase1Memo
// ---------------------------------------------------------------------------

size_t Phase1KeyHash::operator()(const Phase1Key& key) const {
  uint64_t h = key.size();
  for (const uint32_t word : key) h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32));
}

namespace {

std::atomic<bool> g_key_collisions{false};

/// The 4-bit stand-in key of the key-collision fault.
Phase1Key CollidingKey(const Phase1Key& key) {
  return {static_cast<uint32_t>(Phase1KeyHash{}(key) & 0xF)};
}

}  // namespace

namespace internal {

void SetPhase1MemoKeyCollisionsForTest(bool enabled) {
  g_key_collisions.store(enabled, std::memory_order_relaxed);
}

}  // namespace internal

const Phase1Entry* Phase1Memo::Find(const Phase1Key& key) const {
  const auto it = g_key_collisions.load(std::memory_order_relaxed)
                      ? entries_.find(CollidingKey(key))
                      : entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void Phase1Memo::Insert(const Phase1Key& key, Phase1Entry entry) {
  if (entries_.size() >= capacity_) return;  // The memo stays bounded.
  if (g_key_collisions.load(std::memory_order_relaxed)) {
    entries_.try_emplace(CollidingKey(key), std::move(entry));
    return;
  }
  entries_.try_emplace(key, std::move(entry));  // First wins.
}

// ---------------------------------------------------------------------------
// Key normalization
// ---------------------------------------------------------------------------

namespace {

/// Renames variables to ?0, ?1, ... in first-occurrence order.
class VariableNormalizer {
 public:
  void AppendTerm(const Term& t, std::string* out) {
    if (t.IsConstant()) {
      *out += t.value().ToString();
      return;
    }
    auto [it, inserted] = ids_.emplace(t.name(), ids_.size());
    *out += '?';
    *out += std::to_string(it->second);
  }

 private:
  std::unordered_map<std::string, size_t> ids_;
};

}  // namespace

std::string NormalizedQueryKey(const ConjunctiveQuery& q) {
  VariableNormalizer norm;
  std::string key;
  key.reserve(64);
  // Head: arity and argument pattern only; the predicate name carries no
  // containment semantics.
  key += '(';
  for (const Term& t : q.head().args()) {
    norm.AppendTerm(t, &key);
    key += ',';
  }
  key += ')';
  for (const Atom& a : q.body()) {
    key += a.predicate();
    key += '(';
    for (const Term& t : a.args()) {
      norm.AppendTerm(t, &key);
      key += ',';
    }
    key += ')';
  }
  key += '|';
  for (const Comparison& c : q.comparisons()) {
    norm.AppendTerm(c.lhs(), &key);
    key += CompOpToString(c.op());
    norm.AppendTerm(c.rhs(), &key);
    key += ';';
  }
  return key;
}

}  // namespace cqac
