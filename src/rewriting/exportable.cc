#include "rewriting/exportable.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_set>

#include "constraints/ac_solver.h"

namespace cqac {

namespace {

/// Enumerates all partitions of `items` (Bell-number many), invoking `fn`
/// with each partition given as a block index per item.
void ForEachPartition(int n, const std::function<void(
                                 const std::vector<int>&)>& fn) {
  std::vector<int> block(n, 0);
  // Restricted-growth strings enumerate set partitions canonically.
  std::function<void(int, int)> rec = [&](int i, int max_used) {
    if (i == n) {
      fn(block);
      return;
    }
    for (int b = 0; b <= max_used + 1 && b <= i; ++b) {
      block[i] = b;
      rec(i + 1, std::max(max_used, b));
    }
  };
  rec(0, -1);
}

/// Hash compatible with `operator==` over the head and body; variants
/// carry no comparisons.
struct VariantHash {
  size_t operator()(const ConjunctiveQuery& q) const {
    size_t h = q.head().Hash();
    for (const Atom& a : q.body()) {
      h ^= a.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

std::vector<ConjunctiveQuery> BuildV0Variants(const ConjunctiveQuery& view) {
  const std::vector<std::string> head_vars = view.HeadVariables();
  const int n = static_cast<int>(head_vars.size());

  // Bell(n) candidates: dedup through a hash set, keeping first
  // occurrences in enumeration order.
  std::vector<ConjunctiveQuery> variants;
  std::unordered_set<ConjunctiveQuery, VariantHash> seen;
  auto add_variant = [&variants, &seen](ConjunctiveQuery candidate) {
    if (seen.insert(candidate).second) {
      variants.push_back(std::move(candidate));
    }
  };

  ForEachPartition(n, [&](const std::vector<int>& block) {
    // Head homomorphism: equate all head variables within a block.
    std::vector<Comparison> axioms = view.comparisons();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (block[i] == block[j]) {
          axioms.push_back(Comparison(Term::Variable(head_vars[i]),
                                      CompOp::kEq,
                                      Term::Variable(head_vars[j])));
        }
      }
    }
    // Inconsistent homomorphisms produce empty views; skip them.
    const std::optional<Substitution> forced =
        AcSolver::ForcedEqualities(axioms);
    if (!forced.has_value()) return;

    // The forced equalities both realize the homomorphism and export any
    // nondistinguished variable now squeezed onto a head variable or
    // constant.  Prefer distinguished representatives so exported
    // variables surface in the head: re-target any binding whose
    // representative is nondistinguished but whose class contains a head
    // variable.
    Substitution remap = *forced;
    for (const std::string& hv : head_vars) {
      if (!remap.IsBound(hv)) continue;
      const Term rep = remap.Lookup(hv);
      if (rep.IsConstant()) continue;
      if (std::find(head_vars.begin(), head_vars.end(), rep.name()) !=
          head_vars.end()) {
        continue;  // Representative already distinguished.
      }
      // Swap: make the head variable the class representative.
      Substitution swapped;
      for (const auto& [var, term] : remap.bindings()) {
        if (var == hv) continue;
        if (term == rep) {
          swapped.Bind(var, Term::Variable(hv));
        } else {
          swapped.Bind(var, term);
        }
      }
      swapped.Bind(rep.name(), Term::Variable(hv));
      remap = swapped;
    }

    const ConjunctiveQuery collapsed = view.ApplySubstitution(remap);
    add_variant(ConjunctiveQuery(collapsed.head(), collapsed.body())
                    .Deduplicated());
  });
  return variants;
}

}  // namespace cqac
