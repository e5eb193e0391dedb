#include "testing/phase1_keys.h"

#include <algorithm>
#include <vector>

namespace cqac {
namespace testing {

std::string BuildPhase1Key(const CanonicalFreezer& freezer,
                           const ViewTupleEvaluator& ev,
                           const TotalOrder& order) {
  const std::vector<Rational>& values = freezer.block_values();
  const auto unfreeze = [&](const Rational& value) {
    const auto it = std::lower_bound(values.begin(), values.end(), value);
    if (it == values.end() || *it != value) return Term::Constant(value);
    return order.blocks[it - values.begin()].Representative();
  };
  std::string key;
  for (int v = 0; v < ev.view_count(); ++v) {
    key += '#';
    key += std::to_string(v);
    for (const Tuple& ground : ev.ground(v).tuples()) {
      key += '(';
      for (const Rational& value : ground) {
        key += unfreeze(value).ToString();
        key += ',';
      }
      key += ')';
    }
  }
  key += '|';
  const std::vector<std::string>& names = freezer.slot_names();
  const std::vector<uint32_t>& blocks = freezer.var_blocks();
  for (size_t s = 0; s < names.size(); ++s) {
    key += names[s];
    key += '=';
    key += order.blocks[blocks[s]].Representative().ToString();
    key += ';';
  }
  return key;
}

}  // namespace testing
}  // namespace cqac
