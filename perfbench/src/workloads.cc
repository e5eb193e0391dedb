#include "workloads.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <utility>

#include "parser/parser.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using cqac::Atom;
using cqac::Comparison;
using cqac::ConjunctiveQuery;
using cqac::Rational;
using cqac::Term;

/// A point of the paper's Fig. 4 grid and the generator seeds drawn there.
/// The shape follows bench/bench_fig4{a,b,c}.cc: Fig4a fixes 4 variables
/// + 2 constants, Fig4b/c put one constant among `terms`.
struct GridPoint {
  const char* label;
  int terms;
  int views;
  bool two_constants;
  std::vector<uint64_t> generator_seeds;
};

cqac::WorkloadConfig PointConfig(const GridPoint& p, uint64_t generator_seed) {
  cqac::WorkloadConfig config;
  config.num_constants = p.two_constants ? 2 : (p.terms >= 4 ? 1 : 0);
  config.num_variables = p.terms - config.num_constants;
  config.num_subgoals = std::max(3, config.num_variables - 1);
  config.view_subgoals = 2;
  config.num_views = p.views;
  config.seed = generator_seed;
  return config;
}

/// Everything the seed is allowed to change: names and constant values.
class Renamer {
 public:
  explicit Renamer(uint64_t seed) : rng_(seed) {}

  int Uniform(int lo, int hi) {  // inclusive; modulo keeps it portable
    return lo + static_cast<int>(rng_() % static_cast<uint64_t>(hi - lo + 1));
  }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Uniform(0, static_cast<int>(i) - 1))]);
    }
  }

  /// `n` distinct variable names: an upper-case letter and a number.
  std::vector<std::string> VariableNames(size_t n) {
    std::set<std::string> used;
    std::vector<std::string> out;
    while (out.size() < n) {
      std::string name(1, static_cast<char>('A' + Uniform(0, 25)));
      name += std::to_string(Uniform(0, 99));
      if (used.insert(name).second) out.push_back(name);
    }
    return out;
  }

  /// A stable lower-case name for `original` within `space`.
  const std::string& Symbol(const std::string& space,
                            const std::string& original) {
    auto& names = symbols_[space];
    auto it = names.find(original);
    if (it != names.end()) return it->second;
    std::set<std::string>& used = used_symbols_[space];
    std::string name;
    do {
      name = std::string(1, static_cast<char>('a' + Uniform(0, 25))) +
             std::to_string(Uniform(0, 999));
    } while (!used.insert(name).second);
    return names.emplace(original, name).first->second;
  }

  /// Draws an order-preserving replacement for every constant in `c`.
  void MapConstants(std::vector<Rational> c) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    int64_t next = Uniform(1, 40);
    for (const Rational& r : c) {
      if (constants_.count(r) == 0) constants_[r] = Rational(next);
      next += Uniform(1, 9);
    }
  }

  Term MapTerm(const Term& t, const std::map<std::string, std::string>& vars) {
    if (t.IsVariable()) return Term::Variable(vars.at(t.name()));
    return Term::Constant(constants_.at(t.value()));
  }

  /// `q` with fresh variable names, mapped predicates and constants, and
  /// head predicate `head` (the view name; "q" for queries).
  ConjunctiveQuery Apply(const ConjunctiveQuery& q, const std::string& head) {
    const std::vector<std::string> originals = q.AllVariables();
    const std::vector<std::string> fresh = VariableNames(originals.size());
    std::map<std::string, std::string> vars;
    for (size_t i = 0; i < originals.size(); ++i) vars[originals[i]] = fresh[i];
    auto map_atom = [&](const Atom& a, const std::string& pred) {
      std::vector<Term> args;
      for (const Term& t : a.args()) args.push_back(MapTerm(t, vars));
      return Atom(pred, std::move(args));
    };
    std::vector<Atom> body;
    for (const Atom& a : q.body()) {
      body.push_back(map_atom(a, Symbol("pred", a.predicate())));
    }
    std::vector<Comparison> comparisons;
    for (const Comparison& c : q.comparisons()) {
      comparisons.emplace_back(MapTerm(c.lhs(), vars), c.op(),
                               MapTerm(c.rhs(), vars));
    }
    return ConjunctiveQuery(map_atom(q.head(), head), std::move(body),
                            std::move(comparisons));
  }

  /// `q` with only its variables renamed (an alpha-equivalent copy).  The
  /// renaming keeps the names' sort order: the semantic cache replays a
  /// cached rewriting in the original's atom order, which equals a fresh
  /// run's sorted order only then.
  ConjunctiveQuery AlphaRename(const ConjunctiveQuery& q) {
    std::vector<std::string> originals = q.AllVariables();
    std::vector<std::string> fresh = VariableNames(originals.size());
    std::sort(originals.begin(), originals.end());
    std::sort(fresh.begin(), fresh.end());
    std::map<std::string, std::string> vars;
    for (size_t i = 0; i < originals.size(); ++i) vars[originals[i]] = fresh[i];
    auto rename = [&](const Term& t) {
      return t.IsVariable() ? Term::Variable(vars.at(t.name())) : t;
    };
    auto rename_atom = [&](const Atom& a) {
      std::vector<Term> args;
      for (const Term& t : a.args()) args.push_back(rename(t));
      return Atom(a.predicate(), std::move(args));
    };
    std::vector<Atom> body;
    for (const Atom& a : q.body()) body.push_back(rename_atom(a));
    std::vector<Comparison> comparisons;
    for (const Comparison& c : q.comparisons()) {
      comparisons.emplace_back(rename(c.lhs()), c.op(), rename(c.rhs()));
    }
    return ConjunctiveQuery(rename_atom(q.head()), std::move(body),
                            std::move(comparisons));
  }

 private:
  std::mt19937_64 rng_;
  std::map<std::string, std::map<std::string, std::string>> symbols_;
  std::map<std::string, std::set<std::string>> used_symbols_;
  std::map<Rational, Rational> constants_;
};

std::vector<Rational> ConstantsOf(const cqac::WorkloadInstance& inst) {
  std::vector<Rational> out = inst.query.Constants();
  for (const Rational& c : inst.views.Constants()) out.push_back(c);
  return out;
}

std::string JobText(const std::vector<ConjunctiveQuery>& views,
                    const ConjunctiveQuery& query) {
  std::string text;
  for (const ConjunctiveQuery& v : views) text += "view " + v.ToString() + "\n";
  text += "query " + query.ToString() + "\n";
  return text;
}

/// Renames one generated instance: views in a seed-drawn order with
/// seed-drawn names, then the query.
Job RenamedJob(Renamer* renamer, const cqac::WorkloadInstance& inst,
               const std::string& view_space) {
  renamer->MapConstants(ConstantsOf(inst));
  std::vector<ConjunctiveQuery> views;
  for (const ConjunctiveQuery& v : inst.views.views()) {
    views.push_back(renamer->Apply(v, renamer->Symbol(view_space, v.name())));
  }
  renamer->Shuffle(&views);
  Job job;
  job.text = JobText(views, renamer->Apply(inst.query, "q"));
  return job;
}

// --- fig4 --------------------------------------------------------------

// Six points of the Fig. 4 grid with 4-6 variables+constants and 2-10
// views, four generator seeds each.  Points with 7 terms are left out:
// one such instance can take longer than a whole run.
const std::vector<GridPoint>& Fig4Points() {
  static const std::vector<GridPoint> points = {
      {"Fig4b/4/2", 4, 2, false, {1000, 1001, 1002, 1003}},
      {"Fig4b/4/6", 4, 6, false, {1000, 1001, 1002, 1003}},
      {"Fig4c/4/10", 4, 10, false, {1000, 1001, 1002, 1003}},
      {"Fig4b/5/4", 5, 4, false, {1000, 1001, 1002, 1003}},
      {"Fig4a/6/2", 6, 2, true, {1000, 1001, 1002, 1003}},
      {"Fig4b/6/2", 6, 2, false, {1000, 1001, 1002, 1003}},
  };
  return points;
}

Workload MakeFig4(uint64_t seed) {
  Workload w;
  w.name = "fig4";
  w.tail_percentile = 95;
  Renamer renamer(seed * 0x9E3779B97F4A7C15ull + 4);
  for (const GridPoint& p : Fig4Points()) {
    for (const uint64_t gs : p.generator_seeds) {
      const cqac::WorkloadInstance inst =
          cqac::WorkloadGenerator(PointConfig(p, gs)).Generate();
      w.jobs_list.push_back(RenamedJob(&renamer, inst, "view"));
    }
  }
  return w;
}

// --- chain -------------------------------------------------------------

// Chain queries over 5 binary relations (6 with a parallel edge), one or
// two `var op const` comparisons on one constant, and 1-3 views covering
// the chain: the run_benches.sh chain5 job and its neighbours.  Seven
// terms each: 47293 canonical databases per query.
const std::vector<std::string>& ChainTemplates() {
  static const std::vector<std::string> templates = {
      "v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8",
      "v1(A,C) :- r1(A,B), r2(B,C)\n"
      "v2(C) :- r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8",
      "v1(A,C) :- r1(A,B), r2(B,C)\n"
      "v2(C,E) :- r3(C,D), r4(D,E)\n"
      "v3(E) :- r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8",
      "v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8, A >= 8",
      "v(A,F) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8, F > 8",
      "v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(E,F), A <= 8",
      "v1(A,C) :- r1(A,B), r2(B,C), C >= 8\n"
      "v2(C) :- r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), C > 8",
      "v(A,D) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F)\n"
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), D < 8, A <= 8",
  };
  return templates;
}

Workload MakeChain(uint64_t seed) {
  Workload w;
  w.name = "chain";
  w.rewrite_jobs = 2;
  w.tail_percentile = 75;
  Renamer renamer(seed * 0x9E3779B97F4A7C15ull + 5);
  for (const std::string& tmpl : ChainTemplates()) {
    cqac::WorkloadInstance inst;
    std::istringstream lines(tmpl);
    std::string line;
    std::vector<ConjunctiveQuery> rules;
    while (std::getline(lines, line)) {
      rules.push_back(cqac::Parser::MustParseRule(line));
    }
    inst.query = rules.back();
    rules.pop_back();
    for (ConjunctiveQuery& v : rules) inst.views.Add(std::move(v));
    w.jobs_list.push_back(RenamedJob(&renamer, inst, "view"));
  }
  return w;
}

// --- served ------------------------------------------------------------

// Two catalog view sets, each the views of four small generated instances
// (<= 5 terms), queried by those four queries.  The generator seeds are
// ones whose query has an equivalent rewriting: the semantic cache serves
// only found rewritings across a renaming, so this keeps every repeat a
// cache hit.
constexpr int kServedRounds = 4;          // set_catalog swaps per pass
constexpr int kServedRoundRequests = 100; // rewrites between swaps
constexpr int kServedFreshPrefix = 30;    // leading fresh requests of a round;
                                          // then 6 repeats per fresh one
constexpr int kServedRepeatDistance = 30; // min. positions back to an original

const std::vector<GridPoint>& ServedSets() {
  static const std::vector<GridPoint> sets = {
      {"Fig4b/4/2", 4, 2, false, {2000, 2003, 2004, 2005}},
      {"Fig4b/5/2", 5, 2, false, {3003, 3004, 3010, 3012}},
  };
  return sets;
}

/// Variant `v` of `q`: a body permutation, comparisons flipped to the
/// mirrored form, and optionally the first comparison repeated.  Every
/// variant is equivalent to `q` but has its own semantic-cache key.
ConjunctiveQuery Variant(const ConjunctiveQuery& q, int v) {
  std::vector<Atom> body = q.body();
  std::vector<int> order(body.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  int perms = 1;
  for (size_t i = 2; i <= body.size(); ++i) perms *= static_cast<int>(i);
  for (int p = v % perms; p > 0; --p) {
    std::next_permutation(order.begin(), order.end());
  }
  v /= perms;
  std::vector<Atom> permuted;
  for (const int i : order) permuted.push_back(body[static_cast<size_t>(i)]);
  std::vector<Comparison> comparisons;
  for (const Comparison& c : q.comparisons()) {
    comparisons.push_back(v % 2 == 1 ? c.Flipped() : c);
    v /= 2;
  }
  if (v % 2 == 1 && !comparisons.empty()) comparisons.push_back(comparisons[0]);
  return ConjunctiveQuery(q.head(), std::move(permuted), std::move(comparisons));
}

Workload MakeServed(uint64_t seed) {
  Workload w;
  w.name = "served";
  w.tail_percentile = 99;
  Renamer renamer(seed * 0x9E3779B97F4A7C15ull + 6);

  std::vector<std::vector<ConjunctiveQuery>> set_views;
  std::vector<std::vector<ConjunctiveQuery>> set_queries;
  for (const GridPoint& point : ServedSets()) {
    std::vector<ConjunctiveQuery> views;
    std::vector<ConjunctiveQuery> queries;
    const std::string space = "set" + std::to_string(set_views.size());
    for (size_t i = 0; i < point.generator_seeds.size(); ++i) {
      const cqac::WorkloadInstance inst = cqac::WorkloadGenerator(
          PointConfig(point, point.generator_seeds[i])).Generate();
      renamer.MapConstants(ConstantsOf(inst));
      for (const ConjunctiveQuery& v : inst.views.views()) {
        const std::string original = v.name() + "_" + std::to_string(i);
        views.push_back(renamer.Apply(v, renamer.Symbol(space, original)));
      }
      queries.push_back(renamer.Apply(inst.query, "q"));
    }
    renamer.Shuffle(&views);
    std::string text;
    for (const ConjunctiveQuery& v : views) text += "view " + v.ToString() + "\n";
    w.view_sets.push_back(text);
    set_views.push_back(std::move(views));
    set_queries.push_back(std::move(queries));
  }

  std::vector<int> fresh_count(set_views.size(), 0);
  for (int round = 0; round < kServedRounds; ++round) {
    const int set = round % static_cast<int>(set_views.size());
    Request swap;
    swap.set_catalog = true;
    swap.view_set = set;
    w.stream.push_back(swap);
    struct Fresh {
      int pos;
      ConjunctiveQuery query;
    };
    std::vector<Fresh> round_fresh;
    const std::vector<ConjunctiveQuery>& views = set_views[static_cast<size_t>(set)];
    const std::vector<ConjunctiveQuery>& bases = set_queries[static_cast<size_t>(set)];
    for (int pos = 0; pos < kServedRoundRequests; ++pos) {
      const int k = pos - kServedFreshPrefix;
      Job job;
      job.view_set = set;
      job.fresh = k < 0 || k % 7 == 6;
      if (job.fresh) {
        const int n = fresh_count[static_cast<size_t>(set)]++;
        const int nbases = static_cast<int>(bases.size());
        round_fresh.push_back(
            {pos, Variant(bases[static_cast<size_t>(n % nbases)], n / nbases)});
        job.text = JobText(views, round_fresh.back().query);
      } else {
        // An alpha-renamed repeat of a fresh request at least
        // kServedRepeatDistance positions back in this round.
        size_t eligible = 0;
        while (eligible < round_fresh.size() &&
               round_fresh[eligible].pos <= pos - kServedRepeatDistance) {
          ++eligible;
        }
        const Fresh& original = round_fresh[static_cast<size_t>(
            renamer.Uniform(0, static_cast<int>(eligible) - 1))];
        job.text = JobText(views, renamer.AlphaRename(original.query));
      }
      Request r;
      r.job = static_cast<int>(w.jobs_list.size());
      w.jobs_list.push_back(std::move(job));
      w.stream.push_back(r);
    }
  }
  return w;
}

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return name == "fig4" || name == "chain" || name == "served";
}

bool IsSerialWorkload(const std::string& name) { return name == "fig4"; }

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w = name == "fig4"    ? MakeFig4(seed)
               : name == "chain" ? MakeChain(seed)
                                 : MakeServed(seed);
  w.seed = seed;
  if (w.stream.empty()) {
    for (size_t i = 0; i < w.jobs_list.size(); ++i) {
      Request r;
      r.job = static_cast<int>(i);
      w.stream.push_back(r);
    }
  }
  return w;
}

bool ParseJobs(Workload* workload) {
  for (Job& job : workload->jobs_list) {
    job.parsed = cqac::ParseJobBlock(job.text);
    if (!job.parsed.error.empty()) return false;
  }
  return true;
}

std::string WireJobText(const Workload& workload, const Job& job) {
  if (!workload.served()) return job.text;
  return job.text.substr(job.text.rfind("query "));
}

std::string JobStreamText(const Workload& workload) {
  std::string out = "% cqac perfbench workload " + workload.name + ", seed " +
                    std::to_string(workload.seed) + "\n";
  int index = 0;
  for (const Request& r : workload.stream) {
    if (r.set_catalog) {
      out += "% set_catalog: view set " + std::to_string(r.view_set) + "\n";
      continue;
    }
    const Job& job = workload.jobs_list[static_cast<size_t>(r.job)];
    out += "% request " + std::to_string(index++);
    if (workload.served()) out += job.fresh ? " (fresh)" : " (repeat)";
    out += "\n" + job.text + "run\n";
  }
  return out;
}

}  // namespace perfbench
