#include "cli/shell.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "ast/hypergraph.h"
#include "containment/cq_containment.h"
#include "containment/cqac_containment.h"
#include "engine/evaluate.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "parser/parser.h"
#include "rewriting/contained_rewriter.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/expansion.h"
#include "rewriting/explain.h"
#include "runtime/thread_pool.h"

namespace cqac {

namespace {

/// Splits off the first whitespace-delimited word.
std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  const size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return {"", ""};
  const size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) return {line.substr(start), ""};
  const size_t rest = line.find_first_not_of(" \t", end);
  return {line.substr(start, end - start),
          rest == std::string::npos ? "" : line.substr(rest)};
}

}  // namespace

bool Shell::ProcessLine(const std::string& line) {
  auto [command, args] = SplitCommand(line);
  if (command.empty() || command[0] == '%') return true;  // Comment/blank.
  if (command == "quit" || command == "exit") return false;
  if (command == "view") {
    CmdView(args);
  } else if (command == "query") {
    CmdQuery(args);
  } else if (command == "rewrite") {
    CmdRewrite(args);
  } else if (command == "contained-rewrite") {
    CmdContainedRewrite();
  } else if (command == "let") {
    CmdLet(args);
  } else if (command == "contained") {
    CmdContained(args, /*equivalence=*/false);
  } else if (command == "equivalent") {
    CmdContained(args, /*equivalence=*/true);
  } else if (command == "minimize") {
    CmdMinimize(args);
  } else if (command == "acyclic") {
    CmdAcyclic(args);
  } else if (command == "fact") {
    CmdFact(args);
  } else if (command == "eval") {
    CmdEval(args);
  } else if (command == "eval-rewriting") {
    CmdEvalRewriting();
  } else if (command == "show") {
    CmdShow();
  } else if (command == "metrics") {
    CmdMetrics(args);
  } else if (command == "clear") {
    views_ = ViewSet();
    query_.reset();
    named_.clear();
    db_ = Database();
    last_rewriting_.reset();
    catalog_.reset();
    out_ << "state cleared\n";
  } else if (command == "help") {
    CmdHelp();
  } else {
    out_ << "unknown command '" << command << "' (try: help)\n";
  }
  return true;
}

void Shell::ProcessStream(std::istream& in, bool interactive) {
  std::string line;
  if (interactive) out_ << "cqac> " << std::flush;
  while (std::getline(in, line)) {
    if (!ProcessLine(line)) return;
    if (interactive) out_ << "cqac> " << std::flush;
  }
}

void Shell::CmdView(const std::string& args) {
  std::string error;
  std::optional<ConjunctiveQuery> rule = Parser::ParseRule(args, &error);
  if (!rule.has_value()) {
    out_ << "error: " << error << "\n";
    return;
  }
  if (views_.Find(rule->name()) != nullptr) {
    out_ << "error: a view named '" << rule->name() << "' already exists\n";
    return;
  }
  out_ << "view added: " << rule->ToString() << "\n";
  views_.Add(*std::move(rule));
  catalog_.reset();  // The compiled catalog no longer matches the views.
}

void Shell::CmdQuery(const std::string& args) {
  std::string error;
  std::optional<ConjunctiveQuery> rule = Parser::ParseRule(args, &error);
  if (!rule.has_value()) {
    out_ << "error: " << error << "\n";
    return;
  }
  if (!rule->IsSafe()) {
    out_ << "error: query is unsafe (head/comparison variable missing from "
            "the body)\n";
    return;
  }
  query_ = *std::move(rule);
  out_ << "query set: " << query_->ToString() << "\n";
}

void Shell::CmdRewrite(const std::string& args) {
  if (!query_.has_value()) {
    out_ << "error: set a query first\n";
    return;
  }
  RewriteOptions options;
  options.jobs = default_jobs_;
  std::istringstream flags(args);
  std::string flag;
  bool explain = false;
  bool print_stats = print_stats_;
  bool json_stats = json_stats_;
  while (flags >> flag) {
    if (flag == "verify") {
      options.verify = true;
    } else if (flag == "explain") {
      options.explain = explain = true;
    } else if (flag == "stats") {
      print_stats = true;
    } else if (flag == "json") {
      json_stats = true;
    } else if (flag == "coalesce") {
      options.coalesce_output = true;
    } else if (flag == "minimize") {
      options.minimize_output = true;
    } else if (flag.rfind("jobs=", 0) == 0) {
      int jobs = 0;
      std::string error;
      if (ThreadPool::ParseJobsFlag(flag.substr(5), &jobs, &error)) {
        options.jobs = jobs;
      } else {
        out_ << "warning: jobs " << error << "; flag ignored\n";
      }
    } else {
      out_ << "warning: unknown flag '" << flag << "' ignored\n";
    }
  }
  // The session catalog survives across `rewrite` invocations: the view
  // set is compiled once and later runs reuse it and its semantic cache
  // (results are byte-identical to a fresh EquivalentRewriter run).
  if (catalog_ == nullptr) {
    catalog_ = std::make_shared<ViewCatalog>(views_);
  }
  // Every rewrite runs under its own trace id, so its spans land in the
  // flight recorder and its --json record is joinable against telemetry.
  const obs::TraceId trace_id = obs::GenerateTraceId();
  const obs::RequestScope trace_scope(trace_id);
  const RewriteResult result = catalog_->Rewrite(*query_, options);
  switch (result.outcome) {
    case RewriteOutcome::kRewritingFound:
      out_ << "equivalent rewriting (" << result.rewriting.size()
           << " disjunct" << (result.rewriting.size() == 1 ? "" : "s");
      if (options.verify) {
        out_ << ", verified=" << (result.verified ? "yes" : "NO");
      }
      out_ << "):\n";
      for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
        out_ << "  " << d.ToString() << "\n";
      }
      last_rewriting_ = result.rewriting;
      break;
    case RewriteOutcome::kNoRewriting:
      out_ << "no equivalent rewriting exists";
      if (!result.failure_reason.empty()) {
        out_ << " (" << result.failure_reason << ")";
      }
      out_ << "\n";
      break;
    case RewriteOutcome::kAborted:
      out_ << "aborted: " << result.failure_reason << "\n";
      break;
  }
  out_ << "stats: " << result.stats.canonical_databases
       << " canonical databases, " << result.stats.kept_canonical_databases
       << " kept, " << result.stats.mcds_formed << " MCDs, "
       << result.stats.phase2_checks << " phase-2 checks\n";
  if (print_stats) {
    out_ << RenderPhaseLines(result.stats);
    const CatalogStats cstats = catalog_->Stats();
    out_ << "catalog: epoch " << cstats.epoch << ", "
         << (result.from_semantic_cache ? "semantic hit" : "computed") << ", "
         << cstats.semantic_hits << " semantic hits, "
         << cstats.semantic_misses << " semantic misses\n";
  }
  if (json_stats) {
    out_ << "{"
         << RenderStatsFields(RewriteOutcomeName(result.outcome),
                              result.rewriting.size(), result.stats)
         << ", \"semantic_cache_hit\": " << (result.from_semantic_cache ? 1 : 0)
         << ", \"catalog_epoch\": " << result.catalog_epoch
         << ", \"trace_id\": \"" << obs::TraceIdHex(trace_id) << "\"}\n";
  }
  if (explain) out_ << TableauToString(result.trace);
}

void Shell::CmdContainedRewrite() {
  if (!query_.has_value() || views_.empty()) {
    out_ << "error: set a query and at least one view first\n";
    return;
  }
  const ContainedRewriteResult result =
      FindContainedRewritings(*query_, views_);
  out_ << "contained rewritings (" << result.rewriting.size()
       << " disjuncts, " << result.candidates << " candidates tried):\n";
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    out_ << "  " << d.ToString() << "\n";
  }
  if (!result.rewriting.empty()) last_rewriting_ = result.rewriting;
}

void Shell::CmdLet(const std::string& args) {
  auto [name, rest] = SplitCommand(args);
  if (name.empty() || rest.empty()) {
    out_ << "usage: let <name> <rule>\n";
    return;
  }
  std::string error;
  std::optional<ConjunctiveQuery> rule = Parser::ParseRule(rest, &error);
  if (!rule.has_value()) {
    out_ << "error: " << error << "\n";
    return;
  }
  named_[name] = *std::move(rule);
  out_ << name << " = " << named_[name].ToString() << "\n";
}

std::optional<ConjunctiveQuery> Shell::Resolve(const std::string& token) {
  if (auto it = named_.find(token); it != named_.end()) return it->second;
  std::string error;
  std::optional<ConjunctiveQuery> rule = Parser::ParseRule(token, &error);
  if (!rule.has_value()) {
    out_ << "error: '" << token << "' is neither a name nor a rule ("
         << error << ")\n";
  }
  return rule;
}

void Shell::CmdContained(const std::string& args, bool equivalence) {
  auto [first, second] = SplitCommand(args);
  if (first.empty() || second.empty()) {
    out_ << "usage: " << (equivalence ? "equivalent" : "contained")
         << " <name1> <name2>\n";
    return;
  }
  const std::optional<ConjunctiveQuery> q1 = Resolve(first);
  const std::optional<ConjunctiveQuery> q2 = Resolve(second);
  if (!q1.has_value() || !q2.has_value()) return;
  if (equivalence) {
    out_ << (CqacEquivalent(*q1, *q2) ? "equivalent" : "not equivalent")
         << "\n";
  } else {
    out_ << (CqacContained(*q1, *q2) ? "contained" : "not contained") << "\n";
  }
}

void Shell::CmdMinimize(const std::string& args) {
  const std::optional<ConjunctiveQuery> q = Resolve(args);
  if (!q.has_value()) return;
  const ConjunctiveQuery minimized =
      q->IsPlainCQ() ? CqMinimize(*q) : FoldExistentialVariables(*q);
  out_ << minimized.ToString() << "\n";
}

void Shell::CmdAcyclic(const std::string& args) {
  const std::optional<ConjunctiveQuery> q = Resolve(args);
  if (!q.has_value()) return;
  out_ << (IsAcyclic(*q) ? "acyclic" : "cyclic") << "\n";
}

void Shell::CmdFact(const std::string& args) {
  // Reuse the rule parser by wrapping the atom in a dummy rule.
  std::string text = args;
  while (!text.empty() && (text.back() == '.' || text.back() == ' ')) {
    text.pop_back();
  }
  std::string error;
  std::optional<ConjunctiveQuery> rule =
      Parser::ParseRule("dummy() :- " + text, &error);
  if (!rule.has_value() || rule->body().size() != 1 ||
      !rule->comparisons().empty()) {
    out_ << "error: expected a single ground atom, e.g. fact a(1,2).\n";
    return;
  }
  if (!db_.InsertFact(rule->body()[0])) {
    out_ << "error: facts must be ground (no variables)\n";
    return;
  }
  out_ << "fact added: " << rule->body()[0].ToString() << "\n";
}

void Shell::CmdEval(const std::string& args) {
  const std::optional<ConjunctiveQuery> q = Resolve(args);
  if (!q.has_value()) return;
  out_ << Evaluate(*q, db_).ToString() << "\n";
}

void Shell::CmdEvalRewriting() {
  if (!last_rewriting_.has_value()) {
    out_ << "error: no rewriting computed yet\n";
    return;
  }
  // The rewriting speaks the view vocabulary: materialize the views over
  // the scratch database first.
  Database materialized;
  for (const ConjunctiveQuery& view : views_.views()) {
    const Relation output = Evaluate(view, db_);
    for (const Tuple& t : output.tuples()) {
      materialized.Insert(view.name(), t);
    }
  }
  out_ << Evaluate(*last_rewriting_, materialized).ToString() << "\n";
}

void Shell::CmdShow() {
  out_ << "query: " << (query_.has_value() ? query_->ToString() : "(none)")
       << "\n";
  for (const ConjunctiveQuery& v : views_.views()) {
    out_ << "view:  " << v.ToString() << "\n";
  }
  for (const auto& [name, rule] : named_) {
    out_ << "let:   " << name << " = " << rule.ToString() << "\n";
  }
  if (!db_.empty()) out_ << "facts:\n" << db_.ToString() << "\n";
}

void Shell::CmdMetrics(const std::string& args) {
  if (args == "json") {
    obs::MetricsRegistry::Global().DumpJson(out_);
  } else if (args == "reset") {
    obs::MetricsRegistry::Global().Reset();
    out_ << "metrics reset\n";
  } else if (args.empty()) {
    if (!obs::MetricsActive()) {
      out_ << "metrics collection is off (run cqacsh with --metrics)\n";
    }
    obs::MetricsRegistry::Global().DumpText(out_);
  } else {
    out_ << "usage: metrics [json|reset]\n";
  }
}

void Shell::CmdHelp() {
  out_ << "commands:\n"
          "  view <rule>           add a view definition\n"
          "  query <rule>          set the current query\n"
          "  rewrite [flags]       find an equivalent rewriting\n"
          "                        flags: verify explain coalesce minimize\n"
          "                               stats json\n"
          "                               jobs=N (0 = all cores, 1 = serial)\n"
          "  contained-rewrite     union of contained rewritings\n"
          "  let <name> <rule>     bind a rule to a name\n"
          "  contained <n1> <n2>   containment test\n"
          "  equivalent <n1> <n2>  equivalence test\n"
          "  minimize <name>       minimize a rule\n"
          "  acyclic <name>        GYO acyclicity check\n"
          "  fact <atom>.          insert a ground fact\n"
          "  eval <name|rule>      evaluate on the facts\n"
          "  eval-rewriting        evaluate the last rewriting\n"
          "  metrics [json|reset]  dump or reset the metrics registry\n"
          "  show | clear | help | quit\n";
}

}  // namespace cqac
