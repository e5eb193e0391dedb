#ifndef CQAC_CLI_SHELL_H_
#define CQAC_CLI_SHELL_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ast/query.h"
#include "catalog/view_catalog.h"
#include "engine/database.h"
#include "rewriting/view_set.h"

namespace cqac {

/// The command processor behind the `cqacsh` binary: a line-oriented
/// shell over the whole library.  Kept as a library class so the test
/// suite can drive it through string streams.
///
/// Commands (see `help` for the authoritative list):
///
///   view <rule>            add a view definition
///   query <rule>           set the current query
///   rewrite [flags]        run the equivalent-rewriting algorithm
///                          (flags: verify, explain, coalesce, minimize)
///   contained-rewrite      union of contained rewritings (MCR machinery)
///   let <name> <rule>      bind a rule to a name
///   contained <n1> <n2>    containment test between two named rules
///   equivalent <n1> <n2>   equivalence test
///   minimize <name>        fold/minimize a named rule
///   acyclic <name>         GYO acyclicity check
///   fact <atom>.           insert a ground fact into the scratch database
///   eval <name|rule>       evaluate on the scratch database
///   eval-rewriting         evaluate the last rewriting on the database
///   metrics [json|reset]   dump or reset the global metrics registry
///   show                   print current query, views, facts
///   clear                  reset all state
///   help                   print the command list
///   quit                   end the session
class Shell {
 public:
  explicit Shell(std::ostream& out) : out_(out) {}

  /// Default worker-thread count for `rewrite` (0 = hardware concurrency,
  /// 1 = serial); a per-command `jobs=N` flag overrides it.  Results are
  /// identical either way — only wall-clock changes.
  void set_default_jobs(int jobs) { default_jobs_ = jobs; }

  /// When set, every `rewrite` additionally prints the Phase-1 breakdown
  /// (databases visited / pruned / deduped); same as passing the per-command
  /// `stats` flag each time.  Behind `cqacsh --stats`.
  void set_print_stats(bool v) { print_stats_ = v; }

  /// When set, every `rewrite` additionally emits a one-line JSON record of
  /// the outcome and all counters (including the Phase-1 memo hit/miss
  /// split); same as the per-command `json` flag.  Behind `cqacsh --json`.
  void set_json_stats(bool v) { json_stats_ = v; }

  /// Processes one input line; returns false when the session should end.
  bool ProcessLine(const std::string& line);

  /// Reads lines from `in` until EOF or `quit`; prints a prompt between
  /// commands when `interactive`.
  void ProcessStream(std::istream& in, bool interactive);

 private:
  /// Command handlers; each prints its outcome to out_.
  void CmdView(const std::string& args);
  void CmdQuery(const std::string& args);
  void CmdRewrite(const std::string& args);
  void CmdContainedRewrite();
  void CmdLet(const std::string& args);
  void CmdContained(const std::string& args, bool equivalence);
  void CmdMinimize(const std::string& args);
  void CmdAcyclic(const std::string& args);
  void CmdFact(const std::string& args);
  void CmdEval(const std::string& args);
  void CmdEvalRewriting();
  void CmdShow();
  void CmdMetrics(const std::string& args);
  void CmdHelp();

  /// Resolves `token` as a named rule, or parses it as an inline rule.
  std::optional<ConjunctiveQuery> Resolve(const std::string& token);

  std::ostream& out_;
  int default_jobs_ = 1;
  bool print_stats_ = false;
  bool json_stats_ = false;
  ViewSet views_;
  std::optional<ConjunctiveQuery> query_;
  std::map<std::string, ConjunctiveQuery> named_;
  Database db_;
  std::optional<UnionQuery> last_rewriting_;

  /// The session catalog: views are parsed, interned, and compiled once,
  /// then every `rewrite` borrows from the catalog instead of rebuilding.
  /// Dropped whenever the view set changes (`view`, `clear`), rebuilt
  /// lazily on the next `rewrite`.
  std::shared_ptr<ViewCatalog> catalog_;
};

}  // namespace cqac

#endif  // CQAC_CLI_SHELL_H_
