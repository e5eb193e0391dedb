// Byte-equality golden test for the rewritings of the persistent corpus.
//
// tests/data/corpus_rewritings.txt holds one line per tests/corpus case:
// `<file>\t<outcome>\t<failure reason>\t<disjunct>\t<disjunct>...`, with
// outcome one of found/none/aborted and an empty reason field when the run
// gave none.  Each case runs once at the differential lattice's serial
// baseline.  The rewriting is the system's answer, so it must not drift,
// not even to an equivalent union or a renamed disjunct.  Counters are
// left out: an algorithm change may move them without changing an answer.
// A mismatch here is a bug; the lines are never re-recorded to match new
// code.  A new corpus case gets its line recorded when it is added.
//
// The DISABLED_Record test below regenerates the file's body (see the
// file header for the commit it was recorded at).

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef CQAC_REWRITINGS_FILE
#error "CQAC_REWRITINGS_FILE must point at tests/data/corpus_rewritings.txt"
#endif

#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/corpus.h"
#include "testing/differential.h"

namespace cqac {
namespace testing {
namespace {

std::vector<CorpusEntry> LoadCorpusOrDie() {
  std::string error;
  std::optional<std::vector<CorpusEntry>> corpus =
      LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  EXPECT_TRUE(corpus.has_value()) << error;
  return corpus.value_or(std::vector<CorpusEntry>{});
}

/// The case's line: its name, outcome, failure reason and disjuncts.
std::string RenderCase(const CorpusEntry& entry) {
  const RewriteResult result = RunWithConfig(entry.c, LatticeConfig{});
  std::string line = entry.name + '\t' + RewriteOutcomeName(result.outcome) + '\t' +
                     result.failure_reason;
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    line += '\t' + d.ToString();
  }
  return line;
}

/// The recorded lines, keyed by case name.
std::map<std::string, std::string> LoadRecorded() {
  std::map<std::string, std::string> recorded;
  std::ifstream in(CQAC_REWRITINGS_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << CQAC_REWRITINGS_FILE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    recorded[line.substr(0, line.find('\t'))] = line;
  }
  return recorded;
}

TEST(CorpusRewritingsTest, EveryCaseMatchesItsRecordedRewriting) {
  const std::map<std::string, std::string> recorded = LoadRecorded();
  const std::vector<CorpusEntry> corpus = LoadCorpusOrDie();
  EXPECT_EQ(recorded.size(), corpus.size());
  for (const CorpusEntry& entry : corpus) {
    const auto it = recorded.find(entry.name);
    ASSERT_NE(it, recorded.end()) << entry.name << " has no recorded line";
    EXPECT_EQ(RenderCase(entry), it->second);
  }
}

// Writes corpus_rewritings.recorded.txt (no header) into the working
// directory.  Run with
//   corpus_rewritings_test --gtest_also_run_disabled_tests
//       --gtest_filter='*DISABLED_Record'
TEST(CorpusRewritingsTest, DISABLED_Record) {
  std::ofstream out("corpus_rewritings.recorded.txt");
  for (const CorpusEntry& entry : LoadCorpusOrDie()) {
    out << RenderCase(entry) << '\n';
  }
}

}  // namespace
}  // namespace testing
}  // namespace cqac
