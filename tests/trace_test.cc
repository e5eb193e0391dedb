#include "obs/trace.h"

#include <map>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace cqac {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON syntax checker, enough to prove WriteChromeTrace emits
// well-formed JSON (balanced structure, valid literals) without pulling
// in a JSON library.  Whitespace-tolerant; rejects trailing garbage.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    return Value() && (SkipWs(), pos_ == text_.size());
  }

 private:
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    for (++pos_; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\\') {
        ++pos_;
      } else if (text_[pos_] == '"') {
        return ++pos_, true;
      }
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto rule = Parser::ParseRule(text, &error);
  EXPECT_TRUE(rule.has_value()) << error;
  return *rule;
}

/// A workload with 75 canonical databases and a rewriting, large enough
/// that the parallel run genuinely interleaves.
struct Workload {
  ConjunctiveQuery query =
      Parse("q(A) :- r(A), s(A,B), t(B,C), A <= 8.");
  ViewSet views;
  Workload() { views.Add(Parse("v(A,B,C) :- r(A), s(A,B), t(B,C).")); }
};

/// Span-name multiset of one traced rewrite at the given thread count.
/// `phase1_dedup` is off: each Phase-1 subtree task owns its memo, and
/// the subtree partition depends on the thread count, so the probe/replay
/// span split is the one part of the pipeline that varies with `jobs` by
/// design.
std::map<std::string, int> SpanCounts(int jobs) {
  Workload w;
  RewriteOptions options;
  options.jobs = jobs;
  options.phase1_dedup = false;
  obs::StartTracing();
  const RewriteResult result =
      EquivalentRewriter(w.query, w.views, options).Run();
  const obs::CollectedTrace trace = obs::StopTracing();
  EXPECT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_EQ(trace.dropped_spans, 0);
  std::map<std::string, int> counts;
  for (const obs::TraceEvent& e : trace.events) ++counts[e.name];
  return counts;
}

TEST(TraceTest, SpansInactiveWithoutSession) {
  Workload w;
  RewriteOptions options;
  EXPECT_FALSE(obs::TracingActive());
  EquivalentRewriter(w.query, w.views, options).Run();
  obs::StartTracing();
  const obs::CollectedTrace trace = obs::StopTracing();
  // Nothing recorded outside the session leaks into it.
  EXPECT_TRUE(trace.events.empty());
  EXPECT_EQ(trace.dropped_spans, 0);
}

TEST(TraceTest, SessionRecordsPipelinePhases) {
  Workload w;
  RewriteOptions options;
  obs::StartTracing();
  EXPECT_EQ(obs::TracingActive(), obs::TracingCompiledIn());
  EquivalentRewriter(w.query, w.views, options).Run();
  const obs::CollectedTrace trace = obs::StopTracing();
  EXPECT_FALSE(obs::TracingActive());
  if (!obs::TracingCompiledIn()) {
    // The CQAC_TRACING=OFF build compiles every span to a no-op; the
    // session must observe nothing at all.
    EXPECT_TRUE(trace.events.empty());
    return;
  }
  std::map<std::string, int> counts;
  for (const obs::TraceEvent& e : trace.events) ++counts[e.name];
  // The acceptance bar: at least 6 distinct phases of the pipeline.
  for (const char* phase :
       {"prepare.work", "prepare.mcd_formation", "phase1.enumerate",
        "phase1.database", "phase1.freeze", "phase1.view_tuples",
        "phase2.check", "phase2.expand", "finalize"}) {
    EXPECT_GT(counts[phase], 0) << "missing span: " << phase;
  }
  // One database span per canonical database of this workload.
  EXPECT_EQ(counts["phase1.database"], 75);
}

TEST(TraceTest, SpanMultisetIdenticalAcrossThreadCounts) {
  if (!obs::TracingCompiledIn()) GTEST_SKIP() << "CQAC_TRACING=OFF build";
  const std::map<std::string, int> serial = SpanCounts(1);
  const std::map<std::string, int> parallel = SpanCounts(4);
  EXPECT_EQ(serial, parallel);
}

TEST(TraceTest, ChromeTraceExportIsValidJson) {
  Workload w;
  RewriteOptions options;
  obs::StartTracing();
  EquivalentRewriter(w.query, w.views, options).Run();
  const obs::CollectedTrace trace = obs::StopTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out, trace);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cqacDroppedSpans\": 0"), std::string::npos);
  if (obs::TracingCompiledIn()) {
    // Spot-check the Chrome trace-event schema on one complete event.
    EXPECT_NE(json.find("\"name\": \"phase1.database\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"cqac\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  } else {
    EXPECT_EQ(json.find("\"ph\""), std::string::npos);
  }
}

TEST(TraceTest, OverflowDropsNewestAndCounts) {
  if (!obs::TracingCompiledIn()) GTEST_SKIP() << "CQAC_TRACING=OFF build";
  constexpr int kSpans = obs::kSpanBufferCapacity + 1000;
  obs::StartTracing();
  for (int i = 0; i < kSpans; ++i) {
    CQAC_TRACE_SPAN("overflow");
  }
  const obs::CollectedTrace trace = obs::StopTracing();
  EXPECT_EQ(trace.events.size(),
            static_cast<size_t>(obs::kSpanBufferCapacity));
  EXPECT_EQ(trace.dropped_spans, 1000);
}

TEST(TraceTest, SpanStraddlingSessionsIsDiscarded) {
  if (!obs::TracingCompiledIn()) GTEST_SKIP() << "CQAC_TRACING=OFF build";
  obs::StartTracing();
  {
    CQAC_TRACE_SPAN("straddler");
    // The session the span started in ends before the span does; its
    // timestamps are relative to a dead session base, so it must not be
    // recorded into the next session either.
    obs::CollectedTrace first = obs::StopTracing();
    EXPECT_TRUE(first.events.empty());
    obs::StartTracing();
  }
  const obs::CollectedTrace second = obs::StopTracing();
  EXPECT_TRUE(second.events.empty());
}

}  // namespace
}  // namespace cqac
