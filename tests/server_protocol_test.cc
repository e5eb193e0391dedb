#include "server/protocol.h"

#include <string>

#include "gtest/gtest.h"
#include "server/json.h"

namespace cqac {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, ParsesScalarsAndContainers) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      "{\"a\": 1, \"b\": -2.5, \"c\": \"x\", \"d\": [true, false, null]}", &v,
      &error))
      << error;
  ASSERT_EQ(v.type(), JsonValue::Type::kObject);
  EXPECT_EQ(v.FindInt("a", 0), 1);
  ASSERT_NE(v.Find("b"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("b")->AsDouble(), -2.5);
  EXPECT_EQ(v.FindString("c", ""), "x");
  ASSERT_NE(v.Find("d"), nullptr);
  ASSERT_EQ(v.Find("d")->AsArray().size(), 3u);
  EXPECT_TRUE(v.Find("d")->AsArray()[0].AsBool());
  EXPECT_TRUE(v.Find("d")->AsArray()[2].is_null());
}

TEST(JsonTest, DecodesEscapesAndUnicode) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson("\"a\\n\\t\\\"\\\\ \\u0041 \\u00e9\"", &v, &error))
      << error;
  EXPECT_EQ(v.AsString(), "a\n\t\"\\ A \xC3\xA9");
}

TEST(JsonTest, RejectsTrailingGarbage) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{} x", &v, &error));
  EXPECT_FALSE(ParseJson("1 2", &v, &error));
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) deep += "[";
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(deep, &v, &error));
  EXPECT_NE(error.find("nest"), std::string::npos);
}

TEST(JsonTest, TypedLookupsReportMistypedFields) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson("{\"n\": \"not a number\"}", &v, &error));
  bool ok = true;
  EXPECT_EQ(v.FindInt("n", 7, &ok), 7);
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_EQ(v.FindInt("absent", 7, &ok), 7);
  EXPECT_TRUE(ok);  // Absent is fine; only present-but-mistyped trips ok.
}

TEST(JsonTest, StringEscaperRoundTrips) {
  std::string out;
  AppendJsonString(&out, "a\nb\"c\\d\x01");
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(out, &v, &error)) << error;
  EXPECT_EQ(v.AsString(), "a\nb\"c\\d\x01");
}

// ---------------------------------------------------------------------------
// Framing

TEST(FrameTest, RoundTripsThroughTheDecoder) {
  Frame in;
  in.id = 0x1122334455667788ULL;
  in.body = "{\"hello\": 1}";
  const std::string wire = EncodeFrame(in);
  EXPECT_EQ(wire.size(), 4 + kFrameIdBytes + in.body.size());

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.body, in.body);
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, DecodesByteAtATime) {
  Frame in;
  in.id = 42;
  in.body = "payload";
  const std::string wire = EncodeFrame(in);

  FrameDecoder decoder;
  Frame out;
  std::string error;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(wire.data() + i, 1);
    ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore)
        << "frame complete after only " << i + 1 << " bytes";
  }
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.body, "payload");
}

TEST(FrameTest, DecodesSeveralFramesFromOneFeed) {
  Frame a, b;
  a.id = 1;
  a.body = "first";
  b.id = 2;
  b.body = "second";
  const std::string wire = EncodeFrame(a) + EncodeFrame(b);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.body, "first");
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.body, "second");
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore);
}

TEST(FrameTest, UndersizedLengthIsAStickyError) {
  FrameDecoder decoder;
  // length=3 < the 8-byte id: unframeable.
  const char wire[] = {3, 0, 0, 0, 'x', 'y', 'z'};
  decoder.Feed(wire, sizeof(wire));
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_NE(error.find("shorter than"), std::string::npos);
  // Sticky: more bytes do not resurrect the stream.
  decoder.Feed(wire, sizeof(wire));
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
}

TEST(FrameTest, OversizedLengthIsRejectedBeforeBuffering) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  Frame big;
  big.id = 9;
  big.body.assign(128, 'a');
  const std::string wire = EncodeFrame(big);
  decoder.Feed(wire.data(), 8);  // Only the prefix; the limit check must
                                 // not wait for the full payload.
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_NE(error.find("exceeds the limit"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Requests

TEST(ServiceRequestTest, ParsesRawJobForm) {
  ServiceRequest request;
  std::string error;
  ASSERT_TRUE(ParseServiceRequest(
      "{\"job\": \"query q(A) :- r(A)\\n\", \"index\": 3, "
      "\"deadline_ms\": 250, \"echo\": true}",
      &request, &error))
      << error;
  EXPECT_EQ(request.job_text, "query q(A) :- r(A)\n");
  EXPECT_EQ(request.index, 3);
  EXPECT_EQ(request.deadline_ms, 250);
  EXPECT_TRUE(request.echo);
  EXPECT_TRUE(request.has_echo);
}

TEST(ServiceRequestTest, AssemblesQueryViewsForm) {
  ServiceRequest request;
  std::string error;
  ASSERT_TRUE(ParseServiceRequest(
      "{\"query\": \"q(A) :- r(A)\", "
      "\"views\": [\"v1(X) :- r(X)\", \"v2(X) :- s(X)\"]}",
      &request, &error))
      << error;
  EXPECT_EQ(request.job_text,
            "view v1(X) :- r(X)\nview v2(X) :- s(X)\nquery q(A) :- r(A)\n");
  EXPECT_FALSE(request.has_echo);
}

TEST(ServiceRequestTest, RejectsMalformedBodies) {
  ServiceRequest request;
  std::string error;
  EXPECT_FALSE(ParseServiceRequest("not json", &request, &error));
  EXPECT_FALSE(ParseServiceRequest("[1, 2]", &request, &error));
  EXPECT_FALSE(ParseServiceRequest("{}", &request, &error));
  EXPECT_NE(error.find("neither 'job' nor 'query'"), std::string::npos);
  EXPECT_FALSE(ParseServiceRequest("{\"job\": 7}", &request, &error));
  EXPECT_FALSE(ParseServiceRequest(
      "{\"job\": \"x\", \"deadline_ms\": -1}", &request, &error));
  EXPECT_FALSE(ParseServiceRequest(
      "{\"query\": \"q(A) :- r(A)\", \"views\": [3]}", &request, &error));
  EXPECT_FALSE(ParseServiceRequest(
      "{\"job\": \"x\", \"echo\": \"yes\"}", &request, &error));
}

TEST(ServiceRequestTest, ParsesTraceIdAndDefaultsToZero) {
  ServiceRequest request;
  std::string error;
  // An old client that never heard of trace ids parses fine and leaves
  // the id zero (the server then stamps one).
  ASSERT_TRUE(
      ParseServiceRequest("{\"job\": \"x\"}", &request, &error))
      << error;
  EXPECT_TRUE(request.trace_id.IsZero());
  EXPECT_EQ(request.kind, RequestKind::kRewrite);

  ASSERT_TRUE(ParseServiceRequest(
      "{\"job\": \"x\", "
      "\"trace_id\": \"000102030405060708090a0b0c0d0e0f\"}",
      &request, &error))
      << error;
  EXPECT_EQ(obs::TraceIdHex(request.trace_id),
            "000102030405060708090a0b0c0d0e0f");
}

TEST(ServiceRequestTest, RejectsMalformedTraceIds) {
  ServiceRequest request;
  std::string error;
  EXPECT_FALSE(ParseServiceRequest("{\"job\": \"x\", \"trace_id\": 7}",
                                   &request, &error));
  EXPECT_NE(error.find("must be a string"), std::string::npos);
  EXPECT_FALSE(ParseServiceRequest(
      "{\"job\": \"x\", \"trace_id\": \"abc\"}", &request, &error));
  EXPECT_NE(error.find("32 hex"), std::string::npos);
  EXPECT_FALSE(ParseServiceRequest(
      "{\"job\": \"x\", "
      "\"trace_id\": \"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz\"}",
      &request, &error));
}

TEST(ServiceRequestTest, ParsesControlPlaneKinds) {
  ServiceRequest request;
  std::string error;
  ASSERT_TRUE(ParseServiceRequest("{\"type\": \"get_metrics\"}", &request,
                                  &error))
      << error;
  EXPECT_EQ(request.kind, RequestKind::kGetMetrics);

  // dump_telemetry without a filter: trace_id stays zero ("everything").
  ASSERT_TRUE(ParseServiceRequest("{\"type\": \"dump_telemetry\"}", &request,
                                  &error))
      << error;
  EXPECT_EQ(request.kind, RequestKind::kDumpTelemetry);
  EXPECT_TRUE(request.trace_id.IsZero());

  ASSERT_TRUE(ParseServiceRequest(
      "{\"type\": \"dump_telemetry\", "
      "\"trace_id\": \"ffffffffffffffffffffffffffffffff\"}",
      &request, &error))
      << error;
  EXPECT_FALSE(request.trace_id.IsZero());

  // Neither control-plane kind requires a job block; a rewrite still does.
  EXPECT_FALSE(ParseServiceRequest("{\"type\": \"rewrite\"}", &request,
                                   &error));
  EXPECT_FALSE(ParseServiceRequest("{\"type\": \"sideways\"}", &request,
                                   &error));
}

// ---------------------------------------------------------------------------
// Responses

TEST(ServiceResponseTest, RoundTripsOkWithCounters) {
  ServiceResponse in;
  in.status = ResponseStatus::kOk;
  in.outcome = JobOutcome::kFound;
  in.body = "job 0: equivalent rewriting (1 disjunct)\n  q(A) :- v(A)\n";
  in.has_counters = true;
  in.stats.canonical_databases = 13;
  in.disjuncts = 1;
  const std::string wire = EncodeServiceResponse(in);
  EXPECT_NE(wire.find("\"schema_version\": "), std::string::npos);
  EXPECT_NE(wire.find("\"canonical_databases\": 13"), std::string::npos);

  ServiceResponse out;
  std::string error;
  ASSERT_TRUE(ParseServiceResponse(wire, &out, &error)) << error;
  EXPECT_EQ(out.status, ResponseStatus::kOk);
  EXPECT_EQ(out.outcome, JobOutcome::kFound);
  EXPECT_EQ(out.body, in.body);
}

TEST(ServiceResponseTest, RoundTripsStructuredErrors) {
  for (const ResponseStatus status :
       {ResponseStatus::kBadRequest, ResponseStatus::kOverloaded,
        ResponseStatus::kDeadlineExceeded, ResponseStatus::kShuttingDown}) {
    ServiceResponse in;
    in.status = status;
    in.outcome = status == ResponseStatus::kBadRequest
                     ? JobOutcome::kError
                     : JobOutcome::kRejected;
    in.error = "reason text";
    ServiceResponse out;
    std::string error;
    ASSERT_TRUE(ParseServiceResponse(EncodeServiceResponse(in), &out, &error))
        << ResponseStatusName(status) << ": " << error;
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.outcome, in.outcome);
    EXPECT_EQ(out.error, "reason text");
  }
}

TEST(ServiceResponseTest, RoundTripsTraceIdAndSchemaV9Counters) {
  ServiceResponse in;
  in.status = ResponseStatus::kOk;
  in.outcome = JobOutcome::kFound;
  in.body = "job 0: equivalent rewriting (1 disjunct)\n";
  in.has_counters = true;
  in.stats.canonical_databases = 13;
  in.stats.phase2_checks = 4;
  in.stats.phase2_orders = 9;
  ASSERT_TRUE(obs::ParseTraceIdHex("00112233445566778899aabbccddeeff",
                                   &in.trace_id));

  const std::string wire = EncodeServiceResponse(in);
  // Schema version, the per-order counter and the top-level trace id are
  // on the wire; the tier fields are gone since v8.
  EXPECT_NE(wire.find("\"schema_version\": 10"), std::string::npos) << wire;
  EXPECT_NE(wire.find("\"phase2_orders\": 9"), std::string::npos);
  EXPECT_EQ(wire.find("tier"), std::string::npos);
  EXPECT_EQ(wire.find("grid"), std::string::npos);  // removed in v6
  EXPECT_NE(
      wire.find("\"trace_id\": \"00112233445566778899aabbccddeeff\""),
      std::string::npos)
      << wire;

  ServiceResponse out;
  std::string error;
  ASSERT_TRUE(ParseServiceResponse(wire, &out, &error)) << error;
  EXPECT_EQ(out.trace_id, in.trace_id);
}

TEST(ServiceResponseTest, ToleratesResponsesWithoutTraceId) {
  // A response from a pre-v5 server: no trace_id.  New clients must parse
  // it and fall back to the "absent" sentinel.
  ServiceResponse out;
  std::string error;
  ASSERT_TRUE(ParseServiceResponse(
      "{\"status\": \"ok\", \"outcome\": \"found\", \"body\": \"x\"}", &out,
      &error))
      << error;
  EXPECT_TRUE(out.trace_id.IsZero());
  // And a malformed trace_id in a response is a protocol error, not a
  // silent zero.
  EXPECT_FALSE(ParseServiceResponse(
      "{\"status\": \"ok\", \"outcome\": \"found\", \"trace_id\": \"xyz\"}",
      &out, &error));
}

TEST(ServiceResponseTest, RejectsUnknownNames) {
  ServiceResponse out;
  std::string error;
  EXPECT_FALSE(ParseServiceResponse(
      "{\"status\": \"maybe\", \"outcome\": \"found\"}", &out, &error));
  EXPECT_FALSE(ParseServiceResponse(
      "{\"status\": \"ok\", \"outcome\": \"sideways\"}", &out, &error));
}

}  // namespace
}  // namespace server
}  // namespace cqac
