// End-to-end tests of the rewrite service (server/server.h) over real
// Unix-domain sockets: response parity with the batch driver, concurrent
// connections, malformed/truncated/oversized frames, deadlines,
// admission control, and graceful drain.

#include "server/server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "runtime/batch_driver.h"
#include "server/json.h"
#include "server/protocol.h"

namespace cqac {
namespace server {
namespace {

// The paper's running example; finishes in well under a millisecond.
constexpr char kPaperJob[] =
    "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z\n"
    "query q(A) :- r(A), s(A,A), A <= 8\n";

// A 7-variable chain: ~1 s of Phase 1 on one core when uncancelled, so a
// deadline of a few ms reliably fires mid-run.
constexpr char kHeavyJob[] =
    "view v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(F,G)\n"
    "query q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(F,G), "
    "A <= 8\n";

// A 6-variable chain: tens of milliseconds — long enough to observe
// in-flight behavior, short enough to run to completion in tests.
constexpr char kMediumJob[] =
    "view v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F)\n"
    "query q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= 8\n";

std::string TestSocketPath() {
  static int counter = 0;
  return "/tmp/cqacs_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

std::string RequestBody(const std::string& job_text, int64_t index = 0,
                        int64_t deadline_ms = 0) {
  std::string body = "{\"job\": ";
  AppendJsonString(&body, job_text);
  body += ", \"index\": " + std::to_string(index);
  if (deadline_ms > 0) {
    body += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  body += "}";
  return body;
}

/// A blocking test client over one connection.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendRequest(uint64_t id, const std::string& body) {
    Frame frame;
    frame.id = id;
    frame.body = body;
    return SendRaw(EncodeFrame(frame));
  }

  /// Reads until one full frame arrives; false on EOF or error.
  bool ReadFrame(Frame* frame) {
    char buf[16384];
    for (;;) {
      std::string error;
      const FrameDecoder::Status status = decoder_.Next(frame, &error);
      if (status == FrameDecoder::Status::kFrame) return true;
      if (status == FrameDecoder::Status::kError) return false;
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Reads a frame and parses its body; false on transport failure.
  bool ReadResponse(uint64_t* id, ServiceResponse* response) {
    Frame frame;
    if (!ReadFrame(&frame)) return false;
    *id = frame.id;
    std::string error;
    return ParseServiceResponse(frame.body, response, &error);
  }

  /// True when read() reports EOF (the server closed the connection).
  bool AtEof() {
    char byte = 0;
    for (;;) {
      const ssize_t n = ::read(fd_, &byte, 1);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// The result block the reference rewriter (EquivalentRewriter, no
/// catalog) renders for `job_text` at request index 0.
std::string ReferenceBlock(const std::string& job_text) {
  const BatchJob job = ParseJobBlock(job_text);
  EXPECT_TRUE(job.error.empty()) << job.error;
  RewriteOptions options;
  options.jobs = 1;
  const RewriteResult result =
      EquivalentRewriter(*job.query, job.views, options).Run();
  return RenderJobResult(0, job, result, /*echo=*/false);
}

/// Starts a server on a fresh Unix socket; fails the test on error.
struct TestServer {
  explicit TestServer(ServerOptions options = {}) : path(TestSocketPath()) {
    options.unix_socket_path = path;
    server = std::make_unique<Server>(std::move(options));
    std::string error;
    started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  std::string path;
  std::unique_ptr<Server> server;
  bool started = false;
};

TEST(ServerTest, ResponseBodyMatchesServeBatchByteForByte) {
  TestServer ts;
  ASSERT_TRUE(ts.started);

  std::istringstream batch_in(kPaperJob);
  std::ostringstream batch_out;
  RunBatch(batch_in, batch_out);
  const std::string batch_block =
      batch_out.str().substr(0, batch_out.str().find("batch: "));

  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRequest(7, RequestBody(kPaperJob)));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.outcome, JobOutcome::kFound);
  EXPECT_EQ(response.body, batch_block);
}

TEST(ServerTest, ServesEightConcurrentConnections) {
  TestServer ts;
  ASSERT_TRUE(ts.started);

  constexpr int kConnections = 8;
  constexpr int kRequestsPerConnection = 4;
  std::vector<std::string> bodies(kConnections * kRequestsPerConnection);
  std::vector<int> failures(kConnections, 0);

  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(ts.path);
      if (!client.connected()) {
        failures[c] = 1;
        return;
      }
      for (int r = 0; r < kRequestsPerConnection; ++r) {
        const uint64_t id = static_cast<uint64_t>(c) * 100 + r;
        if (!client.SendRequest(id, RequestBody(kPaperJob))) {
          failures[c] = 2;
          return;
        }
        uint64_t got = 0;
        ServiceResponse response;
        if (!client.ReadResponse(&got, &response) || got != id ||
            response.status != ResponseStatus::kOk ||
            response.outcome != JobOutcome::kFound) {
          failures[c] = 3;
          return;
        }
        bodies[c * kRequestsPerConnection + r] = response.body;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_EQ(failures[c], 0) << "connection " << c;
  }
  // Identical jobs produce identical bodies on every connection.
  for (const std::string& body : bodies) EXPECT_EQ(body, bodies[0]);

  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.jobs_total, kConnections * kRequestsPerConnection);
  EXPECT_EQ(summary.found, kConnections * kRequestsPerConnection);
  // One shared catalog across connections: repeats replay its answer.
  EXPECT_GT(summary.catalog_semantic_hits, 0);
}

TEST(ServerTest, MalformedJsonGetsStructuredErrorAndKeepsConnection) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.SendRequest(9, "this is not json"));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 9u);  // Framing survived, so the id is echoed.
  EXPECT_EQ(response.status, ResponseStatus::kBadRequest);
  EXPECT_EQ(response.outcome, JobOutcome::kError);
  EXPECT_FALSE(response.error.empty());

  // Request JSON is a per-request problem; the connection still works.
  ASSERT_TRUE(client.SendRequest(10, RequestBody(kPaperJob)));
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 10u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
}

TEST(ServerTest, UndersizedFrameGetsErrorThenClose) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // length=3 < the 8-byte id: the stream is unframeable.
  ASSERT_TRUE(client.SendRaw(std::string("\x03\x00\x00\x00xyz", 7)));
  uint64_t id = 77;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 0u);  // No id is recoverable from a broken stream.
  EXPECT_EQ(response.status, ResponseStatus::kBadRequest);
  EXPECT_NE(response.error.find("shorter than"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST(ServerTest, OversizedFrameGetsErrorThenClose) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  TestServer ts(std::move(options));
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // Claim a 1 MiB frame against a 1 KiB limit; send only the prefix —
  // the server must reject on the length alone.
  const uint32_t claimed = 1u << 20;
  std::string prefix;
  for (int i = 0; i < 4; ++i) {
    prefix.push_back(static_cast<char>((claimed >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(client.SendRaw(prefix));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kBadRequest);
  EXPECT_NE(response.error.find("exceeds the limit"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST(ServerTest, TruncatedFrameAtCloseIsDiscardedQuietly) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  {
    TestClient client(ts.path);
    ASSERT_TRUE(client.connected());
    Frame frame;
    frame.id = 5;
    frame.body = RequestBody(kPaperJob);
    const std::string wire = EncodeFrame(frame);
    // Half a frame, then close: no response is owed, and nothing crashes.
    ASSERT_TRUE(client.SendRaw(wire.substr(0, wire.size() / 2)));
  }
  // The server is still healthy for the next connection.
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRequest(6, RequestBody(kPaperJob)));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.jobs_total, 1);  // The truncated frame never became a job.
}

TEST(ServerTest, DeadlineCancelsMidRunWithinBound) {
  obs::EnableMetrics(true);
  const int64_t drains_before =
      obs::MetricsRegistry::Global().histogram("server.cancel_drain_ns")
          .count();

  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendRequest(
      1, RequestBody(kHeavyJob, 0, /*deadline_ms=*/25)));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(response.outcome, JobOutcome::kDeadlineExceeded);
  EXPECT_NE(response.error.find("deadline exceeded"), std::string::npos);
  // Uncancelled the job runs ~1 s; cancellation is bounded by one work
  // unit past the 25 ms deadline.  10 s allows for arbitrarily slow CI.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);

  const int64_t drains_after =
      obs::MetricsRegistry::Global().histogram("server.cancel_drain_ns")
          .count();
  EXPECT_GT(drains_after, drains_before);

  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.deadline_exceeded, 1);
  EXPECT_EQ(summary.found, 0);
  obs::EnableMetrics(false);
}

TEST(ServerTest, QueuedJobsExpireBeforeStarting) {
  ServerOptions options;
  options.jobs = 1;  // One worker: later jobs queue behind the first.
  TestServer ts(std::move(options));
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // The medium job holds the only worker for tens of ms; the pipelined
  // followers carry 5 ms deadlines, which expire while they queue.
  ASSERT_TRUE(client.SendRequest(1, RequestBody(kMediumJob)));
  ASSERT_TRUE(client.SendRequest(2, RequestBody(kPaperJob, 1, 5)));
  ASSERT_TRUE(client.SendRequest(3, RequestBody(kPaperJob, 2, 5)));

  int ok = 0;
  int expired = 0;
  for (int i = 0; i < 3; ++i) {
    uint64_t id = 0;
    ServiceResponse response;
    ASSERT_TRUE(client.ReadResponse(&id, &response));
    if (response.status == ResponseStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, ResponseStatus::kDeadlineExceeded);
      ++expired;
    }
  }
  // The blocker always completes; the followers' fates depend on timing,
  // but everything must be answered exactly once.
  EXPECT_GE(ok, 1);
  EXPECT_EQ(ok + expired, 3);
}

TEST(ServerTest, AdmissionControlShedsWithOverloaded) {
  ServerOptions options;
  options.max_inflight = 0;  // Degenerate limit: everything sheds.
  TestServer ts(std::move(options));
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.SendRequest(4, RequestBody(kPaperJob)));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 4u);
  EXPECT_EQ(response.status, ResponseStatus::kOverloaded);
  EXPECT_EQ(response.outcome, JobOutcome::kRejected);
  EXPECT_NE(response.error.find("overloaded"), std::string::npos);

  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.rejected, 1);
  EXPECT_EQ(summary.jobs_total, 1);
}

TEST(ServerTest, GracefulDrainDeliversInFlightResponses) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.SendRequest(11, RequestBody(kMediumJob)));
  // Let the request reach the worker, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ts.server->BeginDrain();

  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 11u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.outcome, JobOutcome::kFound);
  EXPECT_TRUE(client.AtEof());

  ts.server->Wait();
  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.jobs_total, 1);
  EXPECT_EQ(summary.found, 1);

  // Fully drained: new connections are refused.
  TestClient late(ts.path);
  EXPECT_FALSE(late.connected());
}

TEST(ServerTest, JobsOneAndJobsManyProduceIdenticalBodies) {
  ServerOptions serial;
  serial.jobs = 1;
  ServerOptions parallel;
  parallel.jobs = 4;
  TestServer ts1(std::move(serial));
  TestServer tsN(std::move(parallel));
  ASSERT_TRUE(ts1.started);
  ASSERT_TRUE(tsN.started);

  const std::string jobs[] = {std::string(kPaperJob), std::string(kMediumJob),
                              "query q(X) :- p(X,Y), X <= 3\n",
                              std::string(kPaperJob)};
  TestClient c1(ts1.path);
  TestClient cN(tsN.path);
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(cN.connected());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(c1.SendRequest(i + 1, RequestBody(jobs[i], i)));
    ASSERT_TRUE(cN.SendRequest(i + 1, RequestBody(jobs[i], i)));
  }
  // Responses may arrive in any order on the parallel server; match by id.
  std::map<uint64_t, std::string> bodies1, bodiesN;
  for (size_t i = 0; i < 4; ++i) {
    uint64_t id1 = 0, idN = 0;
    ServiceResponse r1, rN;
    ASSERT_TRUE(c1.ReadResponse(&id1, &r1));
    ASSERT_TRUE(cN.ReadResponse(&idN, &rN));
    EXPECT_EQ(r1.status, ResponseStatus::kOk);
    EXPECT_EQ(rN.status, ResponseStatus::kOk);
    bodies1[id1] = r1.body;
    bodiesN[idN] = rN.body;
  }
  EXPECT_EQ(bodies1, bodiesN);
  // Outcome totals agree regardless of worker count.
  const BatchSummary s1 = ts1.server->summary();
  const BatchSummary sN = tsN.server->summary();
  EXPECT_EQ(s1.jobs_total, sN.jobs_total);
  EXPECT_EQ(s1.found, sN.found);
  EXPECT_EQ(s1.none, sN.none);
  EXPECT_EQ(s1.errors, sN.errors);
}

TEST(ServerTest, RepeatedJobReplaysFromCatalogByteForByte) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());
  const std::string expected = ReferenceBlock(kPaperJob);

  // Same job twice: the second answer replays from the catalog's
  // semantic cache, and both bodies match the reference rewriter's.
  uint64_t first_epoch = 0;
  for (uint64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE(client.SendRequest(id, RequestBody(kPaperJob)));
    uint64_t got = 0;
    ServiceResponse response;
    ASSERT_TRUE(client.ReadResponse(&got, &response));
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.body, expected);
    EXPECT_GT(response.catalog_epoch, 0u);
    if (id == 1) first_epoch = response.catalog_epoch;
    EXPECT_EQ(response.catalog_epoch, first_epoch);
    EXPECT_EQ(response.from_semantic_cache, id == 2);
  }

  const BatchSummary summary = ts.server->summary();
  EXPECT_EQ(summary.catalogs_built, 1);
  EXPECT_EQ(summary.catalog_semantic_hits, 1);
  EXPECT_EQ(summary.catalog_semantic_misses, 1);
  EXPECT_EQ(summary.catalog_epoch, first_epoch);
}

TEST(ServerTest, SetCatalogServesQueryOnlyRequestsAndSwaps) {
  TestServer ts;
  ASSERT_TRUE(ts.started);

  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // Install the paper example's view as the default catalog.
  ASSERT_TRUE(client.SendRequest(
      1,
      "{\"type\": \"set_catalog\", \"views\": "
      "[\"v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z\"]}"));
  uint64_t id = 0;
  ServiceResponse ack;
  ASSERT_TRUE(client.ReadResponse(&id, &ack));
  EXPECT_EQ(ack.status, ResponseStatus::kOk);
  EXPECT_EQ(ack.catalog_views, 1);
  ASSERT_GT(ack.catalog_epoch, 0u);

  // A query-only request runs against the installed catalog and renders
  // the same block as the full job.
  std::istringstream batch_in(kPaperJob);
  std::ostringstream batch_out;
  RunBatch(batch_in, batch_out);
  const std::string batch_block =
      batch_out.str().substr(0, batch_out.str().find("batch: "));

  ASSERT_TRUE(client.SendRequest(
      2, "{\"query\": \"q(A) :- r(A), s(A,A), A <= 8\"}"));
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.outcome, JobOutcome::kFound);
  EXPECT_EQ(response.body, batch_block);
  EXPECT_EQ(response.catalog_epoch, ack.catalog_epoch);

  // Swapping to a different view set bumps the epoch; subsequent
  // query-only requests land on the new catalog.
  ASSERT_TRUE(client.SendRequest(
      3,
      "{\"type\": \"set_catalog\", \"views\": "
      "[\"w(A,B) :- t(A,B), A <= B\"]}"));
  ServiceResponse ack2;
  ASSERT_TRUE(client.ReadResponse(&id, &ack2));
  EXPECT_EQ(ack2.status, ResponseStatus::kOk);
  EXPECT_GT(ack2.catalog_epoch, ack.catalog_epoch);

  ASSERT_TRUE(client.SendRequest(
      4, "{\"query\": \"q(A) :- r(A), s(A,A), A <= 8\"}"));
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.catalog_epoch, ack2.catalog_epoch);
  EXPECT_FALSE(response.from_semantic_cache);  // new epoch starts cold
}

TEST(ServerTest, SetCatalogWorksWithoutAnyCatalogOption) {
  TestServer ts;  // default ServerOptions: no catalog is configured
  ASSERT_TRUE(ts.started);

  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRequest(
      1,
      "{\"type\": \"set_catalog\", \"views\": "
      "[\"v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z\"]}"));
  uint64_t id = 0;
  ServiceResponse ack;
  ASSERT_TRUE(client.ReadResponse(&id, &ack));
  EXPECT_EQ(ack.status, ResponseStatus::kOk) << ack.error;
  EXPECT_EQ(ack.catalog_views, 1);
  ASSERT_GT(ack.catalog_epoch, 0u);

  // A query-only request is answered from the installed default catalog.
  ASSERT_TRUE(client.SendRequest(
      2, "{\"query\": \"q(A) :- r(A), s(A,A), A <= 8\"}"));
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.outcome, JobOutcome::kFound);
  EXPECT_EQ(response.body, ReferenceBlock(kPaperJob));
  EXPECT_EQ(response.catalog_epoch, ack.catalog_epoch);

  // A full job over the same view set lands on the same catalog and
  // replays the answer the query-only request computed.
  ASSERT_TRUE(client.SendRequest(3, RequestBody(kPaperJob)));
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.catalog_epoch, ack.catalog_epoch);
  EXPECT_TRUE(response.from_semantic_cache);
}

// ---------------------------------------------------------------------------
// Request-scoped telemetry

TEST(ServerTest, ClientTraceIdIsEchoedAndAbsentOnesAreStamped) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // A client-sent trace id propagates through the wire and back.
  std::string body = RequestBody(kPaperJob);
  body.insert(body.size() - 1,
              ", \"trace_id\": \"0123456789abcdef0123456789abcdef\"");
  ASSERT_TRUE(client.SendRequest(1, body));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(obs::TraceIdHex(response.trace_id),
            "0123456789abcdef0123456789abcdef");

  // An old client that sends none gets a server-stamped id back.
  ASSERT_TRUE(client.SendRequest(2, RequestBody(kPaperJob)));
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.trace_id.IsZero());
}

TEST(ServerTest, GetMetricsServesPrometheusTextWithSloSeries) {
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // One served job so the SLO window has a sample.
  ASSERT_TRUE(client.SendRequest(1, RequestBody(kPaperJob)));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);

  ASSERT_TRUE(client.SendRequest(2, "{\"type\": \"get_metrics\"}"));
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.outcome, JobOutcome::kNone);
  // The body is the exposition format, including the one SLO summary
  // the server registers eagerly at construction.
  EXPECT_NE(response.body.find(
                "# TYPE cqac_server_slo_request_latency_ns summary"),
            std::string::npos)
      << response.body;
  EXPECT_NE(
      response.body.find("cqac_server_slo_request_latency_ns{quantile="),
      std::string::npos);
  EXPECT_EQ(response.body.find("tier="), std::string::npos);
}

TEST(ServerTest, DumpTelemetryReturnsDeadlineKilledRequestsSpans) {
  obs::ResetFlightRecorderForTest();
  TestServer ts;
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  // The acceptance scenario: a deadline kills a heavy request; with NO
  // tracing session armed, its trace id must still be enough to pull the
  // request's span history out of the always-on flight recorder.
  const char* trace_hex = "feedfacefeedfacefeedfacefeedface";
  std::string body = RequestBody(kHeavyJob, 0, /*deadline_ms=*/30);
  body.insert(body.size() - 1,
              std::string(", \"trace_id\": \"") + trace_hex + "\"");
  ASSERT_TRUE(client.SendRequest(1, body));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  ASSERT_EQ(response.status, ResponseStatus::kDeadlineExceeded);
  ASSERT_EQ(obs::TraceIdHex(response.trace_id), trace_hex);

  if (!obs::TracingCompiledIn()) {
    GTEST_SKIP() << "CQAC_TRACING=OFF: span sites are compiled out";
  }
  // The job thread finishes writing its ring shortly after the response
  // is delivered (the server.job span closes after the write); poll.
  std::string excerpt;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(client.SendRequest(
        2 + attempt, std::string("{\"type\": \"dump_telemetry\", "
                                 "\"trace_id\": \"") +
                         trace_hex + "\"}"));
    ASSERT_TRUE(client.ReadResponse(&id, &response));
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    excerpt = response.body;
    if (excerpt.find("server.job") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Meta line first, then one JSON line per span of this trace only.
  EXPECT_EQ(excerpt.find("{\"event\": \"telemetry\""), 0u) << excerpt;
  EXPECT_NE(excerpt.find("\"tracing_compiled_in\": true"),
            std::string::npos);
  EXPECT_NE(excerpt.find(std::string("\"trace_id\": \"") + trace_hex),
            std::string::npos)
      << excerpt;
  EXPECT_NE(excerpt.find("\"name\": \"prepare.work\""), std::string::npos)
      << excerpt;
  EXPECT_NE(excerpt.find("\"name\": \"server.job\""), std::string::npos);
}

TEST(ServerTest, SlowLogRecordsDeadlineExceededRequests) {
  obs::ResetFlightRecorderForTest();
  const std::string log_path = TestSocketPath() + ".slowlog";
  ServerOptions options;
  options.slow_log_path = log_path;
  TestServer ts(options);
  ASSERT_TRUE(ts.started);
  TestClient client(ts.path);
  ASSERT_TRUE(client.connected());

  const char* trace_hex = "abadcafeabadcafeabadcafeabadcafe";
  std::string body = RequestBody(kHeavyJob, 0, /*deadline_ms=*/30);
  body.insert(body.size() - 1,
              std::string(", \"trace_id\": \"") + trace_hex + "\"");
  ASSERT_TRUE(client.SendRequest(1, body));
  uint64_t id = 0;
  ServiceResponse response;
  ASSERT_TRUE(client.ReadResponse(&id, &response));
  ASSERT_EQ(response.status, ResponseStatus::kDeadlineExceeded);

  // The slow-log line is appended after the response goes out; poll.
  std::string log;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(log_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    log = buffer.str();
    if (log.find("slow_request") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(log.find("\"event\": \"slow_request\""), std::string::npos)
      << log;
  EXPECT_NE(log.find(std::string("\"trace_id\": \"") + trace_hex),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("\"outcome\": \"deadline_exceeded\""),
            std::string::npos);
  EXPECT_EQ(log.find("\"tier"), std::string::npos);  // removed in v8
  EXPECT_NE(log.find("\"deadline_ms\": 30"), std::string::npos);
  EXPECT_NE(log.find("\"latency_ns\": "), std::string::npos);
  if (obs::TracingCompiledIn()) {
    // The flight excerpt follows the header: the killed request's own
    // span history, available with session tracing disabled.
    EXPECT_NE(log.find("\"event\": \"span\""), std::string::npos) << log;
    EXPECT_NE(log.find("\"name\": \"prepare.work\""), std::string::npos)
        << log;
  }
  ::unlink(log_path.c_str());
}

}  // namespace
}  // namespace server
}  // namespace cqac
