#ifndef CQAC_SERVER_PROTOCOL_H_
#define CQAC_SERVER_PROTOCOL_H_

// The cqacd wire protocol (docs/SERVICE.md).
//
// A connection is a byte stream of frames, identical in both directions:
//
//   u32  length   little-endian; byte count of everything after itself
//   u64  id       little-endian request id, chosen by the client and
//                 echoed verbatim on the matching response
//   ...  body     `length - 8` bytes of UTF-8 JSON
//
// `length` < 8 or > the configured maximum is a protocol error: the
// server answers with a status=bad_request frame (id 0 — the stream is
// unframeable, so no id can be echoed) and closes the connection.
// Responses to requests on one connection may arrive in any order; the
// id is how clients match them up.
//
// Request body (all fields optional unless noted):
//
//   {"type": "rewrite",  // rewrite (default) | set_catalog |
//                        // get_metrics | dump_telemetry
//    "job": "view v(...) :- ...\nquery q(...) :- ...",   // required*
//    "query": "q(X) :- ...", "views": ["v(X) :- ..."],   // *alternative
//    "index": 0,          // job index echoed in the rendered body
//    "deadline_ms": 2000, // wall-clock budget; 0/absent = server default
//    "trace_id": "32 hex chars",  // request trace id; absent (an old
//                                 // client) = the server stamps one
//    "echo": false}       // echo definitions in the body
//
// A `set_catalog` request carries only views — either a `job` block of
// `view` directives or a `views` array — and swaps the server's default
// catalog to a compilation of that view set (docs/SERVICE.md).
// Subsequent query-only rewrite requests are served against it.
//
// `get_metrics` and `dump_telemetry` are control-plane requests carrying
// no job: the former answers with the Prometheus rendering of the metrics
// registry in `body`; the latter with the flight-recorder excerpt for the
// given `trace_id` (or all retained events when absent) as JSON lines in
// `body` (docs/OBSERVABILITY.md).
//
// Response body:
//
//   {"status": "ok",           // ok | bad_request | overloaded |
//                              // deadline_exceeded | shutting_down
//    "outcome": "found",       // found | none | aborted | error |
//                              // deadline_exceeded | rejected
//    "body": "job 0: ...",     // status=ok only; byte-identical to the
//                              // --serve-batch result block
//    "error": "...",           // non-ok statuses
//    "trace_id": "32 hex",     // the id the request ran under (echoed,
//                              // or server-stamped for old clients)
//    "counters": {...},        // status=ok, job ran: the per-rewrite
//                              // schema_version record of docs/SYNTAX.md
//                              // (schema v8)
//    "catalog_epoch": 7,       // epoch of the
//    "semantic_cache_hit": 1,  //   serving catalog + whether the result
//                              //   replayed from the semantic cache
//    "catalog_views": 3}       // set_catalog ack only: view count

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/request_context.h"
#include "rewriting/equiv_rewriter.h"

namespace cqac {
namespace server {

inline constexpr size_t kFrameIdBytes = 8;
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

/// One decoded frame: the request id plus the JSON body.
struct Frame {
  uint64_t id = 0;
  std::string body;
};

/// Serializes `frame` as length + id + body.
std::string EncodeFrame(const Frame& frame);

/// Incremental frame decoder over a received byte stream.  Feed bytes as
/// they arrive, then drain Next() until it stops returning kFrame.  A
/// kError verdict (undersized or oversized length prefix) is sticky: the
/// stream has lost framing and the connection must be torn down.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, size_t n);

  enum class Status { kFrame, kNeedMore, kError };
  Status Next(Frame* frame, std::string* error);

  /// Bytes buffered but not yet returned as frames; a nonzero value at
  /// EOF means the peer closed mid-frame.
  size_t buffered() const { return buffer_.size(); }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  bool broken_ = false;
  std::string break_reason_;
};

/// Transport/admission verdict of one response.
enum class ResponseStatus {
  kOk,                // the job ran; see `outcome` and `body`
  kBadRequest,        // unframeable stream or unparseable request JSON
  kOverloaded,        // shed by admission control; retry later
  kDeadlineExceeded,  // cancelled by the request deadline
  kShuttingDown,      // the server is draining; no new work accepted
};
const char* ResponseStatusName(ResponseStatus status);

/// Job-level outcome, the taxonomy shared with BatchSummary: found /
/// none / aborted / error map onto the batch counters of the same name,
/// deadline_exceeded and rejected onto the two service-only counters.
enum class JobOutcome {
  kFound,
  kNone,
  kAborted,
  kError,
  kDeadlineExceeded,
  kRejected,
};
const char* JobOutcomeName(JobOutcome outcome);

/// What a request asks the server to do.
enum class RequestKind {
  kRewrite,        // run one job (the default)
  kSetCatalog,     // swap the server's default catalog
  kGetMetrics,     // render the metrics registry (Prometheus text)
  kDumpTelemetry,  // flight-recorder excerpt for a trace id
};

/// A parsed request.
struct ServiceRequest {
  RequestKind kind = RequestKind::kRewrite;
  std::string job_text;   // one --serve-batch job block
  int64_t index = 0;      // job index used in the rendered result block
  int64_t deadline_ms = 0;  // 0 = use the server default (possibly none)
  bool echo = false;
  bool has_echo = false;  // request carried an explicit "echo"

  /// Trace id the client stamped on the request; zero when absent (an
  /// old client), in which case the server generates one.  For
  /// dump_telemetry it is the excerpt filter instead (zero = all).
  obs::TraceId trace_id;
};

/// Parses a request body.  Accepts either a raw `job` block or the
/// structured `query` + `views` form (assembled into a block, so both
/// take the same parse path server-side); a `set_catalog` request may
/// instead carry views alone.  False + `error` on malformed JSON, wrong
/// field types, or a missing job.
bool ParseServiceRequest(const std::string& body, ServiceRequest* request,
                         std::string* error);

/// A response about to be serialized (server side) or just parsed
/// (client side).
struct ServiceResponse {
  ResponseStatus status = ResponseStatus::kOk;
  JobOutcome outcome = JobOutcome::kError;
  std::string body;   // status=ok: the --serve-batch-identical block
  std::string error;  // non-ok statuses: what went wrong

  /// Trace id the request ran under (echoed from the request, or
  /// server-stamped for old clients); zero = absent.
  obs::TraceId trace_id;

  /// Counter record of the run (status=ok when the job executed).
  bool has_counters = false;
  RewriteStats stats;
  int64_t disjuncts = 0;

  // Inert and never encoded; written by perfbench/src/served.cc:368-369.
  int tier = -1;
  std::string tier_reason;

  /// Catalog provenance: epoch of the catalog that served the job (0 =
  /// not catalog-served) and whether the result replayed from its
  /// semantic cache.  Encoded only when catalog_epoch > 0.
  uint64_t catalog_epoch = 0;
  bool from_semantic_cache = false;

  /// set_catalog ack only: number of views compiled; -1 = absent.
  int64_t catalog_views = -1;
};

/// Serializes a response body.  The counters object mirrors the
/// per-rewrite JSON record of docs/SYNTAX.md, schema_version included.
std::string EncodeServiceResponse(const ServiceResponse& response);

/// Parses the fields a client needs (status, outcome, body, error);
/// counter parsing is left to callers that want it.  False + `error` on
/// malformed JSON or unknown status/outcome names.
bool ParseServiceResponse(const std::string& body, ServiceResponse* response,
                          std::string* error);

}  // namespace server
}  // namespace cqac

#endif  // CQAC_SERVER_PROTOCOL_H_
