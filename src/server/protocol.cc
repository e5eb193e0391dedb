#include "server/protocol.h"

#include <cstring>
#include <utility>

#include "server/json.h"

namespace cqac {
namespace server {

namespace {

void AppendU32Le(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64Le(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t ReadU32Le(const char* p) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(p[i]);
  }
  return value;
}

uint64_t ReadU64Le(const char* p) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(p[i]);
  }
  return value;
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(4 + kFrameIdBytes + frame.body.size());
  AppendU32Le(&out,
              static_cast<uint32_t>(kFrameIdBytes + frame.body.size()));
  AppendU64Le(&out, frame.id);
  out += frame.body;
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (broken_) return;  // The stream is already unframeable.
  buffer_.append(data, n);
}

FrameDecoder::Status FrameDecoder::Next(Frame* frame, std::string* error) {
  if (broken_) {
    if (error != nullptr) *error = break_reason_;
    return Status::kError;
  }
  if (buffer_.size() < 4) return Status::kNeedMore;
  const uint32_t length = ReadU32Le(buffer_.data());
  if (length < kFrameIdBytes) {
    broken_ = true;
    break_reason_ = "frame length " + std::to_string(length) +
                    " is shorter than the 8-byte request id";
    if (error != nullptr) *error = break_reason_;
    return Status::kError;
  }
  if (length > max_frame_bytes_) {
    broken_ = true;
    break_reason_ = "frame length " + std::to_string(length) +
                    " exceeds the limit of " +
                    std::to_string(max_frame_bytes_) + " bytes";
    if (error != nullptr) *error = break_reason_;
    return Status::kError;
  }
  if (buffer_.size() < 4 + static_cast<size_t>(length)) {
    return Status::kNeedMore;
  }
  frame->id = ReadU64Le(buffer_.data() + 4);
  frame->body.assign(buffer_, 4 + kFrameIdBytes, length - kFrameIdBytes);
  buffer_.erase(0, 4 + static_cast<size_t>(length));
  return Status::kFrame;
}

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kBadRequest: return "bad_request";
    case ResponseStatus::kOverloaded: return "overloaded";
    case ResponseStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ResponseStatus::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

const char* JobOutcomeName(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kFound: return "found";
    case JobOutcome::kNone: return "none";
    case JobOutcome::kAborted: return "aborted";
    case JobOutcome::kError: return "error";
    case JobOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case JobOutcome::kRejected: return "rejected";
  }
  return "unknown";
}

bool ParseServiceRequest(const std::string& body, ServiceRequest* request,
                         std::string* error) {
  *request = ServiceRequest();  // a reused struct must not leak fields
  JsonValue root;
  if (!ParseJson(body, &root, error)) return false;
  if (root.type() != JsonValue::Type::kObject) {
    *error = "request body must be a JSON object";
    return false;
  }

  bool ok = true;
  const std::string type = root.FindString("type", "rewrite", &ok);
  if (!ok) {
    *error = "'type' must be a string";
    return false;
  }
  if (type == "set_catalog") {
    request->kind = RequestKind::kSetCatalog;
  } else if (type == "get_metrics") {
    request->kind = RequestKind::kGetMetrics;
  } else if (type == "dump_telemetry") {
    request->kind = RequestKind::kDumpTelemetry;
  } else if (type != "rewrite") {
    *error = "unknown request type '" + type + "'";
    return false;
  }

  const std::string trace_hex = root.FindString("trace_id", "", &ok);
  if (!ok) {
    *error = "'trace_id' must be a string";
    return false;
  }
  if (!trace_hex.empty() &&
      !obs::ParseTraceIdHex(trace_hex, &request->trace_id)) {
    *error = "'trace_id' must be 32 hex characters";
    return false;
  }

  if (request->kind == RequestKind::kGetMetrics ||
      request->kind == RequestKind::kDumpTelemetry) {
    // Control-plane requests carry no job; ignore any data-plane fields.
    return true;
  }

  const std::string job = root.FindString("job", "", &ok);
  if (!ok) {
    *error = "'job' must be a string";
    return false;
  }
  if (!job.empty()) {
    request->job_text = job;
  } else {
    std::string text;
    if (const JsonValue* views = root.Find("views"); views != nullptr) {
      if (views->type() != JsonValue::Type::kArray) {
        *error = "'views' must be an array of strings";
        return false;
      }
      for (const JsonValue& view : views->AsArray()) {
        if (view.type() != JsonValue::Type::kString) {
          *error = "'views' must be an array of strings";
          return false;
        }
        text += "view " + view.AsString() + "\n";
      }
    }
    const std::string query = root.FindString("query", "", &ok);
    if (!ok) {
      *error = "'query' must be a string";
      return false;
    }
    if (!query.empty()) {
      text += "query " + query + "\n";
    } else if (request->kind != RequestKind::kSetCatalog) {
      // A rewrite needs a query; a catalog swap is views alone (an empty
      // `views` array clears the default catalog).
      *error = "request carries neither 'job' nor 'query'";
      return false;
    }
    request->job_text = std::move(text);
  }

  request->index = root.FindInt("index", 0, &ok);
  if (!ok || request->index < 0) {
    *error = "'index' must be a non-negative integer";
    return false;
  }
  request->deadline_ms = root.FindInt("deadline_ms", 0, &ok);
  if (!ok || request->deadline_ms < 0) {
    *error = "'deadline_ms' must be a non-negative integer";
    return false;
  }
  if (const JsonValue* echo = root.Find("echo"); echo != nullptr) {
    if (echo->type() != JsonValue::Type::kBool) {
      *error = "'echo' must be a boolean";
      return false;
    }
    request->echo = echo->AsBool();
    request->has_echo = true;
  }
  return true;
}

std::string EncodeServiceResponse(const ServiceResponse& response) {
  std::string out = "{\"status\": ";
  AppendJsonString(&out, ResponseStatusName(response.status));
  out += ", \"outcome\": ";
  AppendJsonString(&out, JobOutcomeName(response.outcome));
  if (response.status == ResponseStatus::kOk) {
    out += ", \"body\": ";
    AppendJsonString(&out, response.body);
  } else {
    out += ", \"error\": ";
    AppendJsonString(&out, response.error);
  }
  if (!response.trace_id.IsZero()) {
    out += ", \"trace_id\": ";
    AppendJsonString(&out, obs::TraceIdHex(response.trace_id));
  }
  if (response.has_counters) {
    // The shell's per-rewrite record (docs/SYNTAX.md), so service
    // consumers and --json consumers read one shape.
    out += ", \"counters\": {" +
           RenderStatsFields(JobOutcomeName(response.outcome),
                             response.disjuncts, response.stats) +
           "}";
  }
  if (response.catalog_epoch > 0) {
    out += ", \"catalog_epoch\": " + std::to_string(response.catalog_epoch) +
           ", \"semantic_cache_hit\": " +
           (response.from_semantic_cache ? std::string("1")
                                         : std::string("0"));
  }
  if (response.catalog_views >= 0) {
    out += ", \"catalog_views\": " + std::to_string(response.catalog_views);
  }
  out += "}";
  return out;
}

bool ParseServiceResponse(const std::string& body, ServiceResponse* response,
                          std::string* error) {
  JsonValue root;
  if (!ParseJson(body, &root, error)) return false;
  if (root.type() != JsonValue::Type::kObject) {
    *error = "response body must be a JSON object";
    return false;
  }
  bool ok = true;
  const std::string status = root.FindString("status", "", &ok);
  static constexpr ResponseStatus kStatuses[] = {
      ResponseStatus::kOk, ResponseStatus::kBadRequest,
      ResponseStatus::kOverloaded, ResponseStatus::kDeadlineExceeded,
      ResponseStatus::kShuttingDown};
  bool matched = false;
  for (const ResponseStatus candidate : kStatuses) {
    if (ok && status == ResponseStatusName(candidate)) {
      response->status = candidate;
      matched = true;
      break;
    }
  }
  if (!matched) {
    *error = "unknown response status '" + status + "'";
    return false;
  }
  const std::string outcome = root.FindString("outcome", "", &ok);
  static constexpr JobOutcome kOutcomes[] = {
      JobOutcome::kFound, JobOutcome::kNone, JobOutcome::kAborted,
      JobOutcome::kError, JobOutcome::kDeadlineExceeded,
      JobOutcome::kRejected};
  matched = false;
  for (const JobOutcome candidate : kOutcomes) {
    if (ok && outcome == JobOutcomeName(candidate)) {
      response->outcome = candidate;
      matched = true;
      break;
    }
  }
  if (!matched) {
    *error = "unknown response outcome '" + outcome + "'";
    return false;
  }
  response->body = root.FindString("body", "", &ok);
  if (!ok) {
    *error = "'body' must be a string";
    return false;
  }
  response->error = root.FindString("error", "", &ok);
  if (!ok) {
    *error = "'error' must be a string";
    return false;
  }
  const std::string trace_hex = root.FindString("trace_id", "", &ok);
  if (!ok) {
    *error = "'trace_id' must be a string";
    return false;
  }
  if (!trace_hex.empty() &&
      !obs::ParseTraceIdHex(trace_hex, &response->trace_id)) {
    *error = "'trace_id' must be 32 hex characters";
    return false;
  }
  response->catalog_epoch =
      static_cast<uint64_t>(root.FindInt("catalog_epoch", 0, &ok));
  if (!ok) {
    *error = "'catalog_epoch' must be an integer";
    return false;
  }
  response->from_semantic_cache =
      root.FindInt("semantic_cache_hit", 0, &ok) != 0;
  if (!ok) {
    *error = "'semantic_cache_hit' must be an integer";
    return false;
  }
  response->catalog_views = root.FindInt("catalog_views", -1, &ok);
  if (!ok) {
    *error = "'catalog_views' must be an integer";
    return false;
  }
  return true;
}

}  // namespace server
}  // namespace cqac
