#include "server/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "server/json.h"

namespace cqac {
namespace server {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + strerror(errno);
}

/// Sends all of `data`, tolerating short writes and EINTR.  A failure
/// means the peer is gone; the caller drops the response.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Parses a job block expected to hold only `view` directives (a catalog
/// definition).  An empty block is a valid empty view set.
bool ParseViewsBlock(const std::string& text, ViewSet* views,
                     std::string* error) {
  std::istringstream in(text);
  std::vector<BatchJob> jobs = ParseJobStream(in);
  if (jobs.empty()) {
    *views = ViewSet();
    return true;
  }
  if (jobs.size() > 1) {
    *error = "catalog definition contains " + std::to_string(jobs.size()) +
             " blocks; send one";
    return false;
  }
  BatchJob& job = jobs.front();
  // ParseJobStream flags a view-only block as a job without a query —
  // here that is exactly the expected shape.
  if (!job.error.empty() && job.error != "job has views but no query") {
    *error = job.error;
    return false;
  }
  if (job.query.has_value()) {
    *error = "catalog definition must not contain a query";
    return false;
  }
  *views = std::move(job.views);
  return true;
}

/// One flight-recorder event as a JSON line.
void AppendSpanLine(std::string* out, const obs::FlightEvent& event) {
  *out += "{\"event\": \"span\", \"trace_id\": \"";
  *out += obs::TraceIdHex(event.trace);
  *out += "\", \"name\": ";
  AppendJsonString(out, event.name);
  *out += ", \"start_ns\": " + std::to_string(event.start_ns) +
          ", \"dur_ns\": " + std::to_string(event.dur_ns) +
          ", \"tid\": " + std::to_string(event.tid) + "}\n";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      // Registered up front so get_metrics lists the series before any
      // traffic.
      slo_latency_(&obs::MetricsRegistry::Global().windowed(
          "server.slo_request_latency_ns")) {}

Server::~Server() {
  if (started_.load() && !joined_.load()) {
    BeginDrain();
    Wait();
  }
}

bool Server::Start(std::string* error) {
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0) {
    *error = "no listener configured: set a Unix socket path or a TCP port";
    return false;
  }

  if (!options_.slow_log_path.empty()) {
    if (options_.slow_log_path == "-") {
      slow_log_ = &std::cerr;
    } else {
      auto out = std::make_unique<std::ofstream>(options_.slow_log_path,
                                                 std::ios::app);
      if (!out->is_open()) {
        *error = "cannot open slow log " + options_.slow_log_path;
        return false;
      }
      slow_log_owned_ = std::move(out);
      slow_log_ = slow_log_owned_.get();
    }
  }

  if (!options_.catalog_views_text.empty()) {
    ViewSet views;
    std::string verror;
    if (!ParseViewsBlock(options_.catalog_views_text, &views, &verror)) {
      *error = "bad catalog views: " + verror;
      return false;
    }
    std::lock_guard<std::mutex> lock(catalog_mu_);
    default_catalog_ = registry_.GetOrBuild(views);
  }

  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      *error = "Unix socket path longer than " +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " +
               options_.unix_socket_path;
      return false;
    }
    memcpy(addr.sun_path, options_.unix_socket_path.c_str(),
           options_.unix_socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = ErrnoText("socket(AF_UNIX)");
      return false;
    }
    ::unlink(options_.unix_socket_path.c_str());  // Drop any stale socket.
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, 128) < 0) {
      *error = ErrnoText(("bind/listen " + options_.unix_socket_path).c_str());
      ::close(fd);
      return false;
    }
    listen_fds_.push_back(fd);
  }

  if (options_.tcp_port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = ErrnoText("socket(AF_INET)");
      for (const int open_fd : listen_fds_) ::close(open_fd);
      listen_fds_.clear();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, 128) < 0) {
      *error = ErrnoText(
          ("bind/listen 127.0.0.1:" + std::to_string(options_.tcp_port))
              .c_str());
      ::close(fd);
      for (const int open_fd : listen_fds_) ::close(open_fd);
      listen_fds_.clear();
      return false;
    }
    sockaddr_in bound = {};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
    listen_fds_.push_back(fd);
  }

  if (::pipe(drain_pipe_) < 0) {
    *error = ErrnoText("pipe");
    for (const int open_fd : listen_fds_) ::close(open_fd);
    listen_fds_.clear();
    return false;
  }

  pool_ = std::make_unique<ThreadPool>(ThreadPool::ResolveJobs(options_.jobs));
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return true;
}

void Server::AcceptLoop() {
  std::vector<pollfd> fds;
  fds.reserve(listen_fds_.size() + 1);
  for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
  fds.push_back({drain_pipe_[0], POLLIN, 0});

  for (;;) {
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds.back().revents != 0) break;  // BeginDrain woke us.
    for (size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn_fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = conn_fd;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (draining_.load()) {
          // Raced with BeginDrain: this connection would never be told to
          // shut down, so refuse it outright.
          ::close(conn_fd);
          continue;
        }
        conns_.insert(conn);
        conn_threads_.emplace_back(
            [this, conn = std::move(conn)]() mutable {
              ConnectionLoop(std::move(conn));
            });
      }
      if (obs::MetricsActive()) {
        obs::MetricsRegistry::Global().counter("server.connections").Add(1);
      }
    }
  }

  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  char buf[16384];
  bool protocol_error = false;

  while (!protocol_error) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF (client close or drain's SHUT_RD).

    decoder.Feed(buf, static_cast<size_t>(n));
    for (;;) {
      Frame frame;
      std::string error;
      const FrameDecoder::Status status = decoder.Next(&frame, &error);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kFrame) {
        HandleFrame(conn, std::move(frame));
        continue;
      }
      // The stream has lost framing: answer once with id 0 (no id can be
      // recovered from a broken stream), then tear the connection down.
      ServiceResponse response;
      response.status = ResponseStatus::kBadRequest;
      response.outcome = JobOutcome::kError;
      response.error = error;
      CountOutcome(JobOutcome::kError, nullptr);
      WriteResponse(*conn, 0, response);
      if (obs::MetricsActive()) {
        obs::MetricsRegistry::Global().counter("server.bad_frames").Add(1);
      }
      protocol_error = true;
      break;
    }
  }

  // Responses of this connection's in-flight jobs must still go out (on
  // drain, "in-flight jobs run to completion and deliver"), so the fd
  // stays open until the last job finished writing.
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->cv.wait(lock, [&] { return conn->inflight == 0; });
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn);
  }
  conns_cv_.notify_all();
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         Frame frame) {
  ServiceRequest request;
  std::string error;
  if (!ParseServiceRequest(frame.body, &request, &error)) {
    ServiceResponse response;
    response.status = ResponseStatus::kBadRequest;
    response.outcome = JobOutcome::kError;
    response.error = error;
    CountOutcome(JobOutcome::kError, nullptr);
    WriteResponse(*conn, frame.id, response);
    return;
  }

  if (draining_.load()) {
    ServiceResponse response;
    response.status = ResponseStatus::kShuttingDown;
    response.outcome = JobOutcome::kRejected;
    response.error = "server is draining; no new work accepted";
    response.trace_id = request.trace_id;
    CountOutcome(JobOutcome::kRejected, nullptr);
    WriteResponse(*conn, frame.id, response);
    return;
  }

  if (request.kind == RequestKind::kSetCatalog) {
    // A catalog swap is control-plane work: handled inline (compiling a
    // view set is cheap next to one rewrite) and not counted as a job.
    HandleSetCatalog(conn, frame.id, request);
    return;
  }
  if (request.kind == RequestKind::kGetMetrics) {
    HandleGetMetrics(conn, frame.id, request);
    return;
  }
  if (request.kind == RequestKind::kDumpTelemetry) {
    HandleDumpTelemetry(conn, frame.id, request);
    return;
  }

  // Stamp every admitted rewrite with a trace id: clients that sent one
  // keep theirs (wire propagation); old clients get a server-generated
  // id so the flight recorder and slow log still attribute their work.
  // Control-plane requests are not stamped — dump_telemetry's trace_id
  // is its excerpt filter, where absent must keep meaning "everything".
  if (request.trace_id.IsZero()) request.trace_id = obs::GenerateTraceId();

  // Admission control: shed rather than queue once the live count of
  // admitted-but-unfinished jobs reaches the limit.  The pool's
  // max_queue_depth() watermark is monotonic and would latch rejection
  // forever; the live count recovers as jobs finish.
  const int64_t inflight =
      inflight_jobs_.fetch_add(1, std::memory_order_acq_rel);
  if (inflight >= options_.max_inflight) {
    inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    ServiceResponse response;
    response.status = ResponseStatus::kOverloaded;
    response.outcome = JobOutcome::kRejected;
    response.error = "server overloaded: " + std::to_string(inflight) +
                     " requests in flight (limit " +
                     std::to_string(options_.max_inflight) + "); retry later";
    response.trace_id = request.trace_id;
    CountOutcome(JobOutcome::kRejected, nullptr);
    WriteResponse(*conn, frame.id, response);
    if (obs::MetricsActive()) {
      obs::MetricsRegistry::Global().counter("server.requests_shed").Add(1);
    }
    return;
  }

  auto job_state = std::make_shared<JobState>();
  int64_t deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                                : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    ArmDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms),
                job_state);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->inflight;
  }
  if (obs::MetricsActive()) {
    obs::MetricsRegistry::Global().counter("server.requests_accepted").Add(1);
  }

  pool_->Submit([this, conn, id = frame.id, request = std::move(request),
                 job_state]() mutable {
    RunJob(conn, id, request, job_state);
  });
}

void Server::HandleSetCatalog(const std::shared_ptr<Connection>& conn,
                              uint64_t id, const ServiceRequest& request) {
  ServiceResponse response;
  ViewSet views;
  std::string error;
  if (!ParseViewsBlock(request.job_text, &views, &error)) {
    response.status = ResponseStatus::kBadRequest;
    response.outcome = JobOutcome::kError;
    response.error = error;
    WriteResponse(*conn, id, response);
    return;
  }
  const std::shared_ptr<ViewCatalog> catalog = registry_.GetOrBuild(views);
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    default_catalog_ = catalog;
  }
  const int view_count = static_cast<int>(views.views().size());
  response.status = ResponseStatus::kOk;
  response.outcome = JobOutcome::kNone;
  response.body = "catalog set: " + std::to_string(view_count) + " view" +
                  (view_count == 1 ? "" : "s") + ", epoch " +
                  std::to_string(catalog->epoch()) + "\n";
  response.catalog_epoch = catalog->epoch();
  response.catalog_views = view_count;
  WriteResponse(*conn, id, response);
  if (obs::MetricsActive()) {
    obs::MetricsRegistry::Global().counter("server.catalog_swaps").Add(1);
  }
}

void Server::HandleGetMetrics(const std::shared_ptr<Connection>& conn,
                              uint64_t id, const ServiceRequest& request) {
  // Control-plane: rendered inline so a scrape succeeds even when the
  // job pool is saturated.  cqacd enables the registry unconditionally,
  // so the body is never empty of the server series.
  ServiceResponse response;
  response.status = ResponseStatus::kOk;
  response.outcome = JobOutcome::kNone;
  response.trace_id = request.trace_id;
  response.body = obs::PrometheusText(obs::MetricsRegistry::Global());
  WriteResponse(*conn, id, response);
  if (obs::MetricsActive()) {
    obs::MetricsRegistry::Global().counter("server.metrics_scrapes").Add(1);
  }
}

void Server::HandleDumpTelemetry(const std::shared_ptr<Connection>& conn,
                                 uint64_t id, const ServiceRequest& request) {
  // The request's trace_id (when sent) filters the excerpt to one
  // request; without one the whole recorder window is returned.
  // HandleFrame deliberately does not stamp fresh ids on control-plane
  // requests, so "absent" still reaches here as zero.
  const obs::TraceId filter = request.trace_id;
  const obs::FlightExcerpt excerpt = obs::CollectFlightEvents(filter);
  std::string body;
  body += "{\"event\": \"telemetry\", \"tracing_compiled_in\": ";
  body += obs::TracingCompiledIn() ? "true" : "false";
  body += ", \"recorder_active\": ";
  body += obs::FlightRecorderActive() ? "true" : "false";
  body += ", \"filter\": \"" + obs::TraceIdHex(filter) + "\"";
  body += ", \"events\": " + std::to_string(excerpt.events.size());
  body += ", \"overwritten_events\": " + std::to_string(excerpt.overwritten);
  body += "}\n";
  for (const obs::FlightEvent& event : excerpt.events) {
    AppendSpanLine(&body, event);
  }
  ServiceResponse response;
  response.status = ResponseStatus::kOk;
  response.outcome = JobOutcome::kNone;
  response.trace_id = request.trace_id;
  response.body = std::move(body);
  WriteResponse(*conn, id, response);
}

void Server::RunJob(const std::shared_ptr<Connection>& conn, uint64_t id,
                    const ServiceRequest& request,
                    const std::shared_ptr<JobState>& job_state) {
  // Bind the request's trace id to this worker thread BEFORE opening the
  // job span, so `server.job` and every span under it lands in the
  // flight recorder attributed to this request.
  const obs::RequestScope trace_scope(request.trace_id);
  CQAC_TRACE_SPAN("server.job");
  const bool metrics = obs::MetricsActive();
  const int64_t start_ns = NowNs();

  ServiceResponse response;
  response.trace_id = request.trace_id;
  const RewriteStats* counted_stats = nullptr;
  RewriteStats run_stats;
  const BatchJob job = ParseJobBlock(request.job_text);
  if (!job.error.empty()) {
    response.status = ResponseStatus::kOk;
    response.outcome = JobOutcome::kError;
    response.body =
        RenderJobError(static_cast<size_t>(request.index), job.error);
  } else if (job_state->token.cancelled()) {
    // The deadline fired while the job sat in the pool queue.
    response.status = ResponseStatus::kDeadlineExceeded;
    response.outcome = JobOutcome::kDeadlineExceeded;
    response.error = "deadline exceeded before the job started";
  } else {
    RewriteOptions per_job = options_.rewrite;
    per_job.jobs = 1;
    per_job.cancel = &job_state->token;
    std::shared_ptr<ViewCatalog> catalog;
    if (job.views.views().empty()) {
      // Query-only request: served against the default catalog when one
      // is installed, else against the empty view set.
      std::lock_guard<std::mutex> lock(catalog_mu_);
      catalog = default_catalog_;
    }
    if (catalog == nullptr) catalog = registry_.GetOrBuild(job.views);
    const RewriteResult result = catalog->Rewrite(*job.query, per_job);
    response.catalog_epoch = result.catalog_epoch;
    response.from_semantic_cache = result.from_semantic_cache;
    run_stats = result.stats;
    counted_stats = &run_stats;
    const bool cancelled = result.outcome == RewriteOutcome::kAborted &&
                           job_state->token.cancelled();
    if (cancelled) {
      response.status = ResponseStatus::kDeadlineExceeded;
      response.outcome = JobOutcome::kDeadlineExceeded;
      response.error = "deadline exceeded after " +
                       std::to_string(request.deadline_ms > 0
                                          ? request.deadline_ms
                                          : options_.default_deadline_ms) +
                       " ms";
      const int64_t cancel_ns = job_state->cancel_ns.load();
      if (metrics && cancel_ns > 0) {
        obs::MetricsRegistry::Global()
            .histogram("server.cancel_drain_ns")
            .Observe(NowNs() - cancel_ns);
      }
    } else {
      response.status = ResponseStatus::kOk;
      switch (result.outcome) {
        case RewriteOutcome::kRewritingFound:
          response.outcome = JobOutcome::kFound;
          break;
        case RewriteOutcome::kNoRewriting:
          response.outcome = JobOutcome::kNone;
          break;
        case RewriteOutcome::kAborted:
          response.outcome = JobOutcome::kAborted;
          break;
      }
      response.body = RenderJobResult(
          static_cast<size_t>(request.index), job, result,
          request.has_echo ? request.echo : options_.echo);
      response.has_counters = true;
      response.stats = result.stats;
      response.disjuncts = static_cast<int64_t>(result.rewriting.size());
    }
  }
  CountOutcome(response.outcome, counted_stats);

  job_state->done.store(true);
  WriteResponse(*conn, id, response);
  const int64_t latency_ns = NowNs() - start_ns;
  // The SLO window is always on (get_metrics serves it even without
  // `cqacd --metrics`); the flat histogram keeps the old gate.
  slo_latency_->Observe(latency_ns);
  if (metrics) {
    obs::MetricsRegistry::Global()
        .histogram("server.request_latency_ns")
        .Observe(latency_ns);
  }
  if (response.outcome == JobOutcome::kDeadlineExceeded ||
      response.outcome == JobOutcome::kError) {
    EmitSlowRequest(response, latency_ns,
                    request.deadline_ms > 0 ? request.deadline_ms
                                            : options_.default_deadline_ms);
  }

  inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    --conn->inflight;
  }
  conn->cv.notify_all();
}

void Server::EmitSlowRequest(const ServiceResponse& response,
                             int64_t latency_ns, int64_t deadline_ms) {
  if (slow_log_ == nullptr) return;
  // One attribution header plus the request's flight-recorder excerpt,
  // all as self-contained JSON lines (schema in docs/OBSERVABILITY.md).
  // The excerpt is collected before taking slow_log_mu_ — collection
  // only reads the rings.
  const obs::FlightExcerpt excerpt = obs::CollectFlightEvents(
      response.trace_id);
  std::string out;
  out += "{\"event\": \"slow_request\", \"trace_id\": \"";
  out += obs::TraceIdHex(response.trace_id);
  out += "\", \"outcome\": ";
  AppendJsonString(&out, JobOutcomeName(response.outcome));
  out += ", \"latency_ns\": " + std::to_string(latency_ns);
  out += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  out += ", \"enumeration_ns\": " +
         std::to_string(response.stats.enumeration_ns);
  out += ", \"freeze_ns\": " + std::to_string(response.stats.freeze_ns);
  out += ", \"phase1_ns\": " + std::to_string(response.stats.phase1_ns);
  out += ", \"phase2_ns\": " + std::to_string(response.stats.phase2_ns);
  out += ", \"spans\": " + std::to_string(excerpt.events.size());
  out += ", \"overwritten_events\": " + std::to_string(excerpt.overwritten);
  out += "}\n";
  for (const obs::FlightEvent& event : excerpt.events) {
    AppendSpanLine(&out, event);
  }
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  *slow_log_ << out << std::flush;
}

void Server::WriteResponse(Connection& conn, uint64_t id,
                           const ServiceResponse& response) {
  Frame frame;
  frame.id = id;
  frame.body = EncodeServiceResponse(response);
  const std::string encoded = EncodeFrame(frame);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  SendAll(conn.fd, encoded);  // Failure = peer gone; nothing to salvage.
}

void Server::ArmDeadline(std::chrono::steady_clock::time_point deadline,
                         const std::shared_ptr<JobState>& job) {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  deadlines_.push(DeadlineEntry{deadline, job});
  watchdog_cv_.notify_one();
}

void Server::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (watchdog_stop_) return;
    if (deadlines_.empty()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    const DeadlineEntry next = deadlines_.top();
    if (std::chrono::steady_clock::now() >= next.deadline) {
      deadlines_.pop();
      if (!next.job->done.load()) {
        // Stamp the cancellation time before firing the token so the job
        // thread, which reads cancel_ns only after observing the token,
        // sees a meaningful value for the drain histogram.
        next.job->cancel_ns.store(NowNs());
        next.job->token.Cancel();
        if (obs::MetricsActive()) {
          obs::MetricsRegistry::Global()
              .counter("server.deadlines_fired")
              .Add(1);
        }
      }
      continue;
    }
    watchdog_cv_.wait_until(lock, next.deadline);
  }
}

void Server::BeginDrain() {
  if (!started_.load()) return;
  bool expected = false;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!draining_.compare_exchange_strong(expected, true)) return;
    // Under conns_mu_ so no connection can register between the flag and
    // the shutdown sweep below (AcceptLoop checks draining_ while
    // holding the same mutex).
    for (const std::shared_ptr<Connection>& conn : conns_) {
      // Readers wake with EOF; in-flight responses still go out over the
      // intact write side.
      ::shutdown(conn->fd, SHUT_RD);
    }
    // Wake the accept loop; a failed write means it is already gone.
    // Still under conns_mu_: Wait() takes the mutex after the accept loop
    // saw this byte and before it closes the pipe, so the write is
    // ordered before the close.
    const char byte = 1;
    while (::write(drain_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
    }
  }
}

void Server::Wait() {
  if (!started_.load() || joined_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    conns_cv_.wait(lock, [&] { return conns_.empty(); });
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  if (obs::MetricsActive() && pool_ != nullptr) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.gauge("threadpool.max_queue_depth").Max(pool_->max_queue_depth());
  }
  pool_.reset();  // Safe: every job already finished (conns_ drained).
  ::close(drain_pipe_[0]);
  ::close(drain_pipe_[1]);
  drain_pipe_[0] = drain_pipe_[1] = -1;
}

void Server::CountOutcome(JobOutcome outcome, const RewriteStats* stats) {
  std::lock_guard<std::mutex> lock(summary_mu_);
  ++summary_.jobs_total;
  switch (outcome) {
    case JobOutcome::kFound: ++summary_.found; break;
    case JobOutcome::kNone: ++summary_.none; break;
    case JobOutcome::kAborted: ++summary_.aborted; break;
    case JobOutcome::kError: ++summary_.errors; break;
    case JobOutcome::kDeadlineExceeded: ++summary_.deadline_exceeded; break;
    case JobOutcome::kRejected: ++summary_.rejected; break;
  }
  if (stats != nullptr) summary_.rewrite.Merge(*stats);
}

BatchSummary Server::summary() const {
  BatchSummary out;
  {
    std::lock_guard<std::mutex> lock(summary_mu_);
    out = summary_;
  }
  out.SetCatalogStats(registry_.Stats());
  return out;
}

}  // namespace server
}  // namespace cqac
