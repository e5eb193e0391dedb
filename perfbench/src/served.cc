#include "served.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "catalog/view_catalog.h"
#include "server/json.h"
#include "server/protocol.h"
#include "spans.h"

namespace perfbench {

namespace {

using cqac::server::EncodeFrame;
using cqac::server::Frame;
using cqac::server::FrameDecoder;
using cqac::server::ServiceResponse;

constexpr int64_t kDeadlineMs = 10000;

int ConnectUnix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// A client connection with blocking request/response round trips.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(ConnectUnix(path)) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `body` as frame `id` and blocks for the matching answer.
  bool RoundTrip(uint64_t id, const std::string& body, Frame* reply,
                 std::string* error) {
    Frame request;
    request.id = id;
    request.body = body;
    if (!SendAll(fd_, EncodeFrame(request))) {
      *error = "send failed";
      return false;
    }
    char buf[16384];
    for (;;) {
      const FrameDecoder::Status status = decoder_.Next(reply, error);
      if (status == FrameDecoder::Status::kError) return false;
      if (status == FrameDecoder::Status::kFrame) {
        if (reply->id == id) return true;
        *error = "response id mismatch";
        return false;
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = "server closed the connection";
        return false;
      }
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  FrameDecoder decoder_;
};

bool IsFailure(const ServiceResponse& r) {
  using cqac::server::JobOutcome;
  return r.status != cqac::server::ResponseStatus::kOk ||
         (r.outcome != JobOutcome::kFound && r.outcome != JobOutcome::kNone);
}

/// The request body the client sends for stream entry `request`; a
/// rewrite's result block is numbered with its job index.
std::string RequestBody(const Workload& workload, const Request& request) {
  std::string body;
  if (request.set_catalog) {
    body = "{\"type\": \"set_catalog\", \"job\": ";
    cqac::server::AppendJsonString(
        &body, workload.view_sets[static_cast<size_t>(request.view_set)]);
    return body + "}";
  }
  body = "{\"job\": ";
  cqac::server::AppendJsonString(
      &body, WireJobText(workload,
                         workload.jobs_list[static_cast<size_t>(request.job)]));
  body += ", \"index\": " + std::to_string(request.job);
  body += ", \"deadline_ms\": " + std::to_string(kDeadlineMs) + "}";
  return body;
}

}  // namespace

bool ServerProcess::Start(const std::string& binary,
                          const std::string& socket_path, int jobs,
                          std::string* error) {
  socket_path_ = socket_path;
  ::unlink(socket_path.c_str());
  const std::string jobs_arg = std::to_string(jobs);
  std::vector<std::string> args = {binary,  "--unix", socket_path,
                                   "--catalog", "--jobs", jobs_arg};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    dup2(null_fd, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  if (pid < 0) {
    *error = "cannot start " + binary + ": " + std::strerror(errno);
    return false;
  }
  pid_ = pid;
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (NowNs() < deadline) {
    const int fd = ConnectUnix(socket_path);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "cqacd exited during startup";
      return false;
    }
    ::usleep(1000);
  }
  *error = "cqacd did not accept connections within 10 s";
  Stop();
  return false;
}

double ServerProcess::Stop(int64_t* peak_rss_kb) {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  rusage usage = {};
  int status = 0;
  const int64_t deadline = NowNs() + 10'000'000'000;
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         NowNs() < deadline) {
    ::usleep(1000);
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  if (peak_rss_kb != nullptr) *peak_rss_kb = usage.ru_maxrss;
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

bool WarmUp(const std::string& socket_path, std::string* error) {
  Connection conn(socket_path);
  if (!conn.ok()) {
    *error = "cannot connect to " + socket_path;
    return false;
  }
  Frame reply;
  return conn.RoundTrip(1, "{\"type\": \"get_metrics\"}", &reply, error);
}

SocketPass RunSocketPass(const Workload& workload,
                         const std::string& socket_path, int connections) {
  SocketPass pass;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < connections; ++i) {
    conns.push_back(std::make_unique<Connection>(socket_path));
    if (!conns.back()->ok()) {
      pass.error = "cannot connect to " + socket_path;
      return pass;
    }
  }
  // Rewrite requests in stream order, grouped into segments that end at
  // each catalog swap.
  std::vector<int> rewrite_pos;  // k-th rewrite -> stream position
  for (size_t i = 0; i < workload.stream.size(); ++i) {
    if (!workload.stream[i].set_catalog) rewrite_pos.push_back(static_cast<int>(i));
  }
  pass.latency_ns.assign(rewrite_pos.size(), 0);
  pass.bodies.assign(rewrite_pos.size(), "");
  std::vector<char> failed(rewrite_pos.size(), 0);
  std::atomic<bool> transport_ok{true};
  std::string transport_error;

  const int64_t start = NowNs();
  size_t k = 0;  // next rewrite to send
  size_t pos = 0;
  while (pos < workload.stream.size() && transport_ok) {
    const Request& head = workload.stream[pos];
    if (head.set_catalog) {
      Frame reply;
      ServiceResponse response;
      std::string error;
      if (!conns[0]->RoundTrip(pos + 1, RequestBody(workload, head), &reply,
                               &error) ||
          !cqac::server::ParseServiceResponse(reply.body, &response, &error) ||
          response.status != cqac::server::ResponseStatus::kOk) {
        pass.error = "set_catalog failed: " + error + response.error;
        return pass;
      }
      ++pos;
      continue;
    }
    size_t end_k = k;
    while (pos < workload.stream.size() && !workload.stream[pos].set_catalog) {
      ++pos;
      ++end_k;
    }
    std::atomic<size_t> next{k};
    auto client = [&](Connection* conn) {
      for (size_t r = next++; r < end_k && transport_ok; r = next++) {
        const size_t sp = static_cast<size_t>(rewrite_pos[r]);
        const Request& req = workload.stream[sp];
        const std::string body = RequestBody(workload, req);
        Frame reply;
        std::string error;
        const int64_t t0 = NowNs();
        const bool ok = conn->RoundTrip(sp + 1, body, &reply, &error);
        pass.latency_ns[r] = NowNs() - t0;
        ServiceResponse response;
        if (!ok || !cqac::server::ParseServiceResponse(reply.body, &response,
                                                       &error)) {
          if (transport_ok.exchange(false)) transport_error = error;
          return;
        }
        failed[r] = IsFailure(response) ? 1 : 0;
        if (response.status == cqac::server::ResponseStatus::kOk) {
          pass.bodies[r] = std::move(response.body);
        }
      }
    };
    std::vector<std::thread> threads;
    for (auto& conn : conns) threads.emplace_back(client, conn.get());
    for (std::thread& t : threads) t.join();
    k = end_k;
  }
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (!transport_ok) {
    pass.error = transport_error;
    return pass;
  }
  pass.attempted = static_cast<int64_t>(rewrite_pos.size());
  for (const char f : failed) pass.failed += f;
  return pass;
}

CatalogReplay ReplayThroughCatalog(const Workload& workload) {
  CatalogReplay out;
  std::map<int, std::shared_ptr<cqac::ViewCatalog>> catalogs;
  std::vector<std::shared_ptr<cqac::ViewCatalog>> built;
  std::shared_ptr<cqac::ViewCatalog> current;
  FrameDecoder server_side;
  FrameDecoder client_side;
  std::string error;

  // One framed hop: encode `body` as frame `id` and decode it again.
  auto hop = [&](FrameDecoder* decoder, uint64_t id, std::string body) {
    Frame frame;
    frame.id = id;
    frame.body = std::move(body);
    const std::string wire = EncodeFrame(frame);
    decoder->Feed(wire.data(), wire.size());
    decoder->Next(&frame, &error);
    return frame.body;
  };
  auto build = [&](const cqac::ViewSet& views) {
    const int64_t t0 = NowNs();
    auto catalog = std::make_shared<cqac::ViewCatalog>(views);
    out.build_ns += NowNs() - t0;
    built.push_back(catalog);
    return catalog;
  };

  for (size_t pos = 0; pos < workload.stream.size(); ++pos) {
    const Request& req = workload.stream[pos];
    const std::string client_body = RequestBody(workload, req);
    int64_t t0 = NowNs();
    const std::string server_body = hop(&server_side, pos + 1, client_body);
    int64_t t1 = NowNs();
    const int64_t frame_in = t1 - t0;
    cqac::server::ServiceRequest request;
    cqac::server::ParseServiceRequest(server_body, &request, &error);
    const cqac::BatchJob job = cqac::ParseJobBlock(request.job_text);
    int64_t t2 = NowNs();
    const int64_t parse_in = t2 - t1;
    ServiceResponse response;
    response.status = cqac::server::ResponseStatus::kOk;
    int64_t rewrite_ns = 0;
    const int64_t build_before = out.build_ns;
    if (req.set_catalog) {
      auto it = catalogs.find(req.view_set);
      if (it == catalogs.end()) {
        it = catalogs.emplace(req.view_set, build(job.views)).first;
      }
      current = it->second;
      response.outcome = cqac::server::JobOutcome::kNone;
      response.body = "catalog set\n";
      response.catalog_epoch = current->epoch();
      response.catalog_views = current->views().size();
    } else {
      std::shared_ptr<cqac::ViewCatalog> catalog =
          workload.served() ? current : build(job.views);
      cqac::RewriteOptions options;
      const int64_t r0 = NowNs();
      const cqac::RewriteResult result = catalog->Rewrite(*job.query, options);
      rewrite_ns = NowNs() - r0;
      response.outcome = result.outcome == cqac::RewriteOutcome::kRewritingFound
                             ? cqac::server::JobOutcome::kFound
                             : cqac::server::JobOutcome::kNone;
      response.body = cqac::RenderJobResult(static_cast<size_t>(request.index),
                                            job, result, false);
      response.has_counters = true;
      response.stats = result.stats;
      response.disjuncts = result.rewriting.size();
      response.tier = result.tier;
      response.tier_reason = result.tier_reason;
      response.catalog_epoch = result.catalog_epoch;
      response.from_semantic_cache = result.from_semantic_cache;
    }
    const int64_t build_ns = out.build_ns - build_before;
    t0 = NowNs();
    const std::string encoded = cqac::server::EncodeServiceResponse(response);
    t1 = NowNs();
    const std::string client_reply = hop(&client_side, pos + 1, encoded);
    t2 = NowNs();
    ServiceResponse parsed;
    cqac::server::ParseServiceResponse(client_reply, &parsed, &error);
    const int64_t t3 = NowNs();
    const int64_t render = t1 - t0;
    const int64_t frame = frame_in + (t2 - t1);
    const int64_t parse = parse_in + (t3 - t2);
    out.frame_ns += frame;
    out.parse_ns += parse;
    out.render_ns += render;
    out.rewrite_ns += rewrite_ns;
    if (!req.set_catalog) {
      out.request_ns += frame + parse + render + rewrite_ns + build_ns;
      out.bodies.push_back(parsed.body);
    }
  }
  for (const auto& catalog : built) {
    const cqac::CatalogStats stats = catalog->Stats();
    out.semantic_hits += stats.semantic_hits;
    out.semantic_misses += stats.semantic_misses;
    out.plan_hits += stats.plan_hits;
    out.plans_built += stats.plans_built;
    out.memo_hits += stats.containment.hits;
    out.memo_misses += stats.containment.misses;
  }
  return out;
}

}  // namespace perfbench
