// cqacc: client and load generator for cqacd (docs/SERVICE.md).
//
// Job mode (default) reads the `--serve-batch` job-stream format from
// stdin, submits one request per block, and prints the response bodies in
// input order — byte-identical to `cqacsh --serve-batch` output for the
// same stream, minus the batch footer:
//
//   $ ./build/tools/cqacc --unix /tmp/cqac.sock < jobs.txt
//
// Load mode (`--load N`) submits N copies of a fixed job over
// `--concurrency C` connections (each connection runs its requests
// synchronously; concurrency comes from the connections) and prints a
// one-line JSON throughput record:
//
//   $ ./build/tools/cqacc --port 38651 --load 1000 --concurrency 8

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/request_context.h"
#include "server/json.h"
#include "server/protocol.h"

namespace {

using cqac::server::AppendJsonString;
using cqac::server::EncodeFrame;
using cqac::server::Frame;
using cqac::server::FrameDecoder;
using cqac::server::JobOutcome;
using cqac::server::ParseServiceResponse;
using cqac::server::ResponseStatus;
using cqac::server::ResponseStatusName;
using cqac::server::ServiceResponse;

constexpr char kDefaultLoadJob[] =
    "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
    "query q(A) :- r(A), s(A,A), A <= 8.\n";

void PrintUsage(std::ostream& out) {
  out << "usage: cqacc [--unix PATH | --port N [--host H]]\n"
         "             [--deadline-ms N] [--echo] [--set-catalog FILE]\n"
         "             [--load N [--concurrency C] [--job-file FILE]]\n"
         "             [--get-metrics] [--dump-telemetry [TRACE_ID]]\n"
         "             [--help]\n"
         "  --unix PATH      connect to a Unix-domain socket\n"
         "  --port N         connect to TCP port N (default host 127.0.0.1)\n"
         "  --host H         TCP host for --port\n"
         "  --deadline-ms N  attach this deadline to every request\n"
         "  --echo           ask the server to echo job definitions\n"
         "  --set-catalog FILE\n"
         "                   first send a set_catalog request installing\n"
         "                   FILE (a block of `view` directives) as the\n"
         "                   server's default catalog\n"
         "  --load N         load mode: submit N copies of a fixed job and\n"
         "                   print a one-line JSON record with throughput\n"
         "                   and p50/p95/p99 request latency\n"
         "  --concurrency C  connections used in load mode (default 1)\n"
         "  --job-file FILE  job block submitted in load mode (default: a\n"
         "                   built-in two-view job)\n"
         "  --get-metrics    fetch the server's metrics registry in\n"
         "                   Prometheus text format and print it\n"
         "  --dump-telemetry [TRACE_ID]\n"
         "                   fetch the server's flight-recorder excerpt as\n"
         "                   JSON lines, optionally filtered to one\n"
         "                   32-hex-character trace id\n"
         "  --help           this message\n"
         "\n"
         "Without --load, cqacc reads the cqacsh --serve-batch job-stream\n"
         "format from stdin and prints one result block per job, in input\n"
         "order, byte-identical to the batch driver's blocks.  Every\n"
         "request is stamped with a fresh 128-bit trace id that the server\n"
         "binds to its spans and echoes in the response.\n";
}

bool ParseNonNegative(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  int64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (parsed > (INT64_MAX - (c - '0')) / 10) return false;
    parsed = parsed * 10 + (c - '0');
  }
  *value = parsed;
  return true;
}

struct Endpoint {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;
};

/// Opens a connection to the server; -1 + `error` on failure.
int Connect(const Endpoint& endpoint, std::string* error) {
  if (!endpoint.unix_path.empty()) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path)) {
      *error = "Unix socket path too long: " + endpoint.unix_path;
      return -1;
    }
    memcpy(addr.sun_path, endpoint.unix_path.c_str(),
           endpoint.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) < 0) {
      *error = "cannot connect to unix:" + endpoint.unix_path + ": " +
               strerror(errno);
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(endpoint.port));
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host '" + endpoint.host + "' (numeric IPv4 only)";
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) < 0) {
    *error = "cannot connect to tcp:" + endpoint.host + ":" +
             std::to_string(endpoint.port) + ": " + strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

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

std::string BuildRequestBody(const std::string& job_text, int64_t index,
                             int64_t deadline_ms, bool echo,
                             const cqac::obs::TraceId& trace_id) {
  std::string body = "{\"job\": ";
  AppendJsonString(&body, job_text);
  body += ", \"index\": " + std::to_string(index);
  if (deadline_ms > 0) {
    body += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  if (echo) body += ", \"echo\": true";
  if (!trace_id.IsZero()) {
    body += ", \"trace_id\": \"" + cqac::obs::TraceIdHex(trace_id) + "\"";
  }
  body += "}";
  return body;
}

/// Sends one request and blocks for its response (requests on a cqacc
/// connection are synchronous, so the next frame is the answer).  False +
/// `error` on transport or protocol failure.
bool RoundTrip(int fd, FrameDecoder* decoder, uint64_t id,
               const std::string& body, ServiceResponse* response,
               std::string* error) {
  Frame request;
  request.id = id;
  request.body = body;
  if (!SendAll(fd, EncodeFrame(request))) {
    *error = "send failed: " + std::string(strerror(errno));
    return false;
  }
  char buf[16384];
  for (;;) {
    Frame reply;
    const FrameDecoder::Status status = decoder->Next(&reply, error);
    if (status == FrameDecoder::Status::kError) return false;
    if (status == FrameDecoder::Status::kFrame) {
      if (reply.id != id) {
        *error = "response id " + std::to_string(reply.id) +
                 " does not match request id " + std::to_string(id);
        return false;
      }
      return ParseServiceResponse(reply.body, response, error);
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = "read failed: " + std::string(strerror(errno));
      return false;
    }
    if (n == 0) {
      *error = "server closed the connection mid-request";
      return false;
    }
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

/// Splits stdin's job-stream format into blocks, preserving each block's
/// text verbatim.  Separator handling mirrors ParseJobStream: blank
/// lines, `run`, and `---` end a block; comments and directives are the
/// block's content (the server parses them — cqacc does not).
std::vector<std::string> SplitJobBlocks(std::istream& in) {
  std::vector<std::string> blocks;
  std::string current;
  bool current_nonempty = false;
  auto flush = [&] {
    if (current_nonempty) blocks.push_back(current);
    current.clear();
    current_nonempty = false;
  };
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t");
    const std::string word =
        start == std::string::npos
            ? ""
            : line.substr(start, line.find_first_of(" \t", start) - start);
    if (word.empty() || word == "run" || word == "---") {
      flush();
      continue;
    }
    if (word[0] == '%' || word[0] == '#') continue;
    current += line;
    current += '\n';
    current_nonempty = true;
  }
  flush();
  return blocks;
}

struct LoadTally {
  int64_t ok = 0;
  int64_t deadline_exceeded = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t semantic_cache_hits = 0;
  std::vector<int64_t> latencies_ns;  // one entry per completed request
};

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil((p / 100.0) * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

std::string BuildSetCatalogBody(const std::string& views_text) {
  std::string body = "{\"type\": \"set_catalog\", \"job\": ";
  AppendJsonString(&body, views_text);
  body += "}";
  return body;
}

/// Sends one control-plane request (`get_metrics` or `dump_telemetry`)
/// and prints the response body to stdout.  False on any failure.
bool ControlRequest(const Endpoint& endpoint, const std::string& body) {
  std::string error;
  const int fd = Connect(endpoint, &error);
  if (fd < 0) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  FrameDecoder decoder;
  ServiceResponse response;
  const bool ok = RoundTrip(fd, &decoder, 1, body, &response, &error);
  ::close(fd);
  if (!ok) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  if (response.status != ResponseStatus::kOk) {
    std::cerr << "error: " << ResponseStatusName(response.status) << ": "
              << response.error << "\n";
    return false;
  }
  std::cout << response.body;
  return true;
}

/// Sends one set_catalog request over its own connection and prints the
/// ack to stderr.  False on any failure.
bool SetCatalog(const Endpoint& endpoint, const std::string& views_text) {
  std::string error;
  const int fd = Connect(endpoint, &error);
  if (fd < 0) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  FrameDecoder decoder;
  ServiceResponse response;
  const bool ok = RoundTrip(fd, &decoder, 1, BuildSetCatalogBody(views_text),
                            &response, &error);
  ::close(fd);
  if (!ok) {
    std::cerr << "error: set_catalog: " << error << "\n";
    return false;
  }
  if (response.status != ResponseStatus::kOk) {
    std::cerr << "error: set_catalog: "
              << ResponseStatusName(response.status) << ": "
              << response.error << "\n";
    return false;
  }
  std::cerr << "cqacc: " << response.body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  int64_t deadline_ms = 0;
  bool echo = false;
  int64_t load = -1;
  int64_t concurrency = 1;
  std::string job_file;
  std::string set_catalog_file;
  bool get_metrics = false;
  bool dump_telemetry = false;
  std::string telemetry_filter;

  auto next_value = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t value = 0;
    if (arg == "--unix") {
      const char* v = next_value(&i, "--unix");
      if (v == nullptr) return 1;
      endpoint.unix_path = v;
    } else if (arg == "--port") {
      const char* v = next_value(&i, "--port");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &value) || value < 1 || value > 65535) {
        std::cerr << "error: --port needs a port number (1-65535), got '"
                  << v << "'\n";
        return 1;
      }
      endpoint.port = static_cast<int>(value);
    } else if (arg == "--host") {
      const char* v = next_value(&i, "--host");
      if (v == nullptr) return 1;
      endpoint.host = v;
    } else if (arg == "--deadline-ms") {
      const char* v = next_value(&i, "--deadline-ms");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &deadline_ms)) {
        std::cerr << "error: --deadline-ms needs a non-negative integer, "
                     "got '"
                  << v << "'\n";
        return 1;
      }
    } else if (arg == "--echo") {
      echo = true;
    } else if (arg == "--load") {
      const char* v = next_value(&i, "--load");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &load) || load < 1) {
        std::cerr << "error: --load needs a positive integer, got '" << v
                  << "'\n";
        return 1;
      }
    } else if (arg == "--concurrency") {
      const char* v = next_value(&i, "--concurrency");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &concurrency) || concurrency < 1 ||
          concurrency > 1024) {
        std::cerr << "error: --concurrency needs an integer in 1-1024, "
                     "got '"
                  << v << "'\n";
        return 1;
      }
    } else if (arg == "--job-file") {
      const char* v = next_value(&i, "--job-file");
      if (v == nullptr) return 1;
      job_file = v;
    } else if (arg == "--set-catalog") {
      const char* v = next_value(&i, "--set-catalog");
      if (v == nullptr) return 1;
      set_catalog_file = v;
    } else if (arg == "--get-metrics") {
      get_metrics = true;
    } else if (arg == "--dump-telemetry") {
      dump_telemetry = true;
      // The trace-id filter is optional: consume the next argument only
      // when it does not look like another flag.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        telemetry_filter = argv[++i];
        cqac::obs::TraceId parsed;
        if (!cqac::obs::ParseTraceIdHex(telemetry_filter, &parsed)) {
          std::cerr << "error: --dump-telemetry filter must be 32 hex "
                       "characters, got '"
                    << telemetry_filter << "'\n";
          return 1;
        }
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }

  if (endpoint.unix_path.empty() && endpoint.port < 0) {
    std::cerr << "error: no server: pass --unix PATH or --port N\n";
    return 1;
  }

  if (!set_catalog_file.empty()) {
    std::ifstream in(set_catalog_file);
    if (!in) {
      std::cerr << "error: cannot read catalog views file '"
                << set_catalog_file << "'\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!SetCatalog(endpoint, buffer.str())) return 1;
  }

  if (get_metrics) {
    return ControlRequest(endpoint, "{\"type\": \"get_metrics\"}") ? 0 : 1;
  }
  if (dump_telemetry) {
    std::string body = "{\"type\": \"dump_telemetry\"";
    if (!telemetry_filter.empty()) {
      body += ", \"trace_id\": \"" + telemetry_filter + "\"";
    }
    body += "}";
    return ControlRequest(endpoint, body) ? 0 : 1;
  }

  if (load < 0) {
    // Job mode: stdin blocks in, result blocks out, input order.
    const std::vector<std::string> blocks = SplitJobBlocks(std::cin);
    std::string error;
    const int fd = Connect(endpoint, &error);
    if (fd < 0) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    FrameDecoder decoder;
    int status = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      ServiceResponse response;
      if (!RoundTrip(fd, &decoder, i + 1,
                     BuildRequestBody(blocks[i], i, deadline_ms, echo,
                                      cqac::obs::GenerateTraceId()),
                     &response, &error)) {
        std::cerr << "error: job " << i << ": " << error << "\n";
        status = 1;
        break;
      }
      if (response.status == ResponseStatus::kOk) {
        std::cout << response.body;
        // Exit-code parity with `cqacsh --serve-batch`: job-level parse
        // errors fail the run even though their blocks printed normally.
        if (response.outcome == JobOutcome::kError) status = 1;
      } else {
        std::cerr << "job " << i << ": "
                  << ResponseStatusName(response.status) << ": "
                  << response.error << "\n";
        status = 1;
      }
    }
    ::close(fd);
    return status;
  }

  // Load mode.
  std::string job_text = kDefaultLoadJob;
  if (!job_file.empty()) {
    std::ifstream in(job_file);
    if (!in) {
      std::cerr << "error: cannot read job file '" << job_file << "'\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    job_text = buffer.str();
  }

  std::atomic<int64_t> next_request{0};
  std::vector<LoadTally> tallies(static_cast<size_t>(concurrency));
  std::vector<std::string> failures(static_cast<size_t>(concurrency));
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      std::string error;
      const int fd = Connect(endpoint, &error);
      if (fd < 0) {
        failures[w] = error;
        return;
      }
      FrameDecoder decoder;
      for (;;) {
        const int64_t index = next_request.fetch_add(1);
        if (index >= load) break;
        ServiceResponse response;
        const cqac::obs::TraceId trace_id = cqac::obs::GenerateTraceId();
        const auto request_start = std::chrono::steady_clock::now();
        if (!RoundTrip(fd, &decoder, index + 1,
                       BuildRequestBody(job_text, index, deadline_ms, echo,
                                        trace_id),
                       &response, &error)) {
          failures[w] = error;
          break;
        }
        LoadTally& tally = tallies[w];
        tally.latencies_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - request_start)
                .count());
        if (response.from_semantic_cache) ++tally.semantic_cache_hits;
        switch (response.status) {
          case ResponseStatus::kOk:
            if (response.outcome == JobOutcome::kError) {
              ++tally.errors;
            } else {
              ++tally.ok;
            }
            break;
          case ResponseStatus::kDeadlineExceeded:
            ++tally.deadline_exceeded;
            break;
          case ResponseStatus::kOverloaded:
          case ResponseStatus::kShuttingDown:
            ++tally.rejected;
            break;
          case ResponseStatus::kBadRequest:
            ++tally.errors;
            break;
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : workers) t.join();
  const auto wall = std::chrono::steady_clock::now() - start;
  const int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count();

  LoadTally total;
  std::vector<int64_t> latencies;
  for (const LoadTally& t : tallies) {
    total.ok += t.ok;
    total.deadline_exceeded += t.deadline_exceeded;
    total.rejected += t.rejected;
    total.errors += t.errors;
    total.semantic_cache_hits += t.semantic_cache_hits;
    latencies.insert(latencies.end(), t.latencies_ns.begin(),
                     t.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  int64_t latency_sum = 0;
  for (const int64_t ns : latencies) latency_sum += ns;
  const int64_t latency_mean =
      latencies.empty()
          ? 0
          : latency_sum / static_cast<int64_t>(latencies.size());
  const int64_t completed =
      total.ok + total.deadline_exceeded + total.rejected + total.errors;
  const double seconds = static_cast<double>(wall_ns) / 1e9;
  const double rps = seconds > 0 ? static_cast<double>(completed) / seconds
                                 : 0.0;
  std::cout << "{\"requests\": " << load << ", \"completed\": " << completed
            << ", \"concurrency\": " << concurrency << ", \"ok\": "
            << total.ok << ", \"deadline_exceeded\": "
            << total.deadline_exceeded << ", \"rejected\": " << total.rejected
            << ", \"errors\": " << total.errors
            << ", \"semantic_cache_hits\": " << total.semantic_cache_hits
            << ", \"wall_ns\": " << wall_ns
            << ", \"requests_per_sec\": " << rps
            << ", \"latency_ns_mean\": " << latency_mean
            << ", \"latency_ns_p50\": " << Percentile(latencies, 50)
            << ", \"latency_ns_p95\": " << Percentile(latencies, 95)
            << ", \"latency_ns_p99\": " << Percentile(latencies, 99)
            << "}\n";

  for (int64_t w = 0; w < concurrency; ++w) {
    if (!failures[w].empty()) {
      std::cerr << "error: worker " << w << ": " << failures[w] << "\n";
      return 1;
    }
  }
  return completed == load ? 0 : 1;
}
