#ifndef CQAC_PERFBENCH_SERVED_H_
#define CQAC_PERFBENCH_SERVED_H_

// The service side of the benchmark: a cqacd process on a Unix socket, a
// closed-loop client over two connections, and the in-process replay of
// the same request stream through ViewCatalog::Rewrite and the protocol
// functions, which splits a round trip into its layers.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// A cqacd child process serving `--catalog` on a Unix socket.  The
/// destructor stops it (SIGTERM, then SIGKILL after 10 s) and waits.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary` and waits until the socket accepts connections.
  bool Start(const std::string& binary, const std::string& socket_path,
             int jobs, std::string* error);

  /// Drains the server and reaps it; returns its user+sys CPU seconds
  /// and stores its peak resident set in `peak_rss_kb`.
  double Stop(int64_t* peak_rss_kb = nullptr);

  const std::string& socket_path() const { return socket_path_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

/// One client pass over a workload's request stream.
struct SocketPass {
  double wall_s = 0;
  std::vector<int64_t> latency_ns;  // per rewrite request, stream order
  std::vector<std::string> bodies;  // per rewrite request, "" if not ok
  int64_t attempted = 0;
  int64_t failed = 0;  // non-ok status, or an aborted/error outcome
  std::string error;   // transport failure; the pass is void
};

/// Sends the stream over `connections` connections in a closed loop:
/// each connection sends its next request when the previous answer is
/// in.  Catalog swaps are barriers: every earlier request has been
/// answered before the swap is sent, and it is acknowledged before any
/// later request goes out.
SocketPass RunSocketPass(const Workload& workload,
                         const std::string& socket_path, int connections);

/// One warm-up round trip (a get_metrics request) on a fresh connection.
bool WarmUp(const std::string& socket_path, std::string* error);

/// The in-process replay of the stream: what the server does for each
/// request, timed per layer, with catalogs built the way the server's
/// registry builds them.
struct CatalogReplay {
  int64_t parse_ns = 0;    // ParseServiceRequest, ParseJobBlock, ParseServiceResponse
  int64_t render_ns = 0;   // RenderJobResult, EncodeServiceResponse
  int64_t frame_ns = 0;    // EncodeFrame, FrameDecoder, both directions
  int64_t rewrite_ns = 0;  // ViewCatalog::Rewrite
  int64_t build_ns = 0;    // ViewCatalog construction
  int64_t request_ns = 0;  // all of the above for rewrite requests
  int64_t semantic_hits = 0, semantic_misses = 0;
  int64_t plan_hits = 0, plans_built = 0;
  int64_t memo_hits = 0, memo_misses = 0;
  std::vector<std::string> bodies;  // per rewrite request
};

CatalogReplay ReplayThroughCatalog(const Workload& workload);

}  // namespace perfbench

#endif  // CQAC_PERFBENCH_SERVED_H_
