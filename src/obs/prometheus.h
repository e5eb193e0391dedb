#ifndef CQAC_OBS_PROMETHEUS_H_
#define CQAC_OBS_PROMETHEUS_H_

// Prometheus text exposition (v0.0.4) rendering of the metrics registry,
// served by `cqacd` via the get_metrics wire request and dumped
// periodically by `cqacd --metrics-dump FILE --metrics-interval N`.
//
// Mapping from registry names (docs/OBSERVABILITY.md):
//   - every metric is prefixed `cqac_`; '.' and any other character
//     outside [a-zA-Z0-9_] becomes '_' (`server.requests_accepted` ->
//     `cqac_server_requests_accepted_total`).
//   - Counter  -> counter, with the conventional `_total` suffix.
//   - Gauge    -> gauge.
//   - Histogram-> histogram: cumulative `_bucket{le="..."}` series over
//     the power-of-two bucket upper bounds (0, 1, 3, 7, ...), up to the
//     bucket holding the observed max, closed by `le="+Inf"`, plus
//     `_sum` and `_count`.
//   - WindowedHistogram -> summary with quantile="0.5"/"0.95"/"0.99"
//     series estimated over the sliding window, plus `_sum`/`_count`
//     (also windowed).
//
// A registry name may carry a label block, e.g. `rpc_ns{method="get"}`:
// the block is parsed, keys are sanitized, values are escaped per the
// exposition format, and all series of one base name share a single
// # HELP / # TYPE header.

#include <iosfwd>
#include <string>

namespace cqac {
namespace obs {

class MetricsRegistry;

/// Renders `registry` in Prometheus text format.
void WritePrometheusText(std::ostream& out, const MetricsRegistry& registry);

/// Convenience: WritePrometheusText into a string.
std::string PrometheusText(const MetricsRegistry& registry);

}  // namespace obs
}  // namespace cqac

#endif  // CQAC_OBS_PROMETHEUS_H_
