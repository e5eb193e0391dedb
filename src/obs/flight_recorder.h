#ifndef CQAC_OBS_FLIGHT_RECORDER_H_
#define CQAC_OBS_FLIGHT_RECORDER_H_

// Always-on flight recorder: a bounded per-thread ring of the most recent
// request-scoped span events, recording continuously with no session to
// arm.  When a request dies — deadline-fired cancellation, an error, or an
// explicit dump_telemetry wire request — the excerpt for its trace id can
// be collected after the fact, which is what makes deadline kills
// diagnosable with session tracing (`--trace`) disabled.
//
// Relationship to span tracing (obs/trace.h): both are fed by the same
// CQAC_TRACE_SPAN sites, so `-DCQAC_TRACING=OFF` compiles the recorder's
// inputs out too.  Where a tracing session drops the *newest* spans when a
// buffer fills (a session wants a faithful prefix), the flight ring
// overwrites the *oldest* (a black box wants the most recent history);
// overwrites are counted, never silent.
//
// Retention is head+tail: the first kFlightHeadPerTrace spans of each
// request land in a small dedicated head region (rotating over the heads
// of the last few requests), everything after in the main ring.  A hot
// Phase-1 loop can push tens of thousands of leaf spans through the ring
// in milliseconds; without the head region it would flush the request's
// attribution spans (prepare.*) long before a deadline fires, leaving the
// excerpt all tail and no cause.
//
// Recording path: one TLS load + branch when the thread has no bound
// trace id (obs/request_context.h); with one bound, a seqlock-protected
// store of six words into the thread's private ring.  Every slot field is
// a relaxed atomic and each write is bracketed by an odd/even version, so
// a concurrent collector detects and skips torn slots without locks and
// without data races (the collector never blocks a recording thread).

#include <cstdint>
#include <atomic>
#include <vector>

#include "obs/request_context.h"

namespace cqac {
namespace obs {

/// Span events one thread's ring retains; older events are overwritten.
inline constexpr int64_t kFlightRingCapacity = 4096;

/// Leading spans of each request routed to the thread's head region
/// instead of the main ring, and the region's total size (the heads of
/// the last kFlightHeadCapacity / kFlightHeadPerTrace requests survive).
inline constexpr int64_t kFlightHeadPerTrace = 16;
inline constexpr int64_t kFlightHeadCapacity = 64;

/// One recorded span event.  `name` is the instrumentation site's string
/// literal; timestamps are absolute steady-clock nanoseconds (unlike
/// session spans there is no session base to be relative to).
struct FlightEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  TraceId trace;
  uint32_t tid = 0;  // registration order of the recording thread's ring
};

/// What CollectFlightEvents returns.
struct FlightExcerpt {
  /// Sorted by (start_ns, dur_ns, tid, name).
  std::vector<FlightEvent> events;
  /// Ring slots overwritten since process start, summed over all threads —
  /// the excerpt's "how much history was lost" indicator.
  int64_t overwritten = 0;
};

/// Runtime switch, on by default ("always-on"); EnableFlightRecorder(false)
/// exists for A/B overhead measurement and tests, not production.
void EnableFlightRecorder(bool enabled);
bool FlightRecorderActive();

/// Snapshot of the retained events whose trace id equals `filter`, or of
/// all retained events when `filter` is zero.  Also refreshes the
/// `flight.overwritten_events` registry gauge.  Safe to call concurrently
/// with recording threads; events being overwritten mid-copy are skipped.
FlightExcerpt CollectFlightEvents(const TraceId& filter);

/// Resets every ring and the overwrite counts (tests only; concurrent
/// recorders may interleave, as with any collection).
void ResetFlightRecorderForTest();

namespace internal {

inline std::atomic<bool> g_flight_active{true};

/// True when a span ending now should be recorded: recorder enabled and
/// the calling thread is executing inside a request scope.
inline bool FlightWanted() {
  return g_flight_active.load(std::memory_order_relaxed) &&
         !CurrentTraceId().IsZero();
}

/// Appends one event (stamped with the thread's bound trace id) to the
/// calling thread's ring.
void RecordFlightEvent(const char* name, int64_t start_ns, int64_t dur_ns);

}  // namespace internal
}  // namespace obs
}  // namespace cqac

#endif  // CQAC_OBS_FLIGHT_RECORDER_H_
