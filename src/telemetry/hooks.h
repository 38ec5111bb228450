// Hot-path instrumentation hooks: per-statement counter increments in
// dbc::Connection and minidb's executor, and lock-wait/parse/execute timing.
// Each hook is one null check on the Recorder*; the stopwatches that feed
// the timers read the clock whether or not a recorder is attached.
#pragma once

#include "telemetry/recorder.h"

/// Adds `delta` to counter `name` on `rec` (a Recorder*, may be null).
#define SQLOOP_COUNT(rec, name, delta)            \
  do {                                            \
    if ((rec) != nullptr) (rec)->Add((name), (delta)); \
  } while (0)

/// Adds `seconds` to timer `name` on `rec` (a Recorder*, may be null).
#define SQLOOP_TIME_SECONDS(rec, name, seconds)           \
  do {                                                    \
    if ((rec) != nullptr) (rec)->AddSeconds((name), (seconds)); \
  } while (0)
