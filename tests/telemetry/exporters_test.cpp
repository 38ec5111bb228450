#include "telemetry/exporters.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "telemetry/recorder.h"

namespace sqloop::telemetry {
namespace {

/// A recorder exercising every exported shape: counters, timers, two
/// rounds, and spans of several kinds.
void FillSample(Recorder& rec) {
  rec.Add("dbc.round_trips", 42);
  rec.Add("minidb.rows_examined", 12345);
  rec.AddSeconds("minidb.lock_wait_seconds", 0.125);

  IterationStats r1;
  r1.round = 1;
  r1.updates = 100;
  r1.compute_tasks = 8;
  r1.gather_tasks = 8;
  r1.compute_seconds = 0.5;
  r1.gather_seconds = 0.25;
  r1.barrier_wait_seconds = 0.0625;
  r1.messages_produced = 6;
  r1.messages_consumed = 6;
  r1.seconds = 0.875;
  rec.RecordIteration(r1);

  IterationStats r2;
  r2.round = 2;
  r2.updates = 10;
  r2.compute_tasks = 8;
  r2.gather_tasks = 8;
  r2.skipped_tasks = 3;
  r2.seconds = 0.5;
  rec.RecordIteration(r2);

  TaskSpan compute;
  compute.kind = SpanKind::kCompute;
  compute.round = 1;
  compute.partition = 3;
  compute.thread_id = 7;
  compute.start_seconds = 0.125;
  compute.duration_seconds = 0.0078125;
  compute.updates = 100;
  rec.RecordSpan(compute);

  TaskSpan setup;
  setup.kind = SpanKind::kSetup;
  setup.partition = -1;
  setup.duration_seconds = 0.25;
  rec.RecordSpan(setup);
}

TEST(ExportersTest, JsonLinesRoundTripsThroughReader) {
  Recorder rec;
  FillSample(rec);

  const std::string text = JsonLines(rec);
  std::istringstream in(text);
  Recorder parsed;
  const size_t consumed = ReadJsonLines(in, parsed);
  // counters (2) + timer (1) + iterations (2) + spans (2).
  EXPECT_EQ(consumed, 7u);

  EXPECT_EQ(parsed.counter("dbc.round_trips"), 42u);
  EXPECT_EQ(parsed.counter("minidb.rows_examined"), 12345u);
  EXPECT_DOUBLE_EQ(parsed.timer_seconds("minidb.lock_wait_seconds"), 0.125);

  const auto rounds = parsed.IterationsSnapshot();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].round, 1);
  EXPECT_EQ(rounds[0].updates, 100u);
  EXPECT_EQ(rounds[0].compute_tasks, 8u);
  EXPECT_DOUBLE_EQ(rounds[0].compute_seconds, 0.5);
  EXPECT_DOUBLE_EQ(rounds[0].barrier_wait_seconds, 0.0625);
  EXPECT_EQ(rounds[0].messages_produced, 6u);
  EXPECT_EQ(rounds[1].skipped_tasks, 3u);
  EXPECT_DOUBLE_EQ(rounds[1].seconds, 0.5);

  const auto spans = parsed.SpansSnapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kCompute);
  EXPECT_EQ(spans[0].partition, 3);
  EXPECT_EQ(spans[0].thread_id, 7u);
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds, 0.0078125);
  EXPECT_EQ(spans[0].updates, 100u);
  EXPECT_EQ(spans[1].kind, SpanKind::kSetup);
  EXPECT_EQ(spans[1].partition, -1);

  // A second encode of the parsed recorder reproduces the original text:
  // the format is canonical, so round-tripping is loss-free.
  EXPECT_EQ(JsonLines(parsed), text);
}

TEST(ExportersTest, ReadJsonLinesRejectsMalformedAndSkipsUnknown) {
  Recorder rec;
  {
    std::istringstream in(R"({"type":"wholly_unknown","x":1})"
                          "\n"
                          R"({"type":"counter","name":"a","value":3})"
                          "\n");
    EXPECT_EQ(ReadJsonLines(in, rec), 2u);
    EXPECT_EQ(rec.counter("a"), 3u);
  }
  {
    std::istringstream in("this is not json\n");
    EXPECT_THROW(ReadJsonLines(in, rec), UsageError);
  }
  {
    std::istringstream in(R"({"type":"counter","value":3})"
                          "\n");  // missing name
    EXPECT_THROW(ReadJsonLines(in, rec), UsageError);
  }
}

TEST(ExportersTest, PrometheusSnapshotExposesTotals) {
  Recorder rec;
  FillSample(rec);
  const std::string text = PrometheusSnapshot(rec);

  EXPECT_NE(text.find("sqloop_iterations_total 2"), std::string::npos);
  EXPECT_NE(text.find("sqloop_updates_total 110"), std::string::npos);
  EXPECT_NE(text.find("sqloop_task_spans_total 2"), std::string::npos);
  EXPECT_NE(text.find("sqloop_compute_seconds_total 0.5"), std::string::npos);
  // Counter / timer names sanitized to [a-z0-9_].
  EXPECT_NE(text.find("sqloop_dbc_round_trips_total 42"), std::string::npos);
  EXPECT_NE(text.find("sqloop_minidb_lock_wait_seconds_seconds_total 0.125"),
            std::string::npos);
  EXPECT_EQ(text.find("dbc.round_trips"), std::string::npos)
      << "metric names must be sanitized to [a-z0-9_]:\n"
      << text;
  // Every sample is preceded by a TYPE declaration.
  EXPECT_NE(text.find("# TYPE sqloop_iterations_total counter"),
            std::string::npos);
}

TEST(ExportersTest, SummaryRendersRoundsAndCounters) {
  Recorder rec;
  FillSample(rec);
  const std::string text = Summary(rec);
  // One line per round with its round number, plus the attributed counters.
  EXPECT_NE(text.find("round"), std::string::npos);
  EXPECT_NE(text.find("dbc.round_trips"), std::string::npos);
  EXPECT_NE(text.find("minidb.lock_wait_seconds"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(ExportersTest, EmptyRecorderExportsAreWellFormed) {
  Recorder rec;
  EXPECT_EQ(JsonLines(rec), "");
  const std::string prom = PrometheusSnapshot(rec);
  EXPECT_NE(prom.find("sqloop_iterations_total 0"), std::string::npos);
  EXPECT_FALSE(Summary(rec).empty());
}

}  // namespace
}  // namespace sqloop::telemetry
