// Exhaustive checks over the error taxonomy: every subclass keeps its
// message prefix, stays catchable as Error/std::exception, and classifies
// correctly as transient or fatal (the property the resilience layer's
// retry decisions hang on).
#include "common/error.h"

#include <gtest/gtest.h>

#include <string>

namespace sqloop {
namespace {

TEST(ErrorTaxonomy, EverySubclassCarriesItsPrefix) {
  EXPECT_STREQ(ParseError("x").what(), "parse error: x");
  EXPECT_STREQ(AnalysisError("x").what(), "analysis error: x");
  EXPECT_STREQ(ExecutionError("x").what(), "execution error: x");
  EXPECT_STREQ(ConnectionError("x").what(), "connection error: x");
  EXPECT_STREQ(UsageError("x").what(), "usage error: x");
  EXPECT_STREQ(TransientError("x").what(), "transient error: x");
  EXPECT_STREQ(TimeoutError("x").what(), "timeout: x");
  EXPECT_STREQ(ConnectionLostError("x").what(), "connection lost: x");
  EXPECT_STREQ(JobKilledError("x").what(), "job killed: x");
  EXPECT_STREQ(JobCancelledError("x").what(), "job cancelled: x");
  EXPECT_STREQ(QuotaExceededError("x").what(), "quota exceeded: x");
  EXPECT_STREQ(IntegrityError("x").what(), "integrity violation: x");
  EXPECT_STREQ(CrashPointError("x").what(), "crash point: x");
}

TEST(ErrorTaxonomy, SubclassPrefixesDoNotStack) {
  // TimeoutError and ConnectionLostError are TransientErrors but use the
  // raw-message constructor — "transient error: " must not prepend.
  const std::string timeout = TimeoutError("t").what();
  const std::string lost = ConnectionLostError("l").what();
  EXPECT_EQ(timeout.find("transient error"), std::string::npos);
  EXPECT_EQ(lost.find("transient error"), std::string::npos);
}

template <typename E>
void ExpectCatchableAsError(const E& error) {
  try {
    throw error;
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), error.what());
    return;
  }
  FAIL() << "not catchable as Error";
}

TEST(ErrorTaxonomy, EverySubclassIsCatchableAsError) {
  ExpectCatchableAsError(ParseError("x"));
  ExpectCatchableAsError(AnalysisError("x"));
  ExpectCatchableAsError(ExecutionError("x"));
  ExpectCatchableAsError(ConnectionError("x"));
  ExpectCatchableAsError(UsageError("x"));
  ExpectCatchableAsError(TransientError("x"));
  ExpectCatchableAsError(TimeoutError("x"));
  ExpectCatchableAsError(ConnectionLostError("x"));
  ExpectCatchableAsError(JobKilledError("x"));
  ExpectCatchableAsError(JobCancelledError("x"));
  ExpectCatchableAsError(QuotaExceededError("x"));
  ExpectCatchableAsError(IntegrityError("x"));
  ExpectCatchableAsError(CrashPointError("x"));
}

TEST(ErrorTaxonomy, TransientSubclassesCatchAsTransientError) {
  EXPECT_THROW(throw TimeoutError("x"), TransientError);
  EXPECT_THROW(throw ConnectionLostError("x"), TransientError);
  // But not the other way around: a plain TransientError is not a timeout.
  try {
    throw TransientError("x");
  } catch (const TimeoutError&) {
    FAIL() << "TransientError must not catch as TimeoutError";
  } catch (const TransientError&) {
  }
}

TEST(ErrorTaxonomy, IsTransientErrorClassifiesEverySubclass) {
  // Transient: the retry layer may re-run the failed operation.
  EXPECT_TRUE(IsTransientError(TransientError("x")));
  EXPECT_TRUE(IsTransientError(TimeoutError("x")));
  EXPECT_TRUE(IsTransientError(ConnectionLostError("x")));
  // Fatal: retrying cannot help; the original error must surface.
  EXPECT_FALSE(IsTransientError(ParseError("x")));
  EXPECT_FALSE(IsTransientError(AnalysisError("x")));
  EXPECT_FALSE(IsTransientError(ExecutionError("x")));
  EXPECT_FALSE(IsTransientError(ConnectionError("x")));
  EXPECT_FALSE(IsTransientError(UsageError("x")));
  // The governance types are deliberately fatal: retrying a cancelled job
  // resurrects work its owner stopped, and a quota breach would allocate
  // the same bytes again and fail the same way.
  EXPECT_FALSE(IsTransientError(JobKilledError("x")));
  EXPECT_FALSE(IsTransientError(JobCancelledError("x")));
  EXPECT_FALSE(IsTransientError(QuotaExceededError("x")));
  // Durability errors are deliberately fatal: an integrity violation means
  // the data is wrong — re-reading it cannot make it right — and a crash
  // point must "kill the process", not be absorbed by a retry loop.
  EXPECT_FALSE(IsTransientError(IntegrityError("x")));
  EXPECT_FALSE(IsTransientError(CrashPointError("x")));
  EXPECT_FALSE(IsTransientError(Error("x")));
  EXPECT_FALSE(IsTransientError(std::runtime_error("x")));
}

TEST(ErrorTaxonomy, ClassificationSurvivesErrorReference) {
  // The runner catches `const std::exception&`; classification must work
  // through the base reference, not just the static type.
  const TimeoutError timeout("t");
  const ExecutionError fatal("f");
  const std::exception& transient_ref = timeout;
  const std::exception& fatal_ref = fatal;
  EXPECT_TRUE(IsTransientError(transient_ref));
  EXPECT_FALSE(IsTransientError(fatal_ref));
}

}  // namespace
}  // namespace sqloop
