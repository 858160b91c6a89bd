#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/api/session.hpp"
#include "enumkernel/limits.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

// The session rejects inconsistent queries with actionable messages instead
// of letting them surface as DCL_EXPECTS failures deep inside a driver.

std::string message_of(const listing_query& q,
                       listing_engine engine = listing_engine::congest_sim) {
  try {
    validate_query(q, engine);
  } catch (const precondition_error& e) {
    return e.what();
  }
  return {};
}

void expect_rejected(const listing_query& q,
                     listing_engine engine = listing_engine::congest_sim) {
  EXPECT_THROW(validate_query(q, engine), precondition_error);
}

void expect_accepted(const listing_query& q,
                     listing_engine engine = listing_engine::congest_sim) {
  EXPECT_NO_THROW(validate_query(q, engine));
}

TEST(OptionsValidation, DefaultsAreValid) {
  expect_accepted(listing_query{});
  expect_accepted(listing_query{}, listing_engine::local_kclist);
}

TEST(OptionsValidation, CongestSimPRange) {
  listing_query q;
  q.p = 2;
  expect_rejected(q);
  q.p = 7;
  expect_rejected(q);
  // The message names the offending value and the valid range.
  EXPECT_NE(message_of(q).find("p = 7"), std::string::npos);
  EXPECT_NE(message_of(q).find("[3, 6]"), std::string::npos);
  for (q.p = 3; q.p <= 6; ++q.p) expect_accepted(q);
}

TEST(OptionsValidation, LocalEnginePRange) {
  const auto local = listing_engine::local_kclist;
  listing_query q;
  q.p = 12;  // beyond congest_sim's range, fine for the local engine
  expect_accepted(q, local);
  q.p = enumkernel::kMaxCliqueArity + 1;
  expect_rejected(q, local);
  q.p = 2;
  expect_rejected(q, local);
}

TEST(OptionsValidation, SharedKernelArityBoundCoversBothBackends) {
  // Both backends bottom out in the shared kernel; no engine may accept an
  // arity past enumkernel::kMaxCliqueArity. The rejection happens at the
  // session boundary, not deep inside the enumerator.
  listing_query q;
  q.p = enumkernel::kMaxCliqueArity + 1;
  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist})
    expect_rejected(q, engine);
  q.p = enumkernel::kMaxCliqueArity;
  expect_accepted(q, listing_engine::local_kclist);
}

// NaN compares false against everything, so a range check written as
// `x < lo || x >= hi` lets it through; these values must fail everywhere.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

/// A knob value every entry point refuses: validate_query for both
/// engines, validate_edge_query, and a bound session's run.
void expect_rejected_everywhere(const listing_query& q) {
  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist})
    expect_rejected(q, engine);
  EXPECT_THROW(validate_edge_query(q), precondition_error);
  const auto g = gen::gnp(20, 0.2, 1);
  listing_session s(g);
  EXPECT_THROW(s.run(q), precondition_error);
}

TEST(OptionsValidation, EpsilonRange) {
  listing_query q;
  q.epsilon = 1.0;
  expect_rejected(q);
  EXPECT_NE(message_of(q).find("epsilon"), std::string::npos);
  q.epsilon = -0.1;
  expect_rejected(q);
  for (const double bad : kNonFinite) {
    q.epsilon = bad;
    expect_rejected_everywhere(q);
    EXPECT_NE(message_of(q).find("epsilon"), std::string::npos) << bad;
  }
  q.epsilon = 0.0;  // 0 selects the paper's default
  expect_accepted(q);
  q.epsilon = 1.0 / 18.0;
  expect_accepted(q);
}

TEST(OptionsValidation, BetaGammaPositivity) {
  listing_query q;
  q.beta = 0.0;
  expect_rejected(q);
  EXPECT_NE(message_of(q).find("beta"), std::string::npos);
  for (const double bad : kNonFinite) {
    q.beta = bad;
    expect_rejected_everywhere(q);
    EXPECT_NE(message_of(q).find("beta"), std::string::npos) << bad;
  }
  q.beta = 2.0;
  q.gamma = -3.0;
  expect_rejected(q);
  EXPECT_NE(message_of(q).find("gamma"), std::string::npos);
  for (const double bad : kNonFinite) {
    q.gamma = bad;
    expect_rejected_everywhere(q);
    EXPECT_NE(message_of(q).find("gamma"), std::string::npos) << bad;
  }
  q.gamma = 12.0;
  expect_accepted(q);
}

TEST(OptionsValidation, RecursionBudgets) {
  listing_query q;
  q.max_levels = 0;
  expect_rejected(q);
  q.max_levels = 64;
  q.base_case_edges = -1;
  expect_rejected(q);
}

TEST(OptionsValidation, ThreadCountsAreNeverRejected) {
  // <= 0 selects hardware concurrency, for either engine.
  const auto g = gen::gnp(20, 0.2, 1);
  EXPECT_NO_THROW(listing_session(g, {.threads = -4}));
  EXPECT_NO_THROW(listing_session(
      g, {.engine = listing_engine::local_kclist, .threads = 0}));
}

TEST(OptionsValidation, StreamBatchMustBePositive) {
  listing_query q;
  q.stream_batch_tuples = 0;
  expect_rejected(q);
  EXPECT_NE(message_of(q).find("stream_batch_tuples"), std::string::npos);
  q.stream_batch_tuples = 1;
  expect_accepted(q);
}

TEST(OptionsValidation, SessionRunValidatesAgainstItsEngine) {
  // run() is validate_query under the bound engine, so the two surfaces can
  // never drift apart.
  const auto g = gen::gnp(20, 0.2, 1);
  listing_session congest(g);
  listing_session local(g, {.engine = listing_engine::local_kclist});
  listing_query q;
  q.p = 9;  // out of range for congest_sim, in range for the local engine
  EXPECT_THROW(congest.run(q), precondition_error);
  EXPECT_NO_THROW(local.run(q));
  q.epsilon = -0.5;
  EXPECT_THROW(local.run(q), precondition_error);
}

}  // namespace
}  // namespace dcl
