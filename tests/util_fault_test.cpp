#include "util/fault.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

namespace edb::fault {
namespace {

// Every test leaves the process with no active plan: injection is global
// state shared with every other test binary run in this process.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { uninstall(); }
};

TEST_F(FaultTest, ParsesFullSpec) {
  auto plan = FaultPlan::parse(
      "seed=42;engine.job:fail=0.01;"
      "planner.solve:fail=0.01,stall=0.005@2ms,crash=0.001");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed(), 42u);
  ASSERT_EQ(plan->sites().size(), 2u);
  EXPECT_EQ(plan->sites()[0].site, "engine.job");
  EXPECT_DOUBLE_EQ(plan->sites()[0].fail, 0.01);
  EXPECT_DOUBLE_EQ(plan->sites()[0].stall, 0.0);
  EXPECT_EQ(plan->sites()[1].site, "planner.solve");
  EXPECT_DOUBLE_EQ(plan->sites()[1].fail, 0.01);
  EXPECT_DOUBLE_EQ(plan->sites()[1].stall, 0.005);
  EXPECT_DOUBLE_EQ(plan->sites()[1].stall_ms, 2.0);
  EXPECT_DOUBLE_EQ(plan->sites()[1].crash, 0.001);
}

TEST_F(FaultTest, EmptySpecIsAnEmptyPlan) {
  auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed(), 0u);
  EXPECT_TRUE(plan->sites().empty());
  EXPECT_FALSE(plan->evaluate("engine.job", 7).fires());
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "seed=banana",                    // unparsable seed
      "engine.job",                     // no kind list
      ":fail=0.1",                      // empty site
      "engine.job:explode=0.1",         // unknown kind
      "engine.job:fail=1.5",            // rate past 1
      "engine.job:fail=-0.1",           // negative rate
      "engine.job:fail",                // no '='
      "engine.job:fail=0.6,stall=0.6",  // per-site sum past 1
      "engine.job:fail=0.1@2ms",        // duration on a non-stall kind
      "engine.job:stall=0.1@2s",        // duration not in ms
      "engine.job:stall=0.1@xms",       // unparsable duration
  };
  for (const char* spec : bad) {
    auto plan = FaultPlan::parse(spec);
    ASSERT_FALSE(plan.ok()) << spec;
    EXPECT_EQ(plan.error().code, ErrorCode::kInvalidArgument) << spec;
  }
}

TEST_F(FaultTest, EvaluateIsPureAndDeterministic) {
  auto plan = FaultPlan::parse(
                  "seed=7;a.site:fail=0.2,stall=0.2@3ms,crash=0.2")
                  .take();
  for (std::uint64_t key = 0; key < 512; ++key) {
    const Action first = plan.evaluate("a.site", key);
    const Action again = plan.evaluate("a.site", key);
    EXPECT_EQ(first.kind, again.kind);
    EXPECT_EQ(first.stall_ms, again.stall_ms);
    if (first.kind == Kind::kStall) {
      EXPECT_DOUBLE_EQ(first.stall_ms, 3.0);
    }
  }
  // A fresh parse of the same spec replays the same stream.
  auto twin = FaultPlan::parse(
                  "seed=7;a.site:fail=0.2,stall=0.2@3ms,crash=0.2")
                  .take();
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(plan.evaluate("a.site", key).kind,
              twin.evaluate("a.site", key).kind);
  }
}

TEST_F(FaultTest, PerSiteStreamsAreIndependent) {
  // Site A's firing pattern must not move when site B's rates change —
  // each site draws from its own (seed ^ hash(site)) stream.
  auto small = FaultPlan::parse("seed=9;a.site:fail=0.3;b.site:fail=0.1")
                   .take();
  auto large = FaultPlan::parse("seed=9;a.site:fail=0.3;b.site:fail=0.9")
                   .take();
  std::set<std::uint64_t> a_fires, b_fires;
  for (std::uint64_t key = 0; key < 2048; ++key) {
    EXPECT_EQ(small.evaluate("a.site", key).kind,
              large.evaluate("a.site", key).kind);
    if (small.evaluate("a.site", key).fires()) a_fires.insert(key);
    if (small.evaluate("b.site", key).fires()) b_fires.insert(key);
  }
  // And the two sites' firing sets differ (the streams are distinct).
  EXPECT_NE(a_fires, b_fires);
  EXPECT_FALSE(a_fires.empty());
  EXPECT_FALSE(b_fires.empty());
}

TEST_F(FaultTest, AttemptRerollsTheDecision) {
  auto plan = FaultPlan::parse("a.site:fail=0.5").take();
  // Some key that fails at attempt 0 must pass at a later attempt: at
  // rate 0.5 the odds every one of 8 attempts fails are 1/256 per key.
  bool some_recovered = false;
  for (std::uint64_t key = 0; key < 64 && !some_recovered; ++key) {
    if (!plan.evaluate("a.site", key, 0).fires()) continue;
    for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
      if (!plan.evaluate("a.site", key, attempt).fires()) {
        some_recovered = true;
        break;
      }
    }
  }
  EXPECT_TRUE(some_recovered);
}

TEST_F(FaultTest, EmpiricalRatesMatchTheSpec) {
  auto plan =
      FaultPlan::parse("seed=3;a.site:fail=0.1,stall=0.05,crash=0.02")
          .take();
  const int n = 200000;
  int fail = 0, stall = 0, crash = 0;
  for (std::uint64_t key = 0; key < n; ++key) {
    switch (plan.evaluate("a.site", key).kind) {
      case Kind::kFail: ++fail; break;
      case Kind::kStall: ++stall; break;
      case Kind::kCrash: ++crash; break;
      case Kind::kNone: break;
    }
  }
  EXPECT_NEAR(fail / double(n), 0.10, 0.01);
  EXPECT_NEAR(stall / double(n), 0.05, 0.01);
  EXPECT_NEAR(crash / double(n), 0.02, 0.005);
}

TEST_F(FaultTest, UnmentionedSitesNeverFire) {
  auto plan = FaultPlan::parse("a.site:fail=1").take();
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_FALSE(plan.evaluate("other.site", key).fires());
  }
}

TEST_F(FaultTest, InstallUninstallRoundtrip) {
  EXPECT_FALSE(active());
  EXPECT_FALSE(inject("a.site", 1).fires());  // dormant: always kNone
  install(FaultPlan::parse("a.site:fail=1").take());
  EXPECT_TRUE(active());
  EXPECT_EQ(inject("a.site", 1).kind, Kind::kFail);
  EXPECT_FALSE(inject("other.site", 1).fires());
  uninstall();
  EXPECT_FALSE(active());
  EXPECT_FALSE(inject("a.site", 1).fires());
}

TEST_F(FaultTest, InstallFromEnvReadsEdbFaultPlan) {
  ::unsetenv("EDB_FAULT_PLAN");
  EXPECT_FALSE(install_from_env());
  EXPECT_FALSE(active());
  ::setenv("EDB_FAULT_PLAN", "seed=5;a.site:fail=1", 1);
  EXPECT_TRUE(install_from_env());
  EXPECT_TRUE(active());
  EXPECT_EQ(inject("a.site", 123).kind, Kind::kFail);
  ::unsetenv("EDB_FAULT_PLAN");
  uninstall();
}

TEST_F(FaultTest, ApplyStallIgnoresNonStallActions) {
  // Must return immediately — a hang here would time the test out.
  apply_stall(Action{Kind::kFail, 1e9});
  apply_stall(Action{Kind::kNone, 1e9});
  apply_stall(Action{Kind::kStall, 0.1});  // and a real (tiny) stall runs
}

TEST_F(FaultTest, LostIsTrueExactlyForFailAndCrash) {
  EXPECT_FALSE(lost("a.site", 1));  // dormant
  install(FaultPlan::parse(
              "fail.site:fail=1;crash.site:crash=1;stall.site:stall=1@0.1ms")
              .take());
  EXPECT_TRUE(lost("fail.site", 1));
  EXPECT_TRUE(lost("crash.site", 1, 3));
  EXPECT_FALSE(lost("stall.site", 1));  // sleeps, then the work goes on
  EXPECT_FALSE(lost("other.site", 1));
  uninstall();
}

TEST_F(FaultTest, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(Kind::kNone), "none");
  EXPECT_STREQ(kind_name(Kind::kFail), "fail");
  EXPECT_STREQ(kind_name(Kind::kStall), "stall");
  EXPECT_STREQ(kind_name(Kind::kCrash), "crash");
}

}  // namespace
}  // namespace edb::fault
