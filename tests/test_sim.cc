// Unit tests for the sim substrate: deterministic PRNG, stat counters,
// logging plumbing, and the event-calendar invariants the run loop relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "sim/calendar.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace hht::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next64(), b.next64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += (a.next64() != b.next64());
  EXPECT_GT(differing, 60);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(77);
  const std::uint64_t first = a.next64();
  a.next64();
  a.reseed(77);
  EXPECT_EQ(first, a.next64());
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_LT(rng.nextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.nextBelow(8));
  EXPECT_EQ(seen.size(), 8u);  // all 8 residues appear in 400 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // uniform mean
}

TEST(Rng, NextFloatRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.nextFloat(-2.5f, 7.25f);
    ASSERT_GE(f, -2.5f);
    ASSERT_LT(f, 7.25f);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.nextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(StatSet, CounterStartsAtZeroAndAccumulates) {
  StatSet s;
  EXPECT_EQ(s.value("a.b"), 0u);
  EXPECT_FALSE(s.contains("a.b"));
  s.counter("a.b") += 3;
  s.counter("a.b") += 4;
  EXPECT_EQ(s.value("a.b"), 7u);
  EXPECT_TRUE(s.contains("a.b"));
}

TEST(StatSet, ReferencesStayValidAcrossInserts) {
  StatSet s;
  std::uint64_t& a = s.counter("first");
  for (int i = 0; i < 100; ++i) s.counter("other." + std::to_string(i)) = 1;
  a = 42;
  EXPECT_EQ(s.value("first"), 42u);
}

TEST(StatSet, AbsorbPrefixesAndSums) {
  StatSet inner;
  inner.counter("x") = 5;
  StatSet outer;
  outer.counter("pre.x") = 2;
  outer.absorb(inner, "pre.");
  EXPECT_EQ(outer.value("pre.x"), 7u);
}

TEST(StatSet, ClearRemovesEverything) {
  StatSet s;
  s.counter("a") = 1;
  s.clear();
  EXPECT_FALSE(s.contains("a"));
  EXPECT_TRUE(s.all().empty());
}

TEST(Log, SetAndGetLevel) {
  setLogLevel(LogLevel::Debug);
  EXPECT_EQ(logLevel(), LogLevel::Debug);
  setLogLevel(LogLevel::Off);
  EXPECT_EQ(logLevel(), LogLevel::Off);
}

TEST(Log, MacroIsSilentWhenDisabled) {
  setLogLevel(LogLevel::Off);
  // Must compile, evaluate the level check only, and not crash.
  HHT_LOG_AT(Trace, "test", "value=%d", 42);
  SUCCEED();
}

TEST(EventCalendar, StartsIdle) {
  EventCalendar cal(3);
  EXPECT_TRUE(cal.idle());
  EXPECT_EQ(cal.next(), kNeverCycle);
  for (std::size_t s = 0; s < cal.size(); ++s) {
    EXPECT_EQ(cal.at(s), kNeverCycle);
    EXPECT_FALSE(cal.due(s, 1'000'000));
  }
}

// The run loop's safety property: next() may never exceed the earliest
// posted event, no matter the posting order — a skip to next() can never
// jump past a cycle where some component declared work.
TEST(EventCalendar, NeverSkipsPastPostedEvent) {
  EventCalendar cal(3);
  cal.post(0, 500);
  cal.post(1, 120);
  cal.post(2, 900);
  EXPECT_EQ(cal.next(), 120u);
  // Tighten the earliest: min must follow downward immediately.
  cal.post(2, 40);
  EXPECT_EQ(cal.next(), 40u);
  // Randomized cross-check against a straight min over the slots.
  Rng rng(0xCA1E'0001);
  std::array<Cycle, 3> shadow = {500, 120, 40};
  for (int i = 0; i < 10'000; ++i) {
    const std::size_t slot = static_cast<std::size_t>(rng.nextBelow(3));
    const Cycle c = rng.nextBool(0.1)
                        ? kNeverCycle
                        : static_cast<Cycle>(rng.nextBelow(1 << 20));
    cal.post(slot, c);
    shadow[slot] = c;
    const Cycle want = std::min({shadow[0], shadow[1], shadow[2]});
    ASSERT_EQ(cal.next(), want) << "iteration " << i;
    ASSERT_LE(cal.next(), shadow[0]);
    ASSERT_LE(cal.next(), shadow[1]);
    ASSERT_LE(cal.next(), shadow[2]);
  }
}

// A component has exactly one pending event: re-posting a slot overwrites
// the previous entry rather than accumulating (dedupe), in both
// directions, including back to kNeverCycle.
TEST(EventCalendar, RepostOverwritesAndDedupes) {
  EventCalendar cal(3);
  cal.post(0, 100);
  cal.post(0, 100);  // identical re-post is a no-op
  EXPECT_EQ(cal.at(0), 100u);
  EXPECT_EQ(cal.next(), 100u);
  cal.post(0, 50);  // moved earlier
  EXPECT_EQ(cal.at(0), 50u);
  EXPECT_EQ(cal.next(), 50u);
  cal.post(0, 300);  // moved later: the old 50/100 entries must be gone
  EXPECT_EQ(cal.at(0), 300u);
  EXPECT_EQ(cal.next(), 300u);
  EXPECT_FALSE(cal.due(0, 299));
  EXPECT_TRUE(cal.due(0, 300));
  cal.post(0, kNeverCycle);  // withdrawn entirely
  EXPECT_TRUE(cal.idle());
  EXPECT_FALSE(cal.due(0, kNeverCycle - 1));
}

// Same-cycle multi-component wakeups: every slot posted for cycle C stays
// individually due at C until that slot itself is re-posted past it —
// servicing one component must not lose the others.
TEST(EventCalendar, SameCycleMultiComponentWakeups) {
  EventCalendar cal(3);
  cal.post(0, 77);
  cal.post(1, 77);
  cal.post(2, 77);
  EXPECT_EQ(cal.next(), 77u);
  EXPECT_TRUE(cal.due(0, 77));
  EXPECT_TRUE(cal.due(1, 77));
  EXPECT_TRUE(cal.due(2, 77));
  // Service slot 0 (it schedules ahead); the rest remain due and the min
  // must not move past 77.
  cal.post(0, 78);
  EXPECT_EQ(cal.next(), 77u);
  EXPECT_FALSE(cal.due(0, 77));
  EXPECT_TRUE(cal.due(1, 77));
  EXPECT_TRUE(cal.due(2, 77));
  cal.post(1, 90);
  EXPECT_EQ(cal.next(), 77u) << "slot 2 still owes work at 77";
  cal.post(2, 78);
  EXPECT_EQ(cal.next(), 78u);
  EXPECT_TRUE(cal.due(0, 78));
  EXPECT_TRUE(cal.due(2, 78));
  EXPECT_FALSE(cal.due(1, 78));
}

// due() is "at or before": an event posted in the past stays due until
// re-posted, so a loop that fell behind still services it.
TEST(EventCalendar, PastEventsStayDue) {
  EventCalendar cal(3);
  cal.post(1, 10);
  EXPECT_TRUE(cal.due(1, 10));
  EXPECT_TRUE(cal.due(1, 10'000));
  EXPECT_EQ(cal.next(), 10u);
}

// A 16-tile machine's calendar: 33 slots (device + core per tile, plus the
// shared memory system). The busy-cycle pattern — every slot due at C, then
// serviced one by one and re-posted later — must keep the minimum at C
// until the LAST slot holding it moves, then land exactly on the earliest
// of the re-posts. A randomized phase cross-checks against a straight min.
TEST(EventCalendar, ThirtyThreeSlotMinTracksRepostOfTheMinimumHolder) {
  constexpr std::size_t kSlots = 33;
  EventCalendar cal(kSlots);
  EXPECT_EQ(cal.size(), kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) cal.post(s, 100);
  EXPECT_EQ(cal.next(), 100u);
  for (std::size_t s = 0; s + 1 < kSlots; ++s) {
    cal.post(s, 200 + s);
    ASSERT_EQ(cal.next(), 100u) << "slot " << kSlots - 1 << " still due";
  }
  cal.post(kSlots - 1, 150);  // the last minimum holder moves later
  EXPECT_EQ(cal.next(), 150u);
  cal.post(kSlots - 1, 400);  // ... and later again: min is now slot 0
  EXPECT_EQ(cal.next(), 200u);
  cal.post(0, 201);  // ties with slot 1: both hold the minimum
  EXPECT_EQ(cal.next(), 201u);
  cal.post(1, 500);
  EXPECT_EQ(cal.next(), 201u) << "slot 0 still holds 201";
  cal.post(0, 500);
  EXPECT_EQ(cal.next(), 202u);

  Rng rng(0xCA1E'0033);
  std::vector<Cycle> shadow(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) shadow[s] = cal.at(s);
  for (int i = 0; i < 20'000; ++i) {
    // Bias toward re-posting the current minimum holder later, the case
    // that forces a rescan.
    std::size_t slot = static_cast<std::size_t>(rng.nextBelow(kSlots));
    if (rng.nextBool(0.5)) {
      slot = static_cast<std::size_t>(
          std::min_element(shadow.begin(), shadow.end()) - shadow.begin());
    }
    const Cycle c = rng.nextBool(0.05)
                        ? kNeverCycle
                        : shadow[slot] == kNeverCycle
                              ? static_cast<Cycle>(rng.nextBelow(1 << 16))
                              : shadow[slot] + rng.nextBelow(4);
    cal.post(slot, c);
    shadow[slot] = c;
    ASSERT_EQ(cal.next(), *std::min_element(shadow.begin(), shadow.end()))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace hht::sim
