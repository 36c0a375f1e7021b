#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <thread>

#include "src/common/fault.h"
#include "src/lock/lock_manager.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

constexpr int64_t kNoWait = 0;
constexpr int64_t kShortWait = 50'000;   // 50 ms
constexpr int64_t kLongWait = 2'000'000;  // 2 s

TEST(LockModeTest, CompatibilityMatrix) {
  using enum LockMode;
  // Classic matrix.
  EXPECT_TRUE(Compatible(kIS, kIS));
  EXPECT_TRUE(Compatible(kIS, kIX));
  EXPECT_TRUE(Compatible(kIS, kS));
  EXPECT_FALSE(Compatible(kIS, kX));
  EXPECT_TRUE(Compatible(kIX, kIX));
  EXPECT_FALSE(Compatible(kIX, kS));
  EXPECT_FALSE(Compatible(kIX, kX));
  EXPECT_TRUE(Compatible(kS, kS));
  EXPECT_FALSE(Compatible(kS, kX));
  EXPECT_FALSE(Compatible(kX, kX));
}

TEST(LockModeTest, CoversAndJoin) {
  using enum LockMode;
  EXPECT_TRUE(Covers(kX, kS));
  EXPECT_TRUE(Covers(kX, kIX));
  EXPECT_TRUE(Covers(kS, kIS));
  EXPECT_FALSE(Covers(kS, kIX));
  EXPECT_FALSE(Covers(kIS, kS));
  EXPECT_EQ(Join(kS, kS), kS);
  EXPECT_EQ(Join(kIS, kIX), kIX);
  EXPECT_EQ(Join(kS, kIX), kX);  // SIX unsupported -> X
  EXPECT_EQ(Join(kS, kX), kX);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));
  ASSERT_OK(lm.Acquire(2, key, LockMode::kS, kNoWait));
  EXPECT_TRUE(lm.Holds(1, key, LockMode::kS));
  EXPECT_TRUE(lm.Holds(2, key, LockMode::kS));
  lm.ReleaseAll(1);
  EXPECT_FALSE(lm.Holds(1, key, LockMode::kS));
  EXPECT_TRUE(lm.Holds(2, key, LockMode::kS));
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  LockKey key = LockKey::RowOf(1, 5);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kX, kNoWait));
  auto fut = std::async(std::launch::async, [&] {
    return lm.Acquire(2, key, LockMode::kX, kLongWait);
  });
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  lm.ReleaseAll(1);
  EXPECT_OK(fut.get());
  EXPECT_TRUE(lm.Holds(2, key, LockMode::kX));
}

TEST(LockManagerTest, WaitTimesOut) {
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kX, kNoWait));
  Status s = lm.Acquire(2, key, LockMode::kS, kShortWait);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  EXPECT_EQ(lm.stats().timeouts.load(), 1u);
  // The failed request left no residue.
  lm.ReleaseAll(1);
  EXPECT_OK(lm.Acquire(3, key, LockMode::kX, kNoWait));
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));  // re-entrant
  ASSERT_OK(lm.Acquire(1, key, LockMode::kX, kNoWait));  // upgrade, no other
  EXPECT_TRUE(lm.Holds(1, key, LockMode::kX));
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherReaders) {
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));
  ASSERT_OK(lm.Acquire(2, key, LockMode::kS, kNoWait));
  auto fut = std::async(std::launch::async, [&] {
    return lm.Acquire(1, key, LockMode::kX, kLongWait);
  });
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  lm.ReleaseAll(2);
  EXPECT_OK(fut.get());
  EXPECT_TRUE(lm.Holds(1, key, LockMode::kX));
}

TEST(LockManagerTest, FifoPreventsWriterStarvation) {
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));
  // Writer queues first...
  auto writer = std::async(std::launch::async, [&] {
    return lm.Acquire(2, key, LockMode::kX, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...then a late reader must NOT jump ahead of the waiting writer.
  auto reader = std::async(std::launch::async, [&] {
    return lm.Acquire(3, key, LockMode::kS, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(lm.Holds(3, key, LockMode::kS));
  lm.ReleaseAll(1);
  EXPECT_OK(writer.get());
  lm.ReleaseAll(2);
  EXPECT_OK(reader.get());
  lm.ReleaseAll(3);
}

TEST(LockManagerTest, DeadlockDetectedAndVictimAborted) {
  LockManager lm;
  LockKey k1 = LockKey::Table(1);
  LockKey k2 = LockKey::Table(2);
  ASSERT_OK(lm.Acquire(1, k1, LockMode::kX, kNoWait));
  ASSERT_OK(lm.Acquire(2, k2, LockMode::kX, kNoWait));
  auto fut = std::async(std::launch::async, [&] {
    return lm.Acquire(1, k2, LockMode::kX, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Txn 2 closes the cycle: someone must die with kAborted.
  Status s2 = lm.Acquire(2, k1, LockMode::kX, kLongWait);
  Status s1 = fut.get();
  EXPECT_TRUE(s1.code() == StatusCode::kAborted ||
              s2.code() == StatusCode::kAborted)
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  EXPECT_GE(lm.stats().deadlocks.load(), 1u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, UpgradeDeadlockBetweenTwoUpgraders) {
  // Two S holders both upgrade to X: a classic upgrade deadlock. The victim
  // gets kAborted and — like a real transaction abort — releases all its
  // locks, after which the survivor's upgrade is granted.
  LockManager lm;
  LockKey key = LockKey::Table(1);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kS, kNoWait));
  ASSERT_OK(lm.Acquire(2, key, LockMode::kS, kNoWait));
  auto upgrade = [&](TxnId t) {
    Status s = lm.Acquire(t, key, LockMode::kX, kLongWait);
    if (!s.ok()) lm.ReleaseAll(t);  // transaction abort path
    return s;
  };
  auto fut = std::async(std::launch::async, [&] { return upgrade(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status s2 = upgrade(2);
  Status s1 = fut.get();
  // Exactly one upgrader dies, the other ends up holding X.
  ASSERT_TRUE(s1.ok() != s2.ok())
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  TxnId winner = s1.ok() ? 1 : 2;
  EXPECT_TRUE(lm.Holds(winner, key, LockMode::kX));
  EXPECT_GE(lm.stats().deadlocks.load(), 1u);
  lm.ReleaseAll(winner);
}

TEST(LockManagerTest, ReleaseSharedKeepsExclusive) {
  LockManager lm;
  LockKey t1 = LockKey::Table(1);
  LockKey t2 = LockKey::Table(2);
  ASSERT_OK(lm.Acquire(1, t1, LockMode::kS, kNoWait));
  ASSERT_OK(lm.Acquire(1, t2, LockMode::kX, kNoWait));
  lm.ReleaseSharedLocks(1);
  EXPECT_FALSE(lm.Holds(1, t1, LockMode::kS));
  EXPECT_TRUE(lm.Holds(1, t2, LockMode::kX));
}

TEST(LockManagerTest, IntentionLocksAllowRowConcurrency) {
  LockManager lm;
  LockKey table = LockKey::Table(1);
  // Two writers on different rows coexist under IX.
  ASSERT_OK(lm.Acquire(1, table, LockMode::kIX, kNoWait));
  ASSERT_OK(lm.Acquire(2, table, LockMode::kIX, kNoWait));
  ASSERT_OK(lm.Acquire(1, LockKey::RowOf(1, 10), LockMode::kX, kNoWait));
  ASSERT_OK(lm.Acquire(2, LockKey::RowOf(1, 11), LockMode::kX, kNoWait));
  // A table scanner (S) must wait for the IX holders.
  Status s = lm.Acquire(3, table, LockMode::kS, kShortWait);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_OK(lm.Acquire(3, table, LockMode::kS, kNoWait));
}

TEST(LockManagerTest, CompatibleRequestPassesIncompatibleWaiter) {
  // A waiter blocks later requests only when they conflict with it. T3's
  // IS is compatible with both T1's granted IX and T2's queued S, so it is
  // granted at once; were it left queued behind T2 (with no waits-for edge
  // to T2), the cycle T1 -> T3 -> T2 -> T1 below would go undetected until
  // T2's lock wait timed out.
  LockManager lm;
  LockKey t1 = LockKey::Table(1);
  LockKey t2 = LockKey::Table(2);
  ASSERT_OK(lm.Acquire(1, t1, LockMode::kIX, kNoWait));
  ASSERT_OK(lm.Acquire(3, t2, LockMode::kX, kNoWait));
  auto t2_reads = std::async(std::launch::async, [&] {
    return lm.Acquire(2, t1, LockMode::kS, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto t3_intends = std::async(std::launch::async, [&] {
    return lm.Acquire(3, t1, LockMode::kIS, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto t1_reads = std::async(std::launch::async, [&] {
    return lm.Acquire(1, t2, LockMode::kS, kLongWait);
  });
  ASSERT_EQ(t3_intends.wait_for(std::chrono::milliseconds(200)),
            std::future_status::ready);
  EXPECT_OK(t3_intends.get());
  lm.ReleaseAll(3);
  EXPECT_OK(t1_reads.get());
  lm.ReleaseAll(1);
  EXPECT_OK(t2_reads.get());
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.stats().timeouts.load(), 0u);
}

IndexRange IntRange(int lo, int hi, bool lo_incl = true, bool hi_incl = true) {
  IndexRange r;
  r.lo = Row({Value::Int(lo)});
  r.hi = Row({Value::Int(hi)});
  r.lo_unbounded = r.hi_unbounded = false;
  r.lo_incl = lo_incl;
  r.hi_incl = hi_incl;
  return r;
}

IndexRange IntPoint(int k) { return IndexRange::Point(Row({Value::Int(k)})); }

TEST(RangeLockTest, DisjointIntervalsCoexistOverlappingConflict) {
  LockManager lm;
  RangeSpaceKey space{1, 42};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 10), LockMode::kS, kNoWait));
  // A writer outside the scanned interval proceeds immediately...
  ASSERT_OK(lm.AcquireRange(2, space, IntPoint(11), LockMode::kX, kNoWait));
  // ...one inside blocks until the reader releases.
  auto fut = std::async(std::launch::async, [&] {
    return lm.AcquireRange(3, space, IntPoint(5), LockMode::kX, kLongWait);
  });
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  lm.ReleaseAll(1);
  EXPECT_OK(fut.get());
  EXPECT_TRUE(lm.HoldsRange(3, space, IntPoint(5), LockMode::kX));
  // Different spaces never conflict.
  RangeSpaceKey other{1, 43};
  ASSERT_OK(lm.AcquireRange(4, other, IntPoint(5), LockMode::kX, kNoWait));
}

TEST(RangeLockTest, SharedRangesCoexistAndBlockWriterInside) {
  LockManager lm;
  RangeSpaceKey space{1, 42};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 10), LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(2, space, IntRange(5, 20), LockMode::kS, kNoWait));
  Status s = lm.AcquireRange(3, space, IntPoint(7), LockMode::kX, kShortWait);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  // Boundary exclusivity: S over (1, 10] does not cover the point 1.
  ASSERT_OK(lm.AcquireRange(5, space, IntRange(1, 10, false, true),
                            LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(6, space, IntPoint(1), LockMode::kX, kShortWait));
  Status in = lm.AcquireRange(6, space, IntPoint(2), LockMode::kX, kNoWait);
  EXPECT_EQ(in.code(), StatusCode::kTimedOut);
}

TEST(RangeLockTest, ReentrantUpgradeAndReleaseSharedRange) {
  LockManager lm;
  RangeSpaceKey space{2, 7};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 5), LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 5), LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 5), LockMode::kX, kNoWait));
  EXPECT_TRUE(lm.HoldsRange(1, space, IntRange(1, 5), LockMode::kX));
  EXPECT_EQ(lm.HeldRangeCount(1), 1u);
  // Same transaction's overlapping intervals never conflict with each other.
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(2, 9), LockMode::kS, kNoWait));
  EXPECT_EQ(lm.HeldRangeCount(1), 2u);
  // ReleaseSharedRange drops the S interval but keeps the X one.
  lm.ReleaseSharedRange(1, space, IntRange(2, 9));
  EXPECT_FALSE(lm.HoldsRange(1, space, IntRange(2, 9), LockMode::kS));
  lm.ReleaseSharedRange(1, space, IntRange(1, 5));
  EXPECT_TRUE(lm.HoldsRange(1, space, IntRange(1, 5), LockMode::kX));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldRangeCount(1), 0u);
  ASSERT_OK(lm.AcquireRange(2, space, IntPoint(3), LockMode::kX, kNoWait));
}

TEST(RangeLockTest, ReleaseSharedLocksCoversRangeOnlyHolders) {
  // A transaction holding ONLY range locks (no point locks) must still have
  // its shared intervals dropped by ReleaseSharedLocks.
  LockManager lm;
  RangeSpaceKey space{9, 5};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 10), LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(20, 30), LockMode::kX,
                            kNoWait));
  lm.ReleaseSharedLocks(1);
  EXPECT_FALSE(lm.HoldsRange(1, space, IntRange(1, 10), LockMode::kS));
  EXPECT_TRUE(lm.HoldsRange(1, space, IntRange(20, 30), LockMode::kX));
  // A writer inside the released S interval proceeds immediately.
  ASSERT_OK(lm.AcquireRange(2, space, IntPoint(5), LockMode::kX, kNoWait));
}

TEST(RangeLockTest, RangeDeadlockDetectedAcrossIntervals) {
  LockManager lm;
  RangeSpaceKey space{3, 9};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 10), LockMode::kS, kNoWait));
  ASSERT_OK(lm.AcquireRange(2, space, IntRange(20, 30), LockMode::kS,
                            kNoWait));
  // 1 waits for 2's interval...
  auto fut = std::async(std::launch::async, [&] {
    return lm.AcquireRange(1, space, IntPoint(25), LockMode::kX, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // ...and 2 closing the cycle is named the victim.
  Status s = lm.AcquireRange(2, space, IntPoint(5), LockMode::kX, kLongWait);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  lm.ReleaseAll(2);
  EXPECT_OK(fut.get());
  EXPECT_GE(lm.stats().deadlocks.load(), 1u);
}

TEST(RangeLockTest, FifoOnlyBlocksOverlappingWaiters) {
  LockManager lm;
  RangeSpaceKey space{4, 1};
  ASSERT_OK(lm.AcquireRange(1, space, IntRange(1, 10), LockMode::kS, kNoWait));
  // A writer queues inside the held interval...
  auto writer = std::async(std::launch::async, [&] {
    return lm.AcquireRange(2, space, IntPoint(5), LockMode::kX, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...a later writer on a disjoint interval passes it freely.
  ASSERT_OK(lm.AcquireRange(3, space, IntPoint(50), LockMode::kX, kNoWait));
  // But a later reader overlapping the queued writer must wait behind it
  // (anti-starvation), even though it is compatible with the holder.
  auto reader = std::async(std::launch::async, [&] {
    return lm.AcquireRange(4, space, IntRange(4, 6), LockMode::kS, kLongWait);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(lm.HoldsRange(4, space, IntRange(4, 6), LockMode::kS));
  lm.ReleaseAll(1);
  EXPECT_OK(writer.get());
  lm.ReleaseAll(2);
  EXPECT_OK(reader.get());
}

TEST(RangeLockTest, DeadlockDetectedAcrossLockFamilies) {
  // A cycle through a row lock and a key-range lock: both families feed
  // one waits-for graph.
  LockManager lm;
  RangeSpaceKey space{5, 3};
  LockKey row = LockKey::RowOf(5, 7);
  ASSERT_OK(lm.Acquire(1, row, LockMode::kX, kNoWait));
  ASSERT_OK(lm.AcquireRange(2, space, IntRange(1, 10), LockMode::kX, kNoWait));
  auto fut = std::async(std::launch::async, [&] {
    Status s = lm.AcquireRange(1, space, IntRange(5, 20), LockMode::kS,
                               kLongWait);
    if (!s.ok()) lm.ReleaseAll(1);
    return s;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status s2 = lm.Acquire(2, row, LockMode::kS, kLongWait);
  if (!s2.ok()) lm.ReleaseAll(2);
  Status s1 = fut.get();
  EXPECT_TRUE(s1.code() == StatusCode::kAborted ||
              s2.code() == StatusCode::kAborted)
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  EXPECT_GE(lm.stats().deadlocks.load(), 1u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, OneFaultProbePerAcquireCall) {
  FaultInjector* fi = FaultInjector::Global();
  struct ResetFaults {
    ~ResetFaults() { FaultInjector::Global()->Reset(); }
  } reset_faults;
  FaultInjector::SiteConfig count_only;
  count_only.probability = 0.0;
  fi->Arm("lock.acquire", count_only);

  LockManager lm;
  auto probes = [&](const std::function<Status()>& call) {
    const uint64_t before = fi->HitCount("lock.acquire");
    EXPECT_OK(call());
    return fi->HitCount("lock.acquire") - before;
  };
  const LockKey row = LockKey::RowOf(1, 1);
  EXPECT_EQ(probes([&] { return lm.Acquire(1, row, LockMode::kX, kNoWait); }),
            1u);
  EXPECT_EQ(probes([&] { return lm.Acquire(1, row, LockMode::kS, kNoWait); }),
            1u);  // re-entrant
  EXPECT_EQ(probes([&] {
              return lm.AcquireBatch(1, {LockKey::RowOf(1, 2)}, LockMode::kX,
                                     kNoWait);
            }),
            1u);
  EXPECT_EQ(probes([&] {
              return lm.AcquireBatch(
                  1,
                  {LockKey::RowOf(1, 3), LockKey::RowOf(1, 4),
                   LockKey::RowOf(1, 3), LockKey::RowOf(1, 5)},
                  LockMode::kX, kNoWait);
            }),
            1u);
  EXPECT_EQ(probes([&] {
              return lm.AcquireRange(1, RangeSpaceKey{1, 9}, IntRange(1, 5),
                                     LockMode::kS, kNoWait);
            }),
            1u);
  EXPECT_EQ(probes([&] {
              return lm.AcquireBatch(1, {}, LockMode::kX, kNoWait);
            }),
            0u);
  EXPECT_EQ(lm.HeldCount(1), 5u);
  lm.ReleaseAll(1);
}

TEST(LockManagerTest, AcquireBatchGrantsAllInOneCall) {
  LockManager lm;
  std::vector<LockKey> keys = {LockKey::RowOf(1, 1), LockKey::RowOf(1, 2),
                               LockKey::RowOf(1, 3), LockKey::RowOf(1, 2)};
  ASSERT_OK(lm.AcquireBatch(1, keys, LockMode::kX, kNoWait));
  // The duplicate collapses: three distinct keys held.
  EXPECT_EQ(lm.HeldCount(1), 3u);
  EXPECT_TRUE(lm.Holds(1, LockKey::RowOf(1, 2), LockMode::kX));
  // Re-entrant: a second batch over already-held keys is a no-op success.
  ASSERT_OK(lm.AcquireBatch(1, keys, LockMode::kX, kNoWait));
  EXPECT_EQ(lm.HeldCount(1), 3u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(1), 0u);
}

TEST(LockManagerTest, AcquireBatchTimeoutKeepsGrantedKeysHeld) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockKey::RowOf(1, 2), LockMode::kX, kNoWait));
  std::vector<LockKey> keys = {LockKey::RowOf(1, 1), LockKey::RowOf(1, 2),
                               LockKey::RowOf(1, 3)};
  Status s = lm.AcquireBatch(2, keys, LockMode::kX, kShortWait);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  // Same partial-hold state as a sequential loop stopping at the conflict:
  // the granted keys stay held and are released by ReleaseAll.
  EXPECT_EQ(lm.HeldCount(2), 2u);
  EXPECT_TRUE(lm.Holds(2, LockKey::RowOf(1, 1), LockMode::kX));
  EXPECT_FALSE(lm.Holds(2, LockKey::RowOf(1, 2), LockMode::kX));
  lm.ReleaseAll(2);
  // The dropped waiter must not wedge the queue for later requesters.
  lm.ReleaseAll(1);
  ASSERT_OK(lm.Acquire(3, LockKey::RowOf(1, 2), LockMode::kX, kNoWait));
  lm.ReleaseAll(3);
}

TEST(LockManagerTest, AcquireBatchUpgradesSharedHold) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockKey::RowOf(1, 5), LockMode::kS, kNoWait));
  std::vector<LockKey> keys = {LockKey::RowOf(1, 4), LockKey::RowOf(1, 5)};
  ASSERT_OK(lm.AcquireBatch(1, keys, LockMode::kX, kNoWait));
  EXPECT_TRUE(lm.Holds(1, LockKey::RowOf(1, 5), LockMode::kX));
  lm.ReleaseAll(1);
}

TEST(LockManagerTest, AcquireBatchDeadlockNamesVictim) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockKey::RowOf(1, 1), LockMode::kX, kNoWait));
  ASSERT_OK(lm.Acquire(2, LockKey::RowOf(1, 2), LockMode::kX, kNoWait));
  // 1 batches toward {3, 2} and blocks on 2's hold...
  auto fut = std::async(std::launch::async, [&] {
    std::vector<LockKey> keys = {LockKey::RowOf(1, 3), LockKey::RowOf(1, 2)};
    Status s = lm.AcquireBatch(1, keys, LockMode::kX, kLongWait);
    if (s.ok()) lm.ReleaseAll(1);
    return s;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // ...and 2 closing the cycle through 1's hold trips the detector: one of
  // the two is aborted, the other's wait unblocks.
  std::vector<LockKey> keys = {LockKey::RowOf(1, 1)};
  Status s2 = lm.AcquireBatch(2, keys, LockMode::kX, kLongWait);
  if (!s2.ok()) lm.ReleaseAll(2);  // unblock the other side promptly
  Status s1 = fut.get();
  EXPECT_TRUE(s1.code() == StatusCode::kAborted ||
              s2.code() == StatusCode::kAborted);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_GE(lm.stats().deadlocks.load(), 1u);
}

TEST(LockManagerTest, AcquireBatchConcurrentDisjointBatches) {
  LockManager lm;
  constexpr int kThreads = 8;
  constexpr int kBatches = 100;
  constexpr int kBatchSize = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBatches; ++i) {
        TxnId txn = static_cast<TxnId>(t * kBatches + i + 1);
        std::vector<LockKey> keys;
        for (int k = 0; k < kBatchSize; ++k) {
          keys.push_back(LockKey::RowOf(1, txn * 100 + k));
        }
        if (!lm.AcquireBatch(txn, keys, LockMode::kX, kLongWait).ok()) {
          failures.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(LockManagerTest, ManyConcurrentDisjointAcquisitions) {
  LockManager lm;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TxnId txn = static_cast<TxnId>(t * kPerThread + i + 1);
        LockKey key = LockKey::RowOf(1, txn);
        if (!lm.Acquire(txn, key, LockMode::kX, kLongWait).ok()) {
          failures.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(lm.stats().acquisitions.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace youtopia
