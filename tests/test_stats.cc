/**
 * @file
 * Unit tests for src/stats: percentile tracking, sliding-window
 * percentiles, cycle breakdowns and table formatting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>

#include "common/random.hh"
#include "stats/cycle_breakdown.hh"
#include "stats/histogram.hh"
#include "stats/sliding_window.hh"
#include "stats/table.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(LatencyTracker, EmptyIsZero)
{
    LatencyTracker t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.99), 0.0);
}

TEST(LatencyTracker, SingleSample)
{
    LatencyTracker t;
    t.record(7.0);
    EXPECT_DOUBLE_EQ(t.mean(), 7.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(t.min(), 7.0);
    EXPECT_DOUBLE_EQ(t.max(), 7.0);
}

TEST(LatencyTracker, ExactPercentiles)
{
    LatencyTracker t;
    // 1..100 shuffled: p-quantiles are exactly computable.
    Rng rng(3);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(0, i - 1)]);
    for (double x : v)
        t.record(x);

    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 100.0);
    // median of 1..100 with linear interpolation: 50.5
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 50.5);
    // p99 of 1..100: rank 98.01 -> 99.01
    EXPECT_NEAR(t.percentile(0.99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(LatencyTracker, PercentileMonotoneInP)
{
    LatencyTracker t;
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        t.record(rng.exponential(1.0));
    double prev = -1.0;
    for (double p = 0.0; p <= 1.0; p += 0.05) {
        double q = t.percentile(p);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

TEST(LatencyTracker, EmptyMinMaxAndBoundaryQuantilesAreZero)
{
    LatencyTracker t;
    EXPECT_DOUBLE_EQ(t.min(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 0.0);
}

TEST(LatencyTracker, RejectsNaNSamples)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(std::nan(""));
    t.record(3.0);
    // The poisoned sample is counted, not stored: every statistic stays
    // finite and the strict weak ordering std::sort needs survives.
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.nanRejected(), 1u);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 3.0);
    t.reset();
    EXPECT_EQ(t.nanRejected(), 0u);
    EXPECT_EQ(t.count(), 0u);
}

TEST(LatencyTracker, InfiniteSamplesAreOrderedNormally)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(t.count(), 2u);
    EXPECT_TRUE(std::isinf(t.max()));
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
}

TEST(LatencyTrackerDeath, OutOfRangeQuantileIsFatal)
{
    LatencyTracker t;
    t.record(1.0);
    EXPECT_DEATH(t.percentile(1.5), "quantile out of range");
    EXPECT_DEATH(t.percentile(-0.1), "quantile out of range");
    // A NaN p fails the same range check instead of indexing garbage.
    EXPECT_DEATH(t.percentile(std::nan("")), "quantile out of range");
}

TEST(SlidingWindow, EmptyIsZeroAndNewestTracksLastPush)
{
    SlidingWindow w(3);
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.percentile(0.99), 0.0);
    EXPECT_EQ(w.newest(), 0.0);
    for (double x : {5.0, 1.0, 4.0, 2.0}) {
        w.push(x);
        EXPECT_EQ(w.newest(), x);
    }
    EXPECT_EQ(w.size(), 3u); // 5.0 left the window
    EXPECT_EQ(w.percentile(0.0), 1.0);
    EXPECT_EQ(w.percentile(1.0), 4.0);
}

TEST(SlidingWindow, PercentileIsBitwiseTrackerOverTheLastWindowSamples)
{
    // Seeded push streams drawn mostly from a small pool, so the
    // window is full of exact ties, repeats and +inf. After every push
    // each quantile must be bit-for-bit what a LatencyTracker built
    // from the same last `window` samples reports.
    const double inf = std::numeric_limits<double>::infinity();
    const double pool[] = {0.5, 1.0, 2.0, 2.0, 3.25, 1e6, inf};
    const std::size_t pool_n = sizeof(pool) / sizeof(pool[0]);
    Rng rng(20261017);
    for (std::size_t window : {1u, 2u, 3u, 64u, 256u}) {
        SlidingWindow w(window);
        std::deque<double> shadow;
        for (std::size_t i = 0; i < 3 * window + 64; ++i) {
            double x = rng.uniform() < 0.8
                           ? pool[rng.uniformInt(0, pool_n - 1)]
                           : static_cast<double>(rng.uniformInt(0, 9));
            w.push(x);
            shadow.push_back(x);
            if (shadow.size() > window)
                shadow.pop_front();

            LatencyTracker tracker;
            for (double s : shadow)
                tracker.record(s);
            ASSERT_EQ(w.size(), shadow.size());
            ASSERT_EQ(w.newest(), x);
            for (double p : {0.0, 0.5, 0.99, 1.0}) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(w.percentile(p)),
                          std::bit_cast<std::uint64_t>(
                              tracker.percentile(p)))
                    << "window " << window << " push " << i << " p "
                    << p;
            }
        }
    }
}

TEST(SlidingWindowDeath, NaNAndZeroLengthAreFatal)
{
    SlidingWindow w(4);
    w.push(1.0);
    // NaN has no place in the sorted order the binary searches use.
    EXPECT_DEATH(w.push(std::nan("")), "NaN pushed into a sliding window");
    EXPECT_DEATH(SlidingWindow(0), "nonzero length");
    EXPECT_DEATH(w.percentile(1.5), "quantile out of range");
}

TEST(LatencyTracker, RecordAfterQueryStaysCorrect)
{
    LatencyTracker t;
    t.record(10.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 10.0);
    t.record(20.0);
    t.record(0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(t.max(), 20.0);
}

TEST(CycleBreakdown, FractionsSumToOne)
{
    CycleBreakdown b;
    b.add(CycleClass::Working, 60.0);
    b.add(CycleClass::Dummy, 25.0);
    b.add(CycleClass::Idle, 10.0);
    b.add(CycleClass::Other, 5.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    double sum = 0.0;
    for (auto c : {CycleClass::Working, CycleClass::Dummy, CycleClass::Idle,
                   CycleClass::Other})
        sum += b.fraction(c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(b.fraction(CycleClass::Working), 0.6);
}

TEST(CycleBreakdown, MergeAccumulates)
{
    CycleBreakdown a, b;
    a.add(CycleClass::Working, 10.0);
    b.add(CycleClass::Idle, 30.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.get(CycleClass::Working), 10.0);
    EXPECT_DOUBLE_EQ(a.get(CycleClass::Idle), 30.0);
    EXPECT_DOUBLE_EQ(a.total(), 40.0);
}

TEST(CycleBreakdown, EmptyFractionsZero)
{
    CycleBreakdown b;
    EXPECT_DOUBLE_EQ(b.fraction(CycleClass::Idle), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"b", "12345"});
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("12345"), std::string::npos);
    // All lines equally wide.
    std::istringstream lines(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(lines, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(LatencyTrackerMerge, ExactlyEqualsConcatenation)
{
    // Merged percentiles must be order statistics of the concatenated
    // sample sets -- bit-for-bit what record()ing every sample into one
    // tracker yields, never a recombination of the parts' quantiles.
    Rng rng(7);
    LatencyTracker a, b, concat;
    for (int i = 0; i < 257; ++i) {
        double s = rng.exponential(0.01);
        a.record(s);
        concat.record(s);
    }
    for (int i = 0; i < 63; ++i) {
        double s = rng.exponential(0.1);
        b.record(s);
        concat.record(s);
    }
    a.merge(b);
    ASSERT_EQ(a.count(), concat.count());
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.percentile(p), concat.percentile(p)) << "p" << p;
    EXPECT_EQ(a.min(), concat.min());
    EXPECT_EQ(a.max(), concat.max());
    EXPECT_DOUBLE_EQ(a.mean(), concat.mean());
}

TEST(LatencyTrackerMerge, EmptyContributorCannotPoisonTheMean)
{
    // The zero-weight-neighbour class of bug (PR 4): combining parts
    // via weighted means multiplies an empty part's 0 count into its
    // mean -- 0 * (0/0) = NaN -- and one empty replica would poison the
    // fleet. merge() adds raw sums instead, so an empty contributor is
    // exactly a no-op.
    LatencyTracker full, empty;
    full.record(10.0);
    full.record(30.0);
    full.merge(empty);
    EXPECT_EQ(full.count(), 2u);
    EXPECT_DOUBLE_EQ(full.mean(), 20.0);
    EXPECT_DOUBLE_EQ(full.percentile(0.5), 20.0);

    // Merging INTO an empty tracker is a plain copy of the samples.
    empty.merge(full);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 20.0);

    // Both empty stays empty (and every statistic stays finite).
    LatencyTracker e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.count(), 0u);
    EXPECT_DOUBLE_EQ(e1.mean(), 0.0);
    EXPECT_DOUBLE_EQ(e1.percentile(0.99), 0.0);
}

TEST(LatencyTrackerMerge, InfiniteSamplesMergeAsOrderedValues)
{
    LatencyTracker a, b;
    a.record(1.0);
    b.record(std::numeric_limits<double>::infinity());
    b.record(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_TRUE(std::isinf(a.max()));
    EXPECT_TRUE(std::isinf(a.percentile(1.0)));
    EXPECT_DOUBLE_EQ(a.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 2.0);
}

TEST(LatencyTrackerMerge, CarriesNanRejectionCounts)
{
    LatencyTracker a, b;
    a.record(std::nan(""));
    a.record(1.0);
    b.record(std::nan(""));
    b.record(std::nan(""));
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.nanRejected(), 3u);
}

TEST(LatencyTrackerMerge, SelfMergeDoublesTheSamples)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(3.0);
    t.merge(t);
    EXPECT_EQ(t.count(), 4u);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 3.0);
}

TEST(LatencyTrackerMerge, MergeAfterQueryStaysSorted)
{
    // merge() appends to a lazily-sorted buffer; a query between
    // merges must not freeze a stale sort.
    LatencyTracker a, b;
    a.record(10.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 10.0); // sorts a
    b.record(0.0);
    b.record(20.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 10.0);
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: fault-statistics merge tests (the cluster result merge).

#include "stats/fault_stats.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(FaultStatsMerge, AccumulatesEveryCounter)
{
    FaultStats a, b;
    a.dram_corrected = 1;
    a.mmu_hangs = 2;
    a.watchdog_resets = 1;
    a.downtime_cycles = 100;
    a.recovery_cycles.record(50.0);

    b.dram_corrected = 10;
    b.dram_uncorrectable = 3;
    b.host_drops = 4;
    b.host_corruptions = 5;
    b.mmu_hangs = 6;
    b.host_retries = 7;
    b.host_give_ups = 8;
    b.watchdog_resets = 9;
    b.checkpoints_written = 10;
    b.rollbacks = 11;
    b.lost_training_iterations = 12;
    b.shed_requests = 13;
    b.storms_entered = 14;
    b.downtime_cycles = 900;
    b.recovery_cycles.record(150.0);

    a.merge(b);
    EXPECT_EQ(a.dram_corrected, 11u);
    EXPECT_EQ(a.dram_uncorrectable, 3u);
    EXPECT_EQ(a.host_drops, 4u);
    EXPECT_EQ(a.host_corruptions, 5u);
    EXPECT_EQ(a.mmu_hangs, 8u);
    EXPECT_EQ(a.host_retries, 7u);
    EXPECT_EQ(a.host_give_ups, 8u);
    EXPECT_EQ(a.watchdog_resets, 10u);
    EXPECT_EQ(a.checkpoints_written, 10u);
    EXPECT_EQ(a.rollbacks, 11u);
    EXPECT_EQ(a.lost_training_iterations, 12u);
    EXPECT_EQ(a.shed_requests, 13u);
    EXPECT_EQ(a.storms_entered, 14u);
    EXPECT_EQ(a.downtime_cycles, 1000u);
    EXPECT_EQ(a.recovery_cycles.count(), 2u);
    EXPECT_DOUBLE_EQ(a.recovery_cycles.mean(), 100.0);
    EXPECT_EQ(a.totalFaults(), b.totalFaults() + 1 + 2);
}

TEST(FaultStatsMerge, MergingZeroRecordIsANoOp)
{
    FaultStats a, zero;
    a.mmu_hangs = 3;
    a.downtime_cycles = 70;
    a.recovery_cycles.record(10.0);
    a.merge(zero);
    EXPECT_EQ(a.mmu_hangs, 3u);
    EXPECT_EQ(a.downtime_cycles, 70u);
    EXPECT_EQ(a.recovery_cycles.count(), 1u);
    EXPECT_DOUBLE_EQ(a.recovery_cycles.mean(), 10.0);
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: empty / single-sample merge regression pins (the
// overload-resilience PR folds these trackers into cluster digests, so
// the merged bit patterns must stay exactly stable).

#include "stats/fault_stats.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(LatencyTrackerMerge, SingleSampleIntoEmptyPinsBitwise)
{
    // One sample through a merge must come out bit-identical: count 1,
    // mean/min/max/percentiles exactly the recorded double.
    const double sample = 0.12345678901234567;
    LatencyTracker src;
    src.record(sample);

    LatencyTracker dst;
    dst.merge(src);
    EXPECT_EQ(dst.count(), 1u);
    EXPECT_EQ(dst.mean(), sample);
    EXPECT_EQ(dst.min(), sample);
    EXPECT_EQ(dst.max(), sample);
    for (double p : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(dst.percentile(p), sample) << "p" << p;

    // And the mirror image: empty merged into single-sample.
    LatencyTracker single;
    single.record(sample);
    single.merge(LatencyTracker{});
    EXPECT_EQ(single.count(), 1u);
    EXPECT_EQ(single.mean(), sample);
    EXPECT_EQ(single.percentile(0.5), sample);
}

TEST(LatencyTrackerMerge, TwoSingleSamplesInterpolateExactly)
{
    // The interpolated order statistic over {1.0, 3.0} is pinned: p50
    // sits exactly halfway, p0/p100 on the samples themselves.
    LatencyTracker a, b;
    a.record(1.0);
    b.record(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.percentile(0.0), 1.0);
    EXPECT_EQ(a.percentile(1.0), 3.0);
    EXPECT_EQ(a.percentile(0.5), 2.0);
    EXPECT_EQ(a.mean(), 2.0);
}

TEST(FaultStatsMerge, SingleSampleRecoveryTrackerSurvivesMergeChain)
{
    // empty <- single <- empty must leave the one recovery sample (and
    // every counter) bitwise intact through the whole chain.
    const double cycles = 12345.6789;
    FaultStats single;
    single.mmu_hangs = 1;
    single.recovery_cycles.record(cycles);

    FaultStats acc;
    acc.merge(FaultStats{});
    acc.merge(single);
    acc.merge(FaultStats{});
    EXPECT_EQ(acc.mmu_hangs, 1u);
    EXPECT_EQ(acc.totalFaults(), 1u);
    EXPECT_EQ(acc.recovery_cycles.count(), 1u);
    EXPECT_EQ(acc.recovery_cycles.mean(), cycles);
    EXPECT_EQ(acc.recovery_cycles.percentile(0.99), cycles);

    // Both-empty merge stays a true zero record.
    FaultStats e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.totalFaults(), 0u);
    EXPECT_EQ(e1.downtime_cycles, 0u);
    EXPECT_EQ(e1.recovery_cycles.count(), 0u);
    EXPECT_EQ(e1.recovery_cycles.mean(), 0.0);
}

} // namespace
} // namespace stats
} // namespace equinox
