/**
 * @file
 * Unit tests for src/common: units, RNG determinism and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace equinox
{
namespace
{

TEST(Units, FrequencyHelpers)
{
    EXPECT_DOUBLE_EQ(units::MHz(532), 532e6);
    EXPECT_DOUBLE_EQ(units::GHz(2.4), 2.4e9);
}

TEST(Units, CapacityHelpers)
{
    EXPECT_EQ(units::KiB(32), 32ull * 1024);
    EXPECT_EQ(units::MiB(75), 75ull * 1024 * 1024);
    EXPECT_EQ(units::GiB(1), 1ull << 30);
}

TEST(Units, SecondsToCyclesRoundsUp)
{
    // 1.5 cycles at 1 Hz -> 2 cycles.
    EXPECT_EQ(units::secondsToCycles(1.5, 1.0), 2u);
    EXPECT_EQ(units::secondsToCycles(2.0, 1.0), 2u);
    // 500 us at 610 MHz = 305000 cycles exactly.
    EXPECT_EQ(units::secondsToCycles(units::us(500), units::MHz(610)),
              305000u);
}

TEST(Units, SecondsToCyclesSaturates)
{
    constexpr Tick kMax = std::numeric_limits<Tick>::max();
    // 2^64 cycles and beyond do not fit: saturate, never wrap.
    EXPECT_EQ(units::secondsToCycles(0x1p64, 1.0), kMax);
    EXPECT_EQ(units::secondsToCycles(1e300, units::MHz(610)), kMax);
    EXPECT_EQ(units::secondsToCycles(
                  std::numeric_limits<double>::infinity(), 1.0),
              kMax);
    EXPECT_EQ(units::secondsToCycles(
                  std::numeric_limits<double>::quiet_NaN(), 1.0),
              kMax);
    // The largest double below 2^64 still converts exactly.
    EXPECT_EQ(units::secondsToCycles(0x1p64 - 2048.0, 1.0),
              kMax - 2047u);
}

TEST(Units, SaturatingAddNeverWraps)
{
    EXPECT_EQ(saturatingAdd(2, 3), 5u);
    EXPECT_EQ(saturatingAdd(kTickMax - 1, 1), kTickMax);
    EXPECT_EQ(saturatingAdd(kTickMax - 1, 2), kTickMax);
    EXPECT_EQ(saturatingAdd(5, kTickMax), kTickMax);
    EXPECT_EQ(saturatingAdd(kTickMax, kTickMax), kTickMax);
}

TEST(Units, CyclesToSecondsInvertsWholeCycles)
{
    double f = units::MHz(532);
    for (Tick c : {Tick{1}, Tick{1000}, Tick{123456789}}) {
        EXPECT_EQ(units::secondsToCycles(units::cyclesToSeconds(c, f), f),
                  c);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(99);
    const double rate = 4.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    double mean = sum / n;
    EXPECT_NEAR(mean, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(3.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ForkIndependence)
{
    Rng a(1);
    Rng c = a.fork();
    // Forked stream differs from parent's subsequent output.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == c.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

} // namespace
} // namespace equinox
