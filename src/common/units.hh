/**
 * @file
 * Physical-unit helpers used by the analytical models and the simulator.
 *
 * Conventions: areas in mm^2, power in W, energy in J, frequency in Hz,
 * capacities in bytes, bandwidth in bytes/second, times in seconds unless a
 * suffix says otherwise.
 */

#ifndef EQUINOX_COMMON_UNITS_HH
#define EQUINOX_COMMON_UNITS_HH

#include <cstdint>
#include <limits>

namespace equinox
{
namespace units
{

constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;
constexpr double kTera = 1e12;

constexpr double kMilli = 1e-3;
constexpr double kMicro = 1e-6;
constexpr double kNano = 1e-9;
constexpr double kPico = 1e-12;

/** Frequency helpers. */
constexpr double MHz(double v) { return v * kMega; }
constexpr double GHz(double v) { return v * kGiga; }

/** Capacity helpers (binary). */
constexpr std::uint64_t KiB(std::uint64_t v) { return v << 10; }
constexpr std::uint64_t MiB(std::uint64_t v) { return v << 20; }
constexpr std::uint64_t GiB(std::uint64_t v) { return v << 30; }

/** Bandwidth helpers (decimal, as marketed). */
constexpr double GBps(double v) { return v * kGiga; }
constexpr double TBps(double v) { return v * kTera; }

/** Time helpers. */
constexpr double us(double v) { return v * kMicro; }
constexpr double ms(double v) { return v * kMilli; }
constexpr double ns(double v) { return v * kNano; }

/** Energy helpers. */
constexpr double pJ(double v) { return v * kPico; }

/** Throughput helpers. */
constexpr double TOps(double v) { return v * kTera; }

/**
 * Convert seconds to cycles at frequency_hz (rounded up). A count that
 * does not fit in 64 bits (including +inf and NaN) saturates at the
 * largest value instead of hitting an undefined cast.
 */
constexpr std::uint64_t
secondsToCycles(double seconds, double frequency_hz)
{
    double cycles = seconds * frequency_hz;
    if (!(cycles < 0x1p64))
        return std::numeric_limits<std::uint64_t>::max();
    auto whole = static_cast<std::uint64_t>(cycles);
    return (static_cast<double>(whole) < cycles) ? whole + 1 : whole;
}

/** Convert cycles at frequency_hz back to seconds. */
constexpr double
cyclesToSeconds(std::uint64_t cycles, double frequency_hz)
{
    return static_cast<double>(cycles) / frequency_hz;
}

} // namespace units
} // namespace equinox

#endif // EQUINOX_COMMON_UNITS_HH
