/**
 * @file
 * Fundamental scalar types shared across the Equinox libraries.
 *
 * The simulator operates in the accelerator clock domain: one Tick is one
 * accelerator cycle. Wall-clock quantities (request arrival times, DRAM
 * latencies) are converted into cycles at the simulated design frequency.
 */

#ifndef EQUINOX_COMMON_TYPES_HH
#define EQUINOX_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace equinox
{

/** One accelerator clock cycle. */
using Tick = std::uint64_t;

/** Sentinel for "never" / "not yet scheduled". */
constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** @p a + @p b, saturated at kTickMax ("never") instead of wrapping. */
constexpr Tick
saturatingAdd(Tick a, Tick b)
{
    return b > kTickMax - a ? kTickMax : a + b;
}

/** Identifier of an installed service (hardware context). */
using ContextId = std::uint32_t;

/** Identifier of a single client request. */
using RequestId = std::uint64_t;

/** Identifier of an in-flight instruction. */
using InstId = std::uint64_t;

/** Number of multiply-accumulate operations, counted as 2 Ops each. */
using OpCount = std::uint64_t;

/** Bytes moved across an interface. */
using ByteCount = std::uint64_t;

} // namespace equinox

#endif // EQUINOX_COMMON_TYPES_HH
