/**
 * @file
 * A plain snapshot of the memory hierarchy's counters, taken once per
 * run and carried in SimResult's diagnostics section. Deliberately a
 * dumb aggregate: the digest fold must never see these fields, and
 * core::addLoadPoint exports them as they are, so the struct has no
 * behaviour beyond two derived ratios.
 */

#ifndef EQUINOX_MEM_MEM_STATS_HH
#define EQUINOX_MEM_MEM_STATS_HH

#include <cstdint>

#include "common/types.hh"

namespace equinox
{
namespace mem
{

/** Run-total counters of one MemoryHierarchy (all zero in passthrough). */
struct MemStats
{
    /** A non-passthrough hierarchy was active this run. */
    bool active = false;

    // -- front-door traffic ---------------------------------------------
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    ByteCount read_bytes = 0;
    ByteCount write_bytes = 0;
    /** Transfers actually issued to the DRAM link (after filtering). */
    std::uint64_t dram_transfers = 0;

    // -- LLC -------------------------------------------------------------
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t llc_evictions = 0;

    // -- prefetch ---------------------------------------------------------
    std::uint64_t prefetch_issued = 0;
    std::uint64_t prefetch_useful = 0;
    std::uint64_t prefetch_unused = 0;

    // -- scratchpad --------------------------------------------------------
    std::uint64_t sp_fills = 0;
    std::uint64_t sp_drains = 0;
    std::uint64_t sp_bank_switches = 0;
    std::uint64_t sp_fill_stalls = 0;
    ByteCount sp_bytes_filled = 0;
    ByteCount sp_bytes_drained = 0;
    ByteCount sp_high_water = 0;

    // -- write-combining buffer -------------------------------------------
    std::uint64_t wb_writes = 0;
    std::uint64_t wb_combines = 0;
    std::uint64_t wb_drains = 0;
    ByteCount wb_bytes_in = 0;
    ByteCount wb_bytes_drained = 0;
    ByteCount wb_occupancy = 0;

    /** Demand hit rate over all LLC accesses (0 when no accesses). */
    double
    hitRate() const
    {
        std::uint64_t total = llc_hits + llc_misses;
        return total ? static_cast<double>(llc_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Useful prefetches / issued prefetches (0 when none issued). */
    double
    prefetchAccuracy() const
    {
        return prefetch_issued
                   ? static_cast<double>(prefetch_useful) /
                         static_cast<double>(prefetch_issued)
                   : 0.0;
    }
};

} // namespace mem
} // namespace equinox

#endif // EQUINOX_MEM_MEM_STATS_HH
