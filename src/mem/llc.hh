/**
 * @file
 * A set-associative last-level cache model in front of the DRAM link.
 *
 * Timing-only: the cache tracks tags, not data. A demand hit completes
 * in hit_latency_cycles; a miss allocates the line (possibly evicting
 * the replacement victim) and costs a DRAM transfer, which the
 * hierarchy coalesces across contiguous missing lines. Replacement is
 * true LRU (per-line recency stamps) or tree pseudo-LRU (one bit per
 * internal node of a binary tree over the ways). Each line remembers
 * whether a prefetch brought it in, so the hierarchy can report
 * prefetch accuracy (useful prefetches / issued prefetches) and count
 * prefetched lines evicted untouched.
 */

#ifndef EQUINOX_MEM_LLC_HH
#define EQUINOX_MEM_LLC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/mem_config.hh"

namespace equinox
{
namespace mem
{

/** Tag-only set-associative cache with LRU / tree-PLRU replacement. */
class Llc
{
  public:
    explicit Llc(const LlcConfig &config);

    ByteCount lineBytes() const { return cfg.line_bytes; }
    Tick hitLatency() const { return cfg.hit_latency_cycles; }

    /** Line present (no state change, no stats). */
    bool contains(Addr line) const;

    /**
     * Demand access to @p line.
     * @return true on hit. A miss allocates the line, evicting the
     *         replacement victim if the set is full.
     */
    bool access(Addr line);

    /**
     * Install @p line on behalf of the prefetcher. No-op (returns
     * false) if the line is already resident -- a redundant prefetch
     * must not cost a DRAM transfer nor perturb recency.
     * @return true if the line was actually installed.
     */
    bool fillPrefetch(Addr line);

    // -- statistics -----------------------------------------------------
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    std::uint64_t evictions() const { return evictions_; }
    /** Prefetched lines later touched by a demand access. */
    std::uint64_t prefetchUseful() const { return prefetch_useful_; }
    /** Prefetched lines evicted without a demand touch. */
    std::uint64_t prefetchUnused() const { return prefetch_unused_; }

  private:
    std::uint64_t setOf(Addr line) const { return line & (sets_ - 1); }

    /** Where a line stands in its set, from one pass over the ways. */
    struct Probe
    {
        bool hit;     //!< resident in `way`
        bool evict;   //!< miss in a full set: `way` is the victim
        unsigned way; //!< hit way, else the way to install into
    };

    /**
     * Find @p line in @p set, else the first free way, else the
     * replacement victim -- in a single scan. Valid ways always form a
     * prefix of the set (installs take the lowest free way and nothing
     * invalidates), so only the first used_[set] ways are searched.
     */
    Probe probe(std::uint64_t set, Addr line) const;

    /** Update replacement state after touching @p way of @p set. */
    void touch(std::uint64_t set, unsigned way);

    /** Install @p line where @p p says, counting an eviction if any. */
    void install(std::uint64_t set, const Probe &p, Addr line,
                 bool prefetched);

    LlcConfig cfg;
    std::uint64_t sets_;
    // Per-way state, set-major (sets_ * cfg.ways), one array per field
    // so an 8-way set's lines fill one host cache line. A way keeps its
    // whole line address: within a set that is as good as a tag.
    std::vector<Addr> lines_;
    std::vector<std::uint64_t> stamps_;    //!< LRU recency (higher = newer)
    std::vector<std::uint8_t> prefetched_; //!< prefetched, not yet used
    std::vector<unsigned> used_;           //!< valid ways per set
    std::vector<std::uint64_t> plru_;      //!< per-set PLRU tree bitmask
    std::uint64_t clock_ = 0;     //!< LRU stamp source

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t prefetch_useful_ = 0;
    std::uint64_t prefetch_unused_ = 0;
};

} // namespace mem
} // namespace equinox

#endif // EQUINOX_MEM_LLC_HH
