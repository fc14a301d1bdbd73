/**
 * @file
 * Pluggable prefetch policies for the memory hierarchy. A policy
 * observes the demand line-address stream and proposes candidate lines;
 * the hierarchy filters already-resident lines, charges a low-priority
 * DRAM transfer per accepted candidate, and installs them into the LLC
 * tagged as prefetched so accuracy (useful / issued) is measurable.
 *
 * Three policies ship:
 *  - none:      demand misses only (the measurement baseline)
 *  - next_line: the classic sequential prefetcher -- on every miss,
 *               fetch the next `degree` lines
 *  - dcpt:      a delta-correlating prediction table (Grannaes et al.):
 *               per-region entries record the recent history of address
 *               deltas; when the two most recent deltas reappear
 *               earlier in the history, the deltas that followed them
 *               are replayed to predict the next addresses. Covers
 *               strided and repeating multi-stride patterns that
 *               next-line misses.
 */

#ifndef EQUINOX_MEM_PREFETCH_HH
#define EQUINOX_MEM_PREFETCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/mem_config.hh"

namespace equinox
{
namespace mem
{

/** Observes demand accesses, proposes candidate lines to prefetch. */
class PrefetchPolicy
{
  public:
    virtual ~PrefetchPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * A demand access to @p line just resolved (@p hit says how).
     * Append candidate LINE addresses to @p out -- at most the
     * configured degree; duplicates and resident lines are filtered by
     * the caller.
     */
    virtual void onAccess(Addr line, bool hit,
                          std::vector<Addr> &out) = 0;
};

/** Build the configured policy (never null; None for kind == None). */
std::unique_ptr<PrefetchPolicy> makePrefetchPolicy(
    const PrefetchConfig &cfg);

/**
 * The delta-correlating prediction table, exposed concretely so the
 * property suite can pin its table behaviour (entry reuse, delta
 * matching, replay bounds) directly.
 */
class DcptPrefetcher : public PrefetchPolicy
{
  public:
    explicit DcptPrefetcher(const PrefetchConfig &cfg);

    const char *name() const override { return "dcpt"; }
    void onAccess(Addr line, bool hit, std::vector<Addr> &out) override;

    /** Table entries currently tracking a region (for tests). */
    std::size_t liveEntries() const;

  private:
    struct Entry
    {
        bool valid = false;
        bool seeded = false; //!< saw the first access (no delta yet)
        Addr region = 0;    //!< which region this entry tracks
        Addr last_line = 0; //!< previous line accessed in the region
        std::vector<std::int64_t> deltas; //!< ring, newest at head-1
        unsigned head = 0;  //!< ring write position
        unsigned count = 0; //!< live deltas in the ring
        std::uint64_t lru = 0;

        std::int64_t deltaAt(unsigned newest_minus) const;
    };

    /** Region an address belongs to: one table entry per region. */
    Addr regionOf(Addr line) const { return line >> kRegionShift; }

    /** The entry tracking @p region (the last one used, else scanFor). */
    Entry &entryFor(Addr region);

    /** Find @p region's entry in the table, else recycle one for it. */
    Entry &scanFor(Addr region);

    static constexpr unsigned kRegionShift = 6; //!< 64 lines per region

    PrefetchConfig cfg;
    std::vector<Entry> table;
    std::size_t mru_ = 0; //!< the entry that served the last access
    std::uint64_t clock_ = 0;
};

} // namespace mem
} // namespace equinox

#endif // EQUINOX_MEM_PREFETCH_HH
