#include "mem/prefetch.hh"

#include <cassert>

namespace equinox
{
namespace mem
{

namespace
{

class NonePrefetcher : public PrefetchPolicy
{
  public:
    const char *name() const override { return "none"; }
    void
    onAccess(Addr, bool, std::vector<Addr> &) override
    {
    }
};

class NextLinePrefetcher : public PrefetchPolicy
{
  public:
    explicit NextLinePrefetcher(unsigned degree_) : degree(degree_) {}

    const char *name() const override { return "next_line"; }

    void
    onAccess(Addr line, bool hit, std::vector<Addr> &out) override
    {
        if (hit)
            return;
        for (unsigned d = 1; d <= degree; ++d)
            out.push_back(line + d);
    }

  private:
    unsigned degree;
};

} // namespace

std::unique_ptr<PrefetchPolicy>
makePrefetchPolicy(const PrefetchConfig &cfg)
{
    switch (cfg.kind) {
      case PrefetchKind::None:
        return std::make_unique<NonePrefetcher>();
      case PrefetchKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(cfg.degree);
      case PrefetchKind::Dcpt:
        return std::make_unique<DcptPrefetcher>(cfg);
    }
    return std::make_unique<NonePrefetcher>();
}

DcptPrefetcher::DcptPrefetcher(const PrefetchConfig &config)
    : cfg(config), table(config.dcpt_entries)
{
    assert(cfg.dcpt_entries > 0 && cfg.dcpt_deltas >= 2);
}

std::int64_t
DcptPrefetcher::Entry::deltaAt(unsigned newest_minus) const
{
    // deltaAt(0) is the newest delta, deltaAt(1) the one before it...
    // head < size and newest_minus < count <= size, so the raw index
    // is below 2 * size and one subtraction wraps it.
    assert(newest_minus < count);
    unsigned size = static_cast<unsigned>(deltas.size());
    unsigned i = head + size - 1 - newest_minus;
    return deltas[i >= size ? i - size : i];
}

DcptPrefetcher::Entry &
DcptPrefetcher::entryFor(Addr region)
{
    // A region lives in at most one valid entry and entries are never
    // invalidated, so the entry that served the previous access still
    // holds its region: a stream inside one region skips the scan.
    Entry &last = table[mru_];
    if (last.valid && last.region == region) {
        last.lru = ++clock_;
        return last;
    }
    return scanFor(region);
}

DcptPrefetcher::Entry &
DcptPrefetcher::scanFor(Addr region)
{
    Entry *victim = nullptr;
    for (auto &e : table) {
        if (e.valid && e.region == region) {
            e.lru = ++clock_;
            mru_ = static_cast<std::size_t>(&e - table.data());
            return e;
        }
        if (!victim || (!e.valid && victim->valid) ||
            (e.valid == victim->valid && e.lru < victim->lru)) {
            victim = &e;
        }
    }
    // Miss: repurpose the first invalid (else least-recently-used)
    // entry for this region.
    victim->valid = true;
    victim->region = region;
    victim->seeded = false;
    victim->last_line = 0;
    victim->deltas.assign(cfg.dcpt_deltas, 0);
    victim->head = 0;
    victim->count = 0;
    victim->lru = ++clock_;
    mru_ = static_cast<std::size_t>(victim - table.data());
    return *victim;
}

void
DcptPrefetcher::onAccess(Addr line, bool, std::vector<Addr> &out)
{
    Entry &e = entryFor(regionOf(line));
    if (!e.seeded) {
        // First access in the region: establish the stream head; a
        // delta needs two accesses.
        e.seeded = true;
        e.last_line = line;
        return;
    }
    std::int64_t delta = static_cast<std::int64_t>(line) -
                         static_cast<std::int64_t>(e.last_line);
    e.last_line = line;
    if (delta == 0)
        return; // the same line again: nothing to learn or predict

    unsigned size = static_cast<unsigned>(e.deltas.size());
    e.deltas[e.head] = delta;
    if (++e.head == size)
        e.head = 0;
    if (e.count < size)
        ++e.count;
    if (e.count < 3)
        return; // a pair plus at least one earlier delta to match

    // Correlate: find the most recent EARLIER occurrence of the
    // (second-newest, newest) delta pair, then replay the deltas that
    // followed that occurrence as the prediction.
    std::int64_t d0 = e.deltaAt(0);
    std::int64_t d1 = e.deltaAt(1);
    for (unsigned back = 2; back < e.count; ++back) {
        if (e.deltaAt(back) != d1 ||
            e.deltaAt(back - 1) != d0) {
            continue;
        }
        // The deltas after the matched pair sit at newest_minus =
        // back-2 down to 1 (0 and the pair itself are the present);
        // replay them chronologically, cycling through the matched
        // window when the degree outruns the recorded history (pure
        // strides replay d0 forever this way).
        Addr predicted = line;
        unsigned i = back - 1;
        for (unsigned emitted = 0; emitted < cfg.degree; ++emitted) {
            i = (i == 0) ? back - 2 : i - 1;
            predicted = static_cast<Addr>(
                static_cast<std::int64_t>(predicted) + e.deltaAt(i));
            out.push_back(predicted);
        }
        return;
    }
}

std::size_t
DcptPrefetcher::liveEntries() const
{
    std::size_t n = 0;
    for (const auto &e : table)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace mem
} // namespace equinox
