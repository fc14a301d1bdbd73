#include "mem/llc.hh"

#include <cassert>

namespace equinox
{
namespace mem
{

Llc::Llc(const LlcConfig &config)
    : cfg(config), sets_(config.sets()),
      lines_(static_cast<std::size_t>(config.sets()) * config.ways),
      stamps_(lines_.size(), 0), prefetched_(lines_.size(), 0),
      used_(config.sets(), 0), plru_(config.sets(), 0)
{
    assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0);
}

Llc::Probe
Llc::probe(std::uint64_t set, Addr line) const
{
    const Addr *lines = &lines_[set * cfg.ways];
    const std::uint64_t *stamps = &stamps_[set * cfg.ways];
    unsigned used = used_[set];
    unsigned lru = 0;
    for (unsigned w = 0; w < used; ++w) {
        if (lines[w] == line)
            return {true, false, w};
        // LRU victim: the oldest stamp, lowest way on a tie.
        if (stamps[w] < stamps[lru])
            lru = w;
    }
    if (used < cfg.ways)
        return {false, false, used};
    if (cfg.replacement == Replacement::Lru)
        return {false, true, lru};
    // Tree-PLRU: walk the binary tree from the root, following each
    // node's bit (0 = go left, 1 = go right) to the pseudo-least-
    // recently-used leaf. Nodes are heap-indexed from 1; the bitmask
    // holds one bit per internal node.
    std::uint64_t bits = plru_[set];
    unsigned node = 1;
    while (node < cfg.ways)
        node = 2 * node + ((bits >> node) & 1);
    return {false, true, node - cfg.ways};
}

void
Llc::touch(std::uint64_t set, unsigned way)
{
    stamps_[set * cfg.ways + way] = ++clock_;
    if (cfg.replacement == Replacement::PseudoLru) {
        // Flip each node on the root-to-leaf path to point AWAY from
        // the touched way.
        std::uint64_t bits = plru_[set];
        unsigned node = way + cfg.ways;
        while (node > 1) {
            unsigned parent = node / 2;
            std::uint64_t away = (node & 1) ? 0 : 1; // we are the
                                                     // right child
                                                     // iff node is odd
            bits = (bits & ~(std::uint64_t{1} << parent)) |
                   (away << parent);
            node = parent;
        }
        plru_[set] = bits;
    }
}

void
Llc::install(std::uint64_t set, const Probe &p, Addr line, bool prefetched)
{
    std::size_t i = set * cfg.ways + p.way;
    if (p.evict) {
        prefetch_unused_ += prefetched_[i];
        ++evictions_;
    } else {
        ++used_[set];
    }
    lines_[i] = line;
    prefetched_[i] = prefetched;
    touch(set, p.way);
}

bool
Llc::contains(Addr line) const
{
    return probe(setOf(line), line).hit;
}

bool
Llc::access(Addr line)
{
    std::uint64_t set = setOf(line);
    Probe p = probe(set, line);
    if (p.hit) {
        ++hits_;
        std::uint8_t &pf = prefetched_[set * cfg.ways + p.way];
        prefetch_useful_ += pf;
        pf = 0;
        touch(set, p.way);
        return true;
    }
    ++misses_;
    install(set, p, line, false);
    return false;
}

bool
Llc::fillPrefetch(Addr line)
{
    std::uint64_t set = setOf(line);
    Probe p = probe(set, line);
    if (p.hit)
        return false;
    install(set, p, line, true);
    return true;
}

} // namespace mem
} // namespace equinox
