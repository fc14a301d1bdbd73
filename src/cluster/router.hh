/**
 * @file
 * The cluster front-end's building blocks: the global inference
 * arrival stream, the routing result, and the one ranking routine the
 * FleetRouter (cluster/fleet.hh) runs at both of its tiers.
 *
 * The global stream is sim::ArrivalStream's stream 0, the one an
 * accelerator's service 0 draws, so a 1-replica cluster hands its only
 * replica the very ticks a stochastic single-accelerator run would
 * have drawn, and the replica run is byte-identical to it
 * (tests/test_cluster_differential.cc).
 *
 * Routing decisions are causal: they read only the router's own
 * ReplicaEstimator state, never the replica simulations, so the
 * replicas stay independent and can run one-per-worker.
 */

#ifndef EQUINOX_CLUSTER_ROUTER_HH
#define EQUINOX_CLUSTER_ROUTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/routing_policy.hh"
#include "common/types.hh"

namespace equinox
{
namespace cluster
{

/** Returned by FleetRouter::pick when no healthy replica exists. */
constexpr std::size_t kNoReplica = static_cast<std::size_t>(-1);

/** One planned replica outage, in absolute ticks [from, to). */
struct RouterOutage
{
    std::size_t replica = 0;
    Tick from = 0;
    Tick to = 0;
};

/** One arrival-rate surge window, in absolute ticks [from, to). */
struct RouterSurge
{
    Tick from = 0;
    Tick to = 0;
    /** Arrival-rate multiplier inside the window (> 1). */
    double factor = 1.0;
};

/**
 * Draw the global candidate tick stream for one run: stream 0 of
 * @p seed (sim::ArrivalStream) at @p rate_per_cycle, up to and
 * including the first candidate past @p max_ticks. With surge windows
 * the stream is drawn at the peak rate (base x max factor) and thinned
 * against the instantaneous rate with uniforms from the same stream,
 * so candidates inside a window arrive factor-times denser.
 */
std::vector<Tick> generateCandidateTicks(
    double rate_per_cycle, std::uint64_t seed, Tick max_ticks,
    const std::vector<RouterSurge> &surges = {});

/** Everything one routing pass produces. */
struct RouterResult
{
    /** Per-replica candidate arrival ticks (feed RunSpec traces). */
    std::vector<std::vector<Tick>> traces;
    /** Candidates assigned per replica (== traces[r].size()). */
    std::vector<std::uint64_t> assigned;
    /** Candidates drawn from the global arrival process. */
    std::uint64_t generated = 0;
    /** Candidates dropped because every replica was down. */
    std::uint64_t shed = 0;
    /** Candidates whose first-choice replica was down (re-routed). */
    std::uint64_t rerouted = 0;
};

/**
 * What one ranking scan decides: the pick (kNoReplica when nothing is
 * available), the choice a health-blind router would have made, and
 * the round-robin cursor to keep for the next scan.
 */
struct RankedPick
{
    std::size_t pick = kNoReplica;
    std::size_t blind = kNoReplica;
    std::size_t cursor = 0;

    /** True when health moved the candidate off the blind choice. */
    bool
    rerouted() const
    {
        return pick != kNoReplica && pick != blind;
    }
};

/**
 * The routing tier's one ranking routine: the FleetRouter ranks a
 * shard's slice of its replicas with it, and its shards (DESIGN.md
 * section 2.4). Indices are positions in @p estimators.
 *
 * RoundRobin: the blind choice is @p cursor; availability is queried
 * from the cursor onwards and the first available index wins. The
 * cursor moves past the pick, or by one when nothing is available.
 *
 * Min-metric policies rank by window p99 (LatencyAware) or backlog
 * (every other policy). One ascending scan queries availability for
 * every index, in order, and keeps the best available index (the
 * pick) and the best index overall (the blind choice). Strict < breaks
 * ties to the lowest index. The cursor is returned unchanged.
 *
 * @p available(i) may be stateful (circuit breakers), which is why
 * the order of its calls is part of this contract.
 */
template <typename Available>
RankedPick
rankReplicas(RoutingPolicy policy,
             std::span<const ReplicaEstimator> estimators,
             std::size_t cursor, Available &&available)
{
    const std::size_t n = estimators.size();
    RankedPick res;
    if (policy == RoutingPolicy::RoundRobin) {
        res.blind = cursor;
        for (std::size_t i = 0; i < n && res.pick == kNoReplica; ++i) {
            std::size_t cand = (cursor + i) % n;
            if (available(cand))
                res.pick = cand;
        }
        res.cursor =
            ((res.pick == kNoReplica ? cursor : res.pick) + 1) % n;
        return res;
    }

    res.cursor = cursor;
    double pick_m = 0.0;
    double blind_m = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double m = policy == RoutingPolicy::LatencyAware
                       ? estimators[i].windowP99()
                       : estimators[i].backlog();
        if (res.blind == kNoReplica || m < blind_m) {
            res.blind = i;
            blind_m = m;
        }
        if (available(i) && (res.pick == kNoReplica || m < pick_m)) {
            res.pick = i;
            pick_m = m;
        }
    }
    return res;
}

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ROUTER_HH
