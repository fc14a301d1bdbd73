/**
 * @file
 * The cluster front-end: generates the global inference arrival stream
 * and splits it into one candidate tick trace per replica.
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
#include <functional>
#include <vector>

#include "cluster/routing_policy.hh"
#include "common/types.hh"

namespace equinox
{
namespace cluster
{

/** Returned by Router::pick when no healthy replica exists. */
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
 * The routing tier's one ranking routine: the replica tier (Router)
 * ranks its replicas with it, the shard tier (FleetRouter) its shards
 * (DESIGN.md section 2.4).
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
             const std::vector<ReplicaEstimator> &estimators,
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

/**
 * The routing tier's one candidate loop: draw the global stream and
 * hand each candidate to @p pick, which returns a replica index or
 * kNoReplica. Fills traces, assigned and generated; the caller adds
 * its own shed and rerouted counts.
 */
template <typename Pick>
RouterResult
routeCandidates(std::size_t replicas, double rate_per_cycle,
                std::uint64_t seed, Tick max_ticks,
                const std::vector<RouterSurge> &surges, Pick &&pick)
{
    RouterResult res;
    res.traces.resize(replicas);
    res.assigned.assign(replicas, 0);

    std::vector<Tick> ticks =
        generateCandidateTicks(rate_per_cycle, seed, max_ticks, surges);
    res.generated = ticks.size();
    for (Tick t : ticks) {
        std::size_t r = pick(t);
        if (r != kNoReplica) {
            res.traces[r].push_back(t);
            ++res.assigned[r];
        }
    }
    return res;
}

/** Splits the global arrival stream across replicas by policy. */
class Router
{
  public:
    /**
     * @param policy replica-selection strategy
     * @param replicas replica count (>= 1)
     * @param service_rate_per_cycle one replica's saturation request
     *        rate in requests per cycle (feeds the estimators)
     * @param latency_window sliding window of the latency-aware policy
     * @param outages planned dead windows the router routes around
     */
    Router(RoutingPolicy policy, std::size_t replicas,
           double service_rate_per_cycle, std::size_t latency_window,
           std::vector<RouterOutage> outages);

    /**
     * Draw the global candidate stream and route every candidate.
     * @param rate_per_cycle aggregate candidate rate in arrivals per
     *        cycle (bursty peak rate included); <= 0 yields no traffic
     * @param seed the RunSpec seed (selects the ArrivalStream)
     * @param max_ticks run horizon; generation stops at the first
     *        candidate beyond it (which is still routed -- the event
     *        loop dispatches one event past the horizon)
     * @param surges optional arrival surge windows (flash crowds)
     */
    RouterResult route(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges = {});

    /**
     * Route one candidate at @p t: updates the estimators and health
     * view, returns the chosen replica or kNoReplica when every
     * replica is down. Exposed for unit tests; route() calls this.
     */
    std::size_t pick(Tick t);

    /** True when @p replica is inside a planned outage at @p t. */
    bool alive(std::size_t replica, Tick t) const;

    /**
     * Install a veto consulted on top of the outage windows (the
     * FleetRouter's autoscaler and circuit-breaker filter). A vetoed
     * replica is skipped by pick() exactly like a dead one; alive()
     * itself stays outage-only so health checks observe the raw
     * outage state.
     */
    void
    setAvailabilityFilter(std::function<bool(std::size_t, Tick)> filter)
    {
        filter_ = std::move(filter);
    }

    /** Advance every estimator's fluid drain to @p t. */
    void drainAll(Tick t);

    /**
     * The best available replica other than @p exclude by the policy
     * metric (backlog, or window p99 for LatencyAware), ties to the
     * lowest index; kNoReplica when none. Does NOT assign -- the
     * hedging layer decides and then calls assignTo().
     */
    std::size_t pickAlternate(Tick t, std::size_t exclude) const;

    /** Account one (hedged) request assigned to @p r at @p t. */
    void assignTo(std::size_t r, Tick t);

    const std::vector<ReplicaEstimator> &estimators() const
    {
        return estimators_;
    }

    std::uint64_t shedCount() const { return shed_; }
    std::uint64_t reroutedCount() const { return rerouted_; }

  private:
    bool available(std::size_t replica, Tick t) const;

    RoutingPolicy policy_;
    std::size_t replicas_;
    std::vector<ReplicaEstimator> estimators_;
    std::vector<RouterOutage> outages_;
    std::function<bool(std::size_t, Tick)> filter_;
    std::size_t rr_next_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t rerouted_ = 0;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ROUTER_HH
