/**
 * @file
 * The routing engine: hierarchical sharded routing and SLO-aware
 * autoscaling; every cluster run routes through one FleetRouter.
 *
 * At O(1024) replicas one flat rotation/argmin is both a simulation
 * cost (an O(N) scan per candidate) and a modeling lie (real fleets
 * route through a shard tier). FleetRouter splits the fleet into
 * contiguous balanced shards and keeps ONE set of replica state
 * indexed by global replica: the estimators, each replica's outage
 * windows, one round-robin cursor per shard, and one shed and one
 * re-route counter. A candidate picks a shard by a shard-level
 * RoutingPolicy over per-shard fluid estimators whose service rate is
 * the shard's aggregate capacity, then a replica by ranking that
 * shard's slice of the estimators -- the same rankReplicas routine at
 * both tiers, O(S + N/S) per candidate instead of O(N).
 *
 * With one shard the shard tier is skipped and the replica tier ranks
 * the whole fleet, so the flat router is simply the one-shard
 * FleetRouter (`Router` below is that name, with a flat constructor).
 *
 * A ControlPlane owns its FleetRouter; its breakers veto on the
 * replica tier only (the shard tier reads them without side effects).
 *
 * The autoscaler is causal like every routing decision: it reads only
 * the router-side estimate stream and its own candidate counts, never
 * the replica simulations. Replicas activate/deactivate as a prefix of
 * the global index space (lowest indices first), activations pay a
 * warm-up lag before becoming routable, and decisions respect a
 * cooldown (hysteresis). Scale-up combines a feed-forward plan from
 * the observed arrival rate with proportional feedback on the p99 of
 * recent assignment-latency estimates -- the same exact-rank
 * percentile every tracker in the repo computes.
 */

#ifndef EQUINOX_CLUSTER_FLEET_HH
#define EQUINOX_CLUSTER_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/circuit_breaker.hh"
#include "cluster/router.hh"
#include "cluster/routing_policy.hh"
#include "common/types.hh"
#include "fault/traffic_mix.hh"
#include "stats/sliding_window.hh"

namespace equinox
{
namespace cluster
{

/** SLO-aware replica autoscaling, declaratively (seconds domain). */
struct AutoscalerSpec
{
    bool enabled = false;
    /** Active-replica floor (>= 1). */
    std::size_t min_replicas = 1;
    /** Active-replica ceiling; 0 = the fleet size. */
    std::size_t max_replicas = 0;
    /** Replicas active at t = 0; 0 = min_replicas. */
    std::size_t initial_replicas = 0;
    /** p99 latency target the controller defends (finite, > 0). */
    double target_p99_s = 0.0;
    /**
     * Scale down only when the observed p99 sits below
     * low_watermark * target (in (0, 1)); the dead band between the
     * watermark and the target is the hysteresis that keeps the fleet
     * from flapping around the SLO boundary.
     */
    double low_watermark = 0.5;
    /**
     * Utilization the feed-forward capacity plan provisions for, in
     * (0, 1]: needed = ceil(rate / (mu * target_utilization)). Also
     * the baseline the over-provision accounting charges against.
     */
    double target_utilization = 0.85;
    /** Controller decision cadence (finite, > 0). */
    double decision_interval_s = 1e-3;
    /** Minimum spacing between consecutive scaling actions (finite,
     *  >= 0). */
    double cooldown_s = 3e-3;
    /** Lag between activating a replica and it becoming routable
     *  (finite, >= 0). */
    double warmup_s = 5e-4;
    /** Sliding window of assignment-latency estimates (>= 1). */
    std::size_t estimate_window = 256;
    /** No feedback decisions before this many samples (>= 1). */
    std::size_t min_samples = 16;

    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** Everything one autoscaled routing pass reports. */
struct AutoscalerStats
{
    std::uint64_t decisions = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    /** Provisioned-count envelope over the run. */
    std::size_t min_active = 0;
    std::size_t max_active = 0;
    std::size_t final_active = 0;
    /** Integral of provisioned replicas over the horizon (ticks). */
    double active_replica_ticks = 0.0;
    /** Integral of the feed-forward capacity plan (ticks). */
    double needed_replica_ticks = 0.0;
    /** Integral of max(0, provisioned - needed) (ticks). */
    double over_provisioned_ticks = 0.0;
    /** over_provisioned_ticks / active_replica_ticks (0 when idle). */
    double over_provision_frac = 0.0;
    /** (tick, provisioned count after the action), per action. */
    std::vector<std::pair<Tick, std::size_t>> transitions;
};

/** Fleet-scale serving knobs riding on a ClusterSpec. */
struct FleetSpec
{
    /**
     * Shard count of the routing tier; 0 routes through one shard
     * (the flat router) and reports no shard tier. Shards partition
     * the replicas contiguously and balanced (sizes differ by <= 1).
     */
    std::size_t shards = 0;
    /** Policy of the shard tier (replica tier uses ClusterSpec's). */
    RoutingPolicy shard_policy = RoutingPolicy::JoinShortestQueue;
    AutoscalerSpec autoscaler;
    /** Diurnal / flash-crowd / multi-tenant arrival shaping. */
    fault::TrafficMix traffic;

    /** True when the run reports the shard tier and autoscaler. */
    bool
    routesHierarchically() const
    {
        return shards > 0 || autoscaler.enabled;
    }
    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** The routing engine: a shard-level pick, then a replica-level pick
 *  within the shard, over one globally indexed set of replicas. */
class FleetRouter
{
  public:
    /** Construction knobs, converted to the cycle domain by the
     *  cluster layer (the router never sees wall-clock seconds). */
    struct Config
    {
        RoutingPolicy replica_policy = RoutingPolicy::RoundRobin;
        RoutingPolicy shard_policy = RoutingPolicy::JoinShortestQueue;
        std::size_t replicas = 1;
        std::size_t shards = 1;
        /** One replica's saturation rate, requests per cycle. */
        double service_rate_per_cycle = 0.0;
        std::size_t latency_window = 64;

        // -- autoscaler, cycle domain (autoscale=false ignores all) --
        bool autoscale = false;
        std::size_t min_active = 1;
        std::size_t max_active = 0; //!< 0 = replicas
        std::size_t initial_active = 0; //!< 0 = min_active
        double target_p99_cycles = 0.0;
        double low_watermark = 0.5;
        double target_utilization = 0.85;
        Tick decision_interval = 1;
        Tick cooldown = 0;
        Tick warmup = 0;
        std::size_t estimate_window = 256;
        std::size_t min_samples = 16;
    };

    /** @param outages planned dead windows the router routes around */
    FleetRouter(const Config &cfg, std::vector<RouterOutage> outages);

    /**
     * The flat router: one shard of @p replicas under @p policy.
     * @param service_rate_per_cycle one replica's saturation request
     *        rate in requests per cycle (feeds the estimators)
     * @param latency_window sliding window of the latency-aware policy
     */
    FleetRouter(RoutingPolicy policy, std::size_t replicas,
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
     * Route one candidate at @p t: autoscaler bookkeeping, shard pick,
     * replica pick within the shard; returns the replica or kNoReplica
     * when the shard has no available replica (counted as shed).
     * Exposed for unit tests; route() calls this.
     */
    std::size_t pick(Tick t);

    /** Bound autoscaler counting and decisions (route() calls it). */
    void beginRoute(Tick max_ticks) { horizon_ = max_ticks; }

    /**
     * Close the autoscaler's interval accounting at the run horizon.
     * route() calls this; standalone pick() users call it once at the
     * end (idempotent per horizon).
     */
    void finishRoute(Tick max_ticks);

    /** Veto replicas by breaker (one per replica, outliving this);
     *  null leaves only outages and the autoscaler. */
    void
    setBreakers(std::vector<CircuitBreaker> *breakers)
    {
        breakers_ = breakers;
    }

    /** True unless @p r is inside a planned outage at @p t. */
    bool alive(std::size_t r, Tick t) const;
    const ReplicaEstimator &
    estimator(std::size_t r) const
    {
        return estimators_[r];
    }
    /** Provisioned and warm (always true without the autoscaler). */
    bool routable(std::size_t replica, Tick t) const;
    /**
     * The best available replica in @p exclude's shard other than
     * @p exclude, by the policy metric (backlog, or window p99 for
     * LatencyAware), ties to the lowest index; kNoReplica when none.
     * Does NOT assign -- the hedging layer decides and then calls
     * assignTo().
     */
    std::size_t pickAlternate(Tick t, std::size_t exclude) const;
    /** Account one (hedged) request assigned to @p r at @p t. */
    void assignTo(std::size_t r, Tick t);
    /** Advance every replica estimator's fluid drain to @p t. */
    void drainAll(Tick t);
    /** Mean backlog per provisioned replica (after drainAll). */
    double meanBacklog() const;
    /** Candidates dropped because their shard had no available
     *  replica. */
    std::uint64_t shedCount() const { return shed_; }
    /** Replica-tier plus shard-tier re-routes. */
    std::uint64_t
    reroutedCount() const
    {
        return rerouted_ + shard_rerouted_;
    }

    std::size_t shardCount() const { return shards_; }
    std::size_t shardOf(std::size_t replica) const;
    std::size_t shardBase(std::size_t s) const { return base_[s]; }
    std::size_t
    shardSize(std::size_t s) const
    {
        return base_[s + 1] - base_[s];
    }

    /** Candidates whose first-choice SHARD was skipped. */
    std::uint64_t shardRerouted() const { return shard_rerouted_; }

    /** True when @p replica was provisioned at any point of the run
     *  (always true with the autoscaler off). */
    bool everActive(std::size_t replica) const;

    const AutoscalerStats &autoscalerStats() const { return stats_; }

  private:
    /** Outage, then autoscaler, then breaker: only a replica that is
     *  alive and routable can move its breaker from Open to HalfOpen. */
    bool available(std::size_t r, Tick t) const;
    /** Shard @p s's replica estimators, indexed from base_[s]. */
    std::span<const ReplicaEstimator>
    slice(std::size_t s) const
    {
        return std::span(estimators_).subspan(base_[s], shardSize(s));
    }
    bool shardAvailable(std::size_t s, Tick t) const;
    void onCandidate(Tick t);
    /** Feed-forward plan of the interval just closed (@p len ticks
     *  long), with its provisioned/needed integrals accounted. */
    std::size_t closeInterval(double len);
    void decide(Tick boundary);
    void setProvisioned(Tick boundary, std::size_t desired);

    Config cfg_;
    std::size_t shards_;
    /** base_[s] = first global replica of shard s; size shards_+1. */
    std::vector<std::size_t> base_;

    // -- replica tier, indexed by global replica ----------------------
    std::vector<ReplicaEstimator> estimators_;
    /** outages_[r] = replica r's planned dead windows. */
    std::vector<std::vector<RouterOutage>> outages_;
    /** Round-robin cursor of each shard, local to its slice. */
    std::vector<std::size_t> cursor_;
    std::uint64_t shed_ = 0;
    std::uint64_t rerouted_ = 0;
    std::vector<CircuitBreaker> *breakers_ = nullptr; //!< null = none

    // -- shard tier (skipped with one shard) --------------------------
    std::vector<ReplicaEstimator> shard_est_;
    /** True when shard s has any outage window (fast-path gate). */
    std::vector<char> shard_has_outage_;
    std::size_t shard_rr_ = 0;
    std::uint64_t shard_rerouted_ = 0;

    // -- autoscaler state (untouched when cfg_.autoscale is false) ----
    /** First tick replica r serves; kNeverTick = not provisioned. */
    std::vector<Tick> routable_from_;
    std::vector<char> ever_active_;
    std::size_t provisioned_ = 0;
    std::size_t max_active_ = 0; //!< resolved ceiling
    Tick next_decision_ = 0;
    Tick horizon_ = 0;
    bool acted_ = false;
    Tick last_action_ = 0;
    std::uint64_t interval_candidates_ = 0;
    /** Recent assignment-latency estimates, the feedback signal
     *  (sized to estimate_window when autoscaling). */
    stats::SlidingWindow estimates_{1};
    AutoscalerStats stats_;
};

/** The flat router is the one-shard engine. */
using Router = FleetRouter;

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_FLEET_HH
