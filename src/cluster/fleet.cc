#include "cluster/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

namespace
{

constexpr Tick kNeverTick = std::numeric_limits<Tick>::max();

std::size_t
clampCount(std::size_t v, std::size_t lo, std::size_t hi)
{
    return std::min(std::max(v, lo), hi);
}

} // namespace

std::vector<std::string>
AutoscalerSpec::validate() const
{
    std::vector<std::string> errors;
    if (!enabled)
        return errors;
    if (min_replicas < 1)
        errors.push_back("autoscaler min_replicas must be >= 1");
    if (max_replicas != 0 && max_replicas < min_replicas)
        errors.push_back("autoscaler max_replicas must be 0 or >= "
                         "min_replicas");
    if (initial_replicas != 0 &&
        (initial_replicas < min_replicas ||
         (max_replicas != 0 && initial_replicas > max_replicas)))
        errors.push_back("autoscaler initial_replicas must be 0 or in "
                         "[min_replicas, max_replicas]");
    // The four time knobs must be finite: an infinite one silently
    // switches its mechanism off (an unreachable target, no decision,
    // no second action, a replica that never warms up).
    if (!(target_p99_s > 0.0) || !std::isfinite(target_p99_s))
        errors.push_back("autoscaler target_p99_s must be finite and > 0");
    if (!(low_watermark > 0.0 && low_watermark < 1.0))
        errors.push_back("autoscaler low_watermark must be in (0, 1)");
    if (!(target_utilization > 0.0 && target_utilization <= 1.0))
        errors.push_back(
            "autoscaler target_utilization must be in (0, 1]");
    if (!(decision_interval_s > 0.0) || !std::isfinite(decision_interval_s))
        errors.push_back(
            "autoscaler decision_interval_s must be finite and > 0");
    if (!(cooldown_s >= 0.0) || !std::isfinite(cooldown_s))
        errors.push_back("autoscaler cooldown_s must be finite and >= 0");
    if (!(warmup_s >= 0.0) || !std::isfinite(warmup_s))
        errors.push_back("autoscaler warmup_s must be finite and >= 0");
    if (estimate_window < 1)
        errors.push_back("autoscaler estimate_window must be >= 1");
    if (min_samples < 1)
        errors.push_back("autoscaler min_samples must be >= 1");
    return errors;
}

std::vector<std::string>
FleetSpec::validate() const
{
    std::vector<std::string> errors;
    for (auto &e : autoscaler.validate())
        errors.push_back(std::move(e));
    for (auto &e : traffic.validate())
        errors.push_back("traffic: " + std::move(e));
    return errors;
}

FleetRouter::FleetRouter(const Config &cfg,
                         std::vector<RouterOutage> outages)
    : cfg_(cfg), shards_(cfg.shards)
{
    const std::size_t n = cfg_.replicas;
    EQX_ASSERT(n >= 1, "fleet needs at least one replica");
    EQX_ASSERT(shards_ >= 1 && shards_ <= n, "shard count ", shards_,
               " must be in [1, ", n, "]");
    EQX_ASSERT(cfg_.service_rate_per_cycle > 0.0,
               "fleet needs a positive service rate");

    // Contiguous balanced partition: the first n % S shards take one
    // extra replica, so sizes differ by at most 1 and shardOf() is a
    // closed-form computation.
    base_.resize(shards_ + 1);
    std::size_t size = n / shards_;
    std::size_t rem = n % shards_;
    base_[0] = 0;
    for (std::size_t s = 0; s < shards_; ++s)
        base_[s + 1] = base_[s] + size + (s < rem ? 1 : 0);

    estimators_.reserve(n);
    for (std::size_t r = 0; r < n; ++r)
        estimators_.emplace_back(cfg_.service_rate_per_cycle,
                                 cfg_.latency_window);
    outages_.resize(n);
    shard_has_outage_.assign(shards_, 0);
    for (const auto &o : outages) {
        EQX_ASSERT(o.replica < n, "outage names replica ", o.replica,
                   " of ", n);
        EQX_ASSERT(o.from <= o.to, "outage window runs backwards");
        outages_[o.replica].push_back(o);
        shard_has_outage_[shardOf(o.replica)] = 1;
    }
    cursor_.assign(shards_, 0);

    shard_est_.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
        // The shard estimator models the shard as one fat server with
        // the shard's aggregate capacity -- the same M/D/1-style fluid
        // queue the replica estimators run, one level up.
        shard_est_.emplace_back(cfg_.service_rate_per_cycle *
                                    static_cast<double>(shardSize(s)),
                                cfg_.latency_window);
    }

    if (cfg_.autoscale) {
        EQX_ASSERT(cfg_.decision_interval >= 1,
                   "autoscaler needs a nonzero decision interval");
        max_active_ = cfg_.max_active == 0
                          ? n
                          : std::min(cfg_.max_active, n);
        std::size_t min_active = clampCount(cfg_.min_active, 1,
                                            max_active_);
        std::size_t initial = cfg_.initial_active == 0
                                  ? min_active
                                  : clampCount(cfg_.initial_active,
                                               min_active, max_active_);
        routable_from_.assign(n, kNeverTick);
        ever_active_.assign(n, 0);
        for (std::size_t r = 0; r < initial; ++r) {
            routable_from_[r] = 0;
            ever_active_[r] = 1;
        }
        provisioned_ = initial;
        estimates_ = stats::SlidingWindow(cfg_.estimate_window);
        next_decision_ = cfg_.decision_interval;
        horizon_ = kNeverTick;
        stats_.min_active = initial;
        stats_.max_active = initial;
        stats_.final_active = initial;
    }
}

FleetRouter::FleetRouter(RoutingPolicy policy, std::size_t replicas,
                         double service_rate_per_cycle,
                         std::size_t latency_window,
                         std::vector<RouterOutage> outages)
    : FleetRouter({.replica_policy = policy,
                   .replicas = replicas,
                   .service_rate_per_cycle = service_rate_per_cycle,
                   .latency_window = latency_window},
                  std::move(outages))
{
}

std::size_t
FleetRouter::shardOf(std::size_t replica) const
{
    EQX_ASSERT(replica < cfg_.replicas, "replica ", replica, " of ",
               cfg_.replicas);
    std::size_t n = cfg_.replicas;
    std::size_t size = n / shards_;
    std::size_t rem = n % shards_;
    std::size_t fat = rem * (size + 1); //!< replicas in the fat shards
    if (replica < fat)
        return replica / (size + 1);
    return rem + (replica - fat) / size;
}

bool
FleetRouter::routable(std::size_t replica, Tick t) const
{
    return !cfg_.autoscale || routable_from_[replica] <= t;
}

bool
FleetRouter::alive(std::size_t r, Tick t) const
{
    for (const auto &o : outages_[r]) {
        if (t >= o.from && t < o.to)
            return false;
    }
    return true;
}

bool
FleetRouter::available(std::size_t r, Tick t) const
{
    return alive(r, t) && routable(r, t) &&
           (!breakers_ || (*breakers_)[r].allows(t));
}

bool
FleetRouter::everActive(std::size_t replica) const
{
    if (!cfg_.autoscale)
        return true;
    return ever_active_[replica] != 0;
}

bool
FleetRouter::shardAvailable(std::size_t s, Tick t) const
{
    // Provisioning is a prefix of the global index space and
    // routable_from_ is non-decreasing in the replica index
    // (activations always append to the provisioned prefix with later
    // timestamps), so the shard's FIRST replica decides whether ANY
    // member is routable -- an O(1) gate in front of the O(shard)
    // member scan, which only runs for shards that have outages or
    // breakers. The scan asks breakers wouldAllow(), never allows():
    // ranking shards must not move a breaker to HalfOpen.
    if (!routable(base_[s], t))
        return false;
    if (!shard_has_outage_[s] && !breakers_)
        return true;
    for (std::size_t r = base_[s]; r < base_[s + 1]; ++r) {
        if (alive(r, t) && routable(r, t) &&
            (!breakers_ || (*breakers_)[r].wouldAllow(t)))
            return true;
    }
    return false;
}

std::size_t
FleetRouter::pick(Tick t)
{
    if (cfg_.autoscale)
        onCandidate(t);
    // One shard skips the shard tier: the replica tier then ranks the
    // whole fleet.
    std::size_t s = 0;
    if (shards_ > 1) {
        for (auto &e : shard_est_)
            e.drainTo(t);
        RankedPick rp = rankReplicas(
            cfg_.shard_policy, shard_est_, shard_rr_,
            [&](std::size_t i) { return shardAvailable(i, t); });
        shard_rr_ = rp.cursor;
        if (rp.rerouted())
            ++shard_rerouted_;
        // No shard has an available replica: the candidate still goes
        // to the blind choice so THAT shard sheds it (and advances its
        // own rotation).
        s = rp.pick != kNoReplica ? rp.pick : rp.blind;
    }

    const std::size_t b = base_[s];
    for (std::size_t r = b; r < base_[s + 1]; ++r)
        estimators_[r].drainTo(t);
    RankedPick rp = rankReplicas(
        cfg_.replica_policy, slice(s), cursor_[s],
        [&](std::size_t i) { return available(b + i, t); });
    cursor_[s] = rp.cursor;
    if (rp.rerouted())
        ++rerouted_;
    if (rp.pick == kNoReplica) {
        ++shed_;
        return kNoReplica;
    }
    const std::size_t r = b + rp.pick;
    estimators_[r].assign(t);
    if (shards_ > 1)
        shard_est_[s].assign(t);

    if (cfg_.autoscale) {
        // Feedback signal: the model latency the just-assigned request
        // is predicted to see, from the chosen replica's estimator.
        estimates_.push(estimators_[r].lastAssignmentEstimateCycles());
    }
    return r;
}

std::size_t
FleetRouter::pickAlternate(Tick t, std::size_t exclude) const
{
    // Round-robin has no metric of its own: its hedge alternates rank
    // by backlog like JSQ. The exclusion is checked first, so the
    // hedged replica's breaker is never asked.
    RoutingPolicy by = cfg_.replica_policy == RoutingPolicy::RoundRobin
                           ? RoutingPolicy::JoinShortestQueue
                           : cfg_.replica_policy;
    const std::size_t s = shardOf(exclude);
    const std::size_t b = base_[s];
    std::size_t alt =
        rankReplicas(by, slice(s), cursor_[s],
                     [&](std::size_t i) {
                         return b + i != exclude && available(b + i, t);
                     })
            .pick;
    return alt == kNoReplica ? kNoReplica : b + alt;
}

void
FleetRouter::assignTo(std::size_t r, Tick t)
{
    std::size_t s = shardOf(r);
    estimators_[r].assign(t);
    if (shards_ > 1)
        shard_est_[s].assign(t); // the hedge copy loads its shard too
}

void
FleetRouter::drainAll(Tick t)
{
    for (auto &e : estimators_)
        e.drainTo(t);
}

double
FleetRouter::meanBacklog() const
{
    double sum = 0.0;
    for (const auto &e : estimators_)
        sum += e.backlog();
    std::size_t n = cfg_.autoscale ? provisioned_ : cfg_.replicas;
    return sum / static_cast<double>(n);
}

void
FleetRouter::onCandidate(Tick t)
{
    // Close every decision boundary the stream has passed, then count
    // this candidate into the now-current interval. Candidates beyond
    // the horizon (the one-past-the-end candidate the event loop
    // needs) close boundaries but are not counted.
    while (next_decision_ <= horizon_ && next_decision_ <= t) {
        decide(next_decision_);
        next_decision_ += cfg_.decision_interval;
    }
    if (t <= horizon_)
        ++interval_candidates_;
}

std::size_t
FleetRouter::closeInterval(double len)
{
    double rate = static_cast<double>(interval_candidates_) / len;
    interval_candidates_ = 0;

    // Feed-forward capacity plan: replicas needed to serve the
    // interval's observed arrival rate at the target utilization.
    auto ff_raw = static_cast<std::size_t>(std::ceil(
        rate / (cfg_.service_rate_per_cycle * cfg_.target_utilization)));
    std::size_t needed = clampCount(ff_raw, cfg_.min_active,
                                    max_active_);

    // Account the closed interval (provisioned_ is constant across it:
    // it only changes at boundaries).
    stats_.active_replica_ticks += static_cast<double>(provisioned_) * len;
    stats_.needed_replica_ticks += static_cast<double>(needed) * len;
    if (provisioned_ > needed)
        stats_.over_provisioned_ticks +=
            static_cast<double>(provisioned_ - needed) * len;
    return needed;
}

void
FleetRouter::decide(Tick boundary)
{
    ++stats_.decisions;
    std::size_t needed =
        closeInterval(static_cast<double>(cfg_.decision_interval));

    // Control: proportional feedback on the estimate-stream p99 when
    // enough samples exist, feed-forward tracking before that. The
    // dead band between low_watermark * target and target holds the
    // current size (hysteresis); the cooldown below rate-limits
    // actions in both directions.
    std::size_t desired = provisioned_;
    if (estimates_.size() >= cfg_.min_samples) {
        double p99 = estimates_.percentile(0.99);
        if (p99 > cfg_.target_p99_cycles) {
            // Overload: proportional jump, never below the
            // feed-forward plan. The ratio is capped so a transient
            // backlog estimate cannot demand a absurd fleet (the
            // clamp to max_active_ would hide the cap anyway).
            double ratio =
                std::min(p99 / cfg_.target_p99_cycles, 64.0);
            auto fb = static_cast<std::size_t>(std::ceil(
                static_cast<double>(provisioned_) * ratio));
            desired = std::max(needed, fb);
        } else if (p99 <
                   cfg_.low_watermark * cfg_.target_p99_cycles) {
            desired = needed;
        }
    } else {
        desired = std::max(provisioned_, needed);
    }
    desired = clampCount(desired, cfg_.min_active, max_active_);

    if (desired != provisioned_ &&
        (!acted_ ||
         boundary >= saturatingAdd(last_action_, cfg_.cooldown)))
        setProvisioned(boundary, desired);
}

void
FleetRouter::setProvisioned(Tick boundary, std::size_t desired)
{
    if (desired > provisioned_) {
        // Activate the lowest inactive indices; they become routable
        // only after the warm-up lag. Appending to the provisioned
        // prefix with the latest timestamp keeps routable_from_
        // non-decreasing in the index, which shardAvailable's O(1)
        // gate depends on.
        for (std::size_t r = provisioned_; r < desired; ++r) {
            routable_from_[r] = saturatingAdd(boundary, cfg_.warmup);
            ever_active_[r] = 1;
        }
        ++stats_.scale_ups;
    } else {
        for (std::size_t r = desired; r < provisioned_; ++r)
            routable_from_[r] = kNeverTick;
        ++stats_.scale_downs;
    }
    provisioned_ = desired;
    acted_ = true;
    last_action_ = boundary;
    stats_.min_active = std::min(stats_.min_active, provisioned_);
    stats_.max_active = std::max(stats_.max_active, provisioned_);
    stats_.transitions.emplace_back(boundary, provisioned_);
}

void
FleetRouter::finishRoute(Tick max_ticks)
{
    if (!cfg_.autoscale)
        return;
    horizon_ = max_ticks;
    while (next_decision_ <= max_ticks) {
        decide(next_decision_);
        next_decision_ += cfg_.decision_interval;
    }
    // Account the partial tail interval [last boundary, horizon).
    Tick prev = next_decision_ - cfg_.decision_interval;
    if (max_ticks > prev)
        closeInterval(static_cast<double>(max_ticks - prev));
    stats_.final_active = provisioned_;
    stats_.over_provision_frac =
        stats_.active_replica_ticks > 0.0
            ? stats_.over_provisioned_ticks /
                  stats_.active_replica_ticks
            : 0.0;
}

RouterResult
FleetRouter::route(double rate_per_cycle, std::uint64_t seed,
                   Tick max_ticks, const std::vector<RouterSurge> &surges)
{
    RouterResult res;
    res.traces.resize(cfg_.replicas);
    res.assigned.assign(cfg_.replicas, 0);

    std::vector<Tick> ticks =
        generateCandidateTicks(rate_per_cycle, seed, max_ticks, surges);
    res.generated = ticks.size();
    beginRoute(max_ticks);
    for (Tick t : ticks) {
        std::size_t r = pick(t);
        if (r != kNoReplica) {
            res.traces[r].push_back(t);
            ++res.assigned[r];
        }
    }
    finishRoute(max_ticks);

    res.shed = shed_;
    res.rerouted = reroutedCount();
    return res;
}

} // namespace cluster
} // namespace equinox
