/**
 * @file
 * Cluster-level tests of the overload-resilience control plane:
 *
 *  - the resilience + chaos path is byte-identical across jobs counts
 *    and across repeated runs (determinism),
 *  - a tagging-only control plane leaves the replica simulations
 *    byte-identical to the bare router, flat or sharded and
 *    autoscaled (the no-op identity golden digests rely on),
 *  - conservation: every generated candidate is dispatched or shed,
 *    every admitted request retires or is in flight at the horizon,
 *  - the CI-enforced acceptance criterion: under the
 *    flash_crowd_outage chaos scenario at equal offered load, the
 *    full control plane beats the shed-only baseline on BOTH
 *    inference availability and goodput,
 *  - golden routing digests for the three front-ends (flat
 *    latency_aware Router, ControlPlane with hedging and breakers,
 *    autoscaled FleetRouter): every decision that reads a sliding
 *    window p99 is pinned, not just its statistics,
 *  - golden routing digests for a multi-shard fleet under outages:
 *    the shard tier's reroute and its all-dark fallback (the chosen
 *    shard's inner router sheds) are pinned for both shard-tier
 *    ranking modes,
 *  - a golden routing digest for fleet and resilience composed: 4
 *    shards, the autoscaler, breakers, retries and hedges under
 *    flash_crowd_outage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/sweep.hh"
#include "cluster_digest.hh"
#include "core/experiment.hh"
#include "fault/chaos_plan.hh"
#include "fault/traffic_mix.hh"
#include "obs/metrics_snapshot.hh"

namespace equinox
{
namespace
{

constexpr double kHorizonS = 0.02;

core::ExperimentOptions
chaosOptions(std::size_t jobs)
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    // Chaos windows sit mid-horizon, so the measured window must span
    // the whole run instead of closing at a request count.
    opts.measure_requests = 1u << 30;
    opts.min_measure_s = kHorizonS;
    opts.seed = 17;
    opts.max_sim_s = kHorizonS;
    opts.jobs = jobs;
    return opts;
}

/** Priority tags + deadline accounting only: the shed-only baseline. */
cluster::ResilienceSpec
baselineSpec(Tick deadline_cycles)
{
    cluster::ResilienceSpec rs;
    rs.admission.policy = cluster::AdmissionPolicy::None;
    rs.admission.background_fraction = 0.3;
    rs.admission.deadline_cycles = deadline_cycles;
    return rs;
}

/** The full control plane, sized for the 0.02 s test horizon. */
cluster::ResilienceSpec
resilientSpec(Tick deadline_cycles)
{
    cluster::ResilienceSpec rs = baselineSpec(deadline_cycles);
    rs.admission.policy = cluster::AdmissionPolicy::PriorityShed;
    rs.admission.background_watermark = 2.0;
    rs.admission.inference_watermark = 1e6;
    rs.retry.enabled = true;
    rs.retry.max_attempts = 6;
    rs.retry.max_budget = 65536.0;
    rs.retry.budget_ratio = 0.2;
    // 0.3 ms doubling backoff at 100 MHz: the schedule spans the
    // scenario's 1.2 ms fleet blackout within max_attempts.
    rs.retry.base_backoff_cycles = 30000;
    rs.retry.backoff_multiplier = 2.0;
    rs.retry.jitter_frac = 0.25;
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.window = 256;
    rs.hedge.min_samples = 64;
    rs.hedge.max_hedge_fraction = 0.01;
    rs.breaker.enabled = true;
    rs.breaker.trip_failures = 4;
    rs.breaker.probe_interval_cycles = 20000;  // 0.2 ms
    rs.breaker.cooldown_cycles = 50000;        // 0.5 ms
    rs.breaker.halfopen_probes = 2;
    rs.shed_training_under_overload = true;
    rs.training_shed_backlog = 4.0;
    return rs;
}

cluster::ClusterPointResult
runPoint(const cluster::ClusterSpec &cspec, double load,
         std::size_t jobs)
{
    auto opts = chaosOptions(jobs);
    cluster::Cluster fleet(testutil::smallConfig(), cspec);
    return fleet.run(load, opts, core::compileWorkload(
                                     testutil::smallConfig(), opts));
}

TEST(ResilienceCluster, ChaosRunIsIdenticalAcrossJobsCounts)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 4;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.resilience = resilientSpec(200000);
    cspec.chaos = fault::chaosScenario("flash_crowd_outage", kHorizonS);

    auto serial = runPoint(cspec, 0.8, 1);
    auto fanout = runPoint(cspec, 0.8, 4);
    EXPECT_EQ(testutil::digestOf(serial), testutil::digestOf(fanout));
    EXPECT_TRUE(serial.control_plane);
    EXPECT_GT(serial.resilience.dispatched, 0u);
}

TEST(ResilienceCluster, ChaosRunIsDeterministic)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 3;
    cspec.policy = cluster::RoutingPolicy::RoundRobin;
    cspec.resilience = resilientSpec(0);
    cspec.chaos = fault::chaosScenario("replica_churn", kHorizonS);

    auto a = runPoint(cspec, 0.7, 2);
    auto b = runPoint(cspec, 0.7, 2);
    EXPECT_EQ(testutil::digestOf(a), testutil::digestOf(b));
}

/** 12 replicas in 3 shards, autoscaled from 6 active. */
cluster::ClusterSpec
autoscaledShardedSpec()
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 12;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.fleet.shards = 3;
    cluster::AutoscalerSpec &as = cspec.fleet.autoscaler;
    as.enabled = true;
    as.min_replicas = 2;
    as.initial_replicas = 6;
    as.target_p99_s = 5e-4;
    as.decision_interval_s = kHorizonS / 100.0;
    as.cooldown_s = kHorizonS / 50.0;
    as.warmup_s = kHorizonS / 200.0;
    return cspec;
}

TEST(ResilienceCluster, TaggingOnlyControlPlaneLeavesReplicasUntouched)
{
    // Priority tagging alone must not perturb the replica
    // simulations: same traces, same latency samples, same per-replica
    // results as the bare router. This is the no-op identity that
    // keeps the golden digests of the plain cluster path valid. It
    // holds for a flat fleet and for a sharded, autoscaled one, where
    // the autoscaler must also take the same decisions.
    cluster::ClusterSpec flat;
    flat.replicas = 3;
    flat.policy = cluster::RoutingPolicy::JoinShortestQueue;

    for (const cluster::ClusterSpec &plain :
         {flat, autoscaledShardedSpec()}) {
        SCOPED_TRACE(::testing::Message()
                     << plain.replicas << " replicas, "
                     << plain.fleet.shards << " shards");
        cluster::ClusterSpec tagged = plain;
        tagged.resilience.admission.background_fraction = 0.3;
        ASSERT_TRUE(tagged.resilience.enabled());

        auto a = runPoint(plain, 0.6, 2);
        auto b = runPoint(tagged, 0.6, 2);

        EXPECT_FALSE(a.control_plane);
        EXPECT_TRUE(b.control_plane);
        ASSERT_EQ(a.per_replica.size(), b.per_replica.size());
        for (std::size_t r = 0; r < a.per_replica.size(); ++r) {
            testutil::ResultDigest da, db;
            testutil::foldSim(da, a.per_replica[r].sim);
            testutil::foldSim(db, b.per_replica[r].sim);
            EXPECT_EQ(da.value(), db.value()) << "replica " << r;
            EXPECT_EQ(a.per_replica[r].assigned_candidates,
                      b.per_replica[r].assigned_candidates);
        }
        EXPECT_EQ(a.merged_latency_cycles.count(),
                  b.merged_latency_cycles.count());
        EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
        EXPECT_EQ(a.shards, b.shards);
        EXPECT_EQ(a.shard_rerouted, b.shard_rerouted);
        EXPECT_EQ(a.autoscaler.transitions, b.autoscaler.transitions);
    }
}

TEST(ResilienceCluster, ConservationHoldsUnderChaos)
{
    for (const char *scenario :
         {"flash_crowd_outage", "replica_churn", "flash_crowd"}) {
        cluster::ClusterSpec cspec;
        cspec.replicas = 4;
        cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
        cspec.resilience = resilientSpec(200000);
        cspec.chaos = fault::chaosScenario(scenario, kHorizonS);

        auto r = runPoint(cspec, 0.8, 4);
        const auto &s = r.resilience;

        // Candidate conservation through the control plane.
        EXPECT_EQ(r.generated_candidates,
                  s.dispatched + s.totalShed())
            << scenario;
        EXPECT_EQ(s.admission.admitted,
                  s.dispatched + s.retry_shed + s.outage_shed)
            << scenario;
        EXPECT_EQ(s.totalShed(),
                  s.shed_background_total + s.shed_inference_total)
            << scenario;

        // Request conservation through the replica simulations:
        // admitted == retired + in-flight at the horizon.
        EXPECT_EQ(r.admitted_requests,
                  r.retired_requests + r.inflight_requests)
            << scenario;

        // Availability headlines stay inside [0, 1].
        EXPECT_GE(r.request_availability, 0.0);
        EXPECT_LE(r.request_availability, 1.0);
        EXPECT_GE(r.inference_availability, 0.0);
        EXPECT_LE(r.inference_availability, 1.0);
        EXPECT_LE(r.deadline_met, r.retired_requests);
    }
}

TEST(ResilienceCluster, ControlPlaneBeatsShedOnlyBaselineUnderChaos)
{
    // THE acceptance criterion: under flash crowd + fleet blackout at
    // equal offered load, the control plane must deliver strictly
    // higher inference availability AND strictly higher goodput than
    // the shed-only baseline (bench/overload_resilience records the
    // same comparison into BENCH_overload_resilience.json).

    // Anchor the deadline on the calm fleet's p99 so the test tracks
    // the workload instead of hard-coding cycles.
    cluster::ClusterSpec calm;
    calm.replicas = 4;
    calm.policy = cluster::RoutingPolicy::JoinShortestQueue;
    auto calm_point = runPoint(calm, 0.8, 4);
    ASSERT_GT(calm_point.p99_latency_s, 0.0);
    const double f = testutil::smallConfig().frequency_hz;
    const Tick deadline =
        static_cast<Tick>(4.0 * calm_point.p99_latency_s * f);

    auto runMode = [&](const cluster::ResilienceSpec &rs) {
        cluster::ClusterSpec cspec;
        cspec.replicas = 4;
        cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
        cspec.resilience = rs;
        cspec.chaos =
            fault::chaosScenario("flash_crowd_outage", kHorizonS);
        return runPoint(cspec, 0.8, 4);
    };

    auto base = runMode(baselineSpec(deadline));
    auto resilient = runMode(resilientSpec(deadline));

    // The chaos scenario must actually hurt the baseline...
    EXPECT_GT(base.resilience.outage_shed, 0u);
    EXPECT_LT(base.inference_availability, 1.0);
    // ...and the control plane must strictly win on both axes.
    EXPECT_GT(resilient.inference_availability,
              base.inference_availability);
    EXPECT_GT(resilient.goodput_rps, base.goodput_rps);
    // The win comes from the mechanisms, not accounting drift.
    EXPECT_GT(resilient.resilience.retry_recovered, 0u);
    EXPECT_GT(resilient.resilience.breaker_opens, 0u);
}

TEST(ResilienceCluster, SnapshotResilienceSectionRoundTrips)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 3;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.resilience = resilientSpec(200000);
    cspec.chaos = fault::chaosScenario("flash_crowd", kHorizonS);
    auto r = runPoint(cspec, 0.8, 3);

    obs::MetricsSnapshot snap;
    core::addResiliencePoint(snap, "test", r);
    auto dumped = snap.toJson();
    EXPECT_NE(dumped.find("\"resilience\""), std::string::npos);
    EXPECT_NE(dumped.find("\"inference_availability\""),
              std::string::npos);
    EXPECT_NE(dumped.find("\"goodput_rps\""), std::string::npos);
    EXPECT_NE(dumped.find("\"hedge\""), std::string::npos);
    EXPECT_NE(dumped.find("\"breaker\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden routing digests, one per front-end. latency_aware ranking,
// the breaker latency trip, hedging and the autoscaler feedback loop
// all read a sliding-window p99; these constants pin every routing
// decision those reads drive, so a change to how the windows are kept
// cannot move a single assignment unnoticed. Re-record only for a
// deliberate routing behaviour change.

/** Fold what the front-end decided (not the replica simulations). */
std::uint64_t
routingDigest(const cluster::ClusterPointResult &r)
{
    testutil::ResultDigest dg;
    for (std::uint64_t v :
         {r.generated_candidates, r.router_shed, r.rerouted,
          r.shard_rerouted, r.resilience.dispatched,
          r.resilience.retry_attempts, r.resilience.hedges_issued,
          r.resilience.hedge_wins, r.resilience.breaker_opens,
          r.resilience.breaker_denials, r.resilience.totalShed()})
        dg.u64(v);
    for (const auto &rep : r.per_replica)
        dg.u64(rep.assigned_candidates);
    dg.u64(r.autoscaler.transitions.size());
    for (const auto &tr : r.autoscaler.transitions) {
        dg.u64(tr.first);
        dg.u64(tr.second);
    }
    return dg.value();
}

constexpr std::uint64_t kGoldenLatencyAwareRouting = 0x0230a039f1d9daecull;
constexpr std::uint64_t kGoldenControlPlaneRouting = 0x9ef0519392599d24ull;
constexpr std::uint64_t kGoldenAutoscaledFleetRouting =
    0xba2fda73a9d49cf5ull;
constexpr std::uint64_t kGoldenShardOutageRoundRobinFleetRouting =
    0x4f0ae63ee350b214ull;
constexpr std::uint64_t kGoldenShardChurnLatencyAwareFleetRouting =
    0x3de3c9b7933e28a5ull;
constexpr std::uint64_t kGoldenResilientFleetRouting = 0xbe3379eed69f2d76ull;

TEST(ResilienceCluster, GoldenRoutingDigestLatencyAwareRouter)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 6;
    cspec.policy = cluster::RoutingPolicy::LatencyAware;
    cspec.chaos = fault::chaosScenario("replica_churn", kHorizonS);
    auto r = runPoint(cspec, 0.9, 2);

    EXPECT_FALSE(r.control_plane);
    EXPECT_GT(r.rerouted, 0u);
    EXPECT_EQ(routingDigest(r), kGoldenLatencyAwareRouting)
        << std::hex << routingDigest(r);
}

TEST(ResilienceCluster, GoldenRoutingDigestHedgingControlPlane)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 4;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.resilience = resilientSpec(200000);
    // The latency trip makes every breaker probe read its replica's
    // window p99, on top of the outage calendar.
    cspec.resilience.breaker.latency_trip_cycles = 40000.0;
    cspec.chaos = fault::chaosScenario("flash_crowd_outage", kHorizonS);
    auto r = runPoint(cspec, 0.8, 2);

    EXPECT_TRUE(r.control_plane);
    EXPECT_GT(r.resilience.hedges_issued, 0u);
    EXPECT_GT(r.resilience.retry_attempts, 0u);
    EXPECT_GT(r.resilience.breaker_opens, 0u);
    EXPECT_EQ(routingDigest(r), kGoldenControlPlaneRouting)
        << std::hex << routingDigest(r);
}

TEST(ResilienceCluster, GoldenRoutingDigestAutoscaledFleet)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 16;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.fleet.shards = 4;
    cspec.fleet.shard_policy = cluster::RoutingPolicy::LatencyAware;
    cspec.fleet.traffic = fault::trafficScenario("diurnal", kHorizonS);
    cluster::AutoscalerSpec &as = cspec.fleet.autoscaler;
    as.enabled = true;
    as.min_replicas = 2;
    as.initial_replicas = 8;
    as.target_p99_s = 5e-4;
    as.decision_interval_s = kHorizonS / 100.0;
    as.cooldown_s = kHorizonS / 50.0;
    as.warmup_s = kHorizonS / 200.0;
    auto r = runPoint(cspec, 0.3, 2);

    EXPECT_TRUE(r.autoscaled);
    EXPECT_GT(r.autoscaler.scale_ups, 0u);
    EXPECT_GT(r.autoscaler.scale_downs, 0u);
    EXPECT_EQ(routingDigest(r), kGoldenAutoscaledFleetRouting)
        << std::hex << routingDigest(r);
}

TEST(ResilienceCluster, GoldenRoutingDigestResilientFleet)
{
    // Fleet and resilience composed: 4 shards, the autoscaler, and the
    // full control plane (breakers with the latency trip, retries,
    // hedges within the primary's shard) under flash_crowd_outage.
    cluster::ClusterSpec cspec;
    cspec.replicas = 16;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.fleet.shards = 4;
    cspec.fleet.shard_policy = cluster::RoutingPolicy::JoinShortestQueue;
    cluster::AutoscalerSpec &as = cspec.fleet.autoscaler;
    as.enabled = true;
    as.min_replicas = 4;
    as.initial_replicas = 8;
    as.target_p99_s = 5e-4;
    as.decision_interval_s = kHorizonS / 100.0;
    as.cooldown_s = kHorizonS / 50.0;
    as.warmup_s = kHorizonS / 200.0;
    cspec.resilience = resilientSpec(200000);
    cspec.resilience.breaker.latency_trip_cycles = 40000.0;
    cspec.chaos = fault::chaosScenario("flash_crowd_outage", kHorizonS);
    auto r = runPoint(cspec, 0.8, 2);

    EXPECT_TRUE(r.control_plane);
    EXPECT_TRUE(r.autoscaled);
    EXPECT_EQ(r.shards, 4u);
    EXPECT_GT(r.autoscaler.scale_ups, 0u);
    EXPECT_GT(r.resilience.hedges_issued, 0u);
    EXPECT_GT(r.resilience.retry_attempts, 0u);
    EXPECT_GT(r.resilience.breaker_opens, 0u);
    EXPECT_EQ(r.generated_candidates,
              r.resilience.dispatched + r.resilience.totalShed());
    EXPECT_EQ(routingDigest(r), kGoldenResilientFleetRouting)
        << std::hex << routingDigest(r);
}

/** 12 replicas in 3 shards of 4 with no autoscaler or traffic mix. */
cluster::ClusterSpec
shardedFleetSpec(cluster::RoutingPolicy shard_policy,
                 cluster::RoutingPolicy replica_policy)
{
    cluster::ClusterSpec cspec;
    cspec.replicas = 12;
    cspec.policy = replica_policy;
    cspec.fleet.shards = 3;
    cspec.fleet.shard_policy = shard_policy;
    return cspec;
}

TEST(ResilienceCluster, GoldenRoutingDigestShardOutageRoundRobinFleet)
{
    auto cspec =
        shardedFleetSpec(cluster::RoutingPolicy::RoundRobin,
                         cluster::RoutingPolicy::JoinShortestQueue);
    // Shard 1 (replicas 4-7) goes dark as a whole: the shard cursor
    // skips it. The rack blackout later darkens every shard at once,
    // so the cursor's shard takes the candidate and its inner router
    // sheds it.
    for (std::size_t r = 4; r < 8; ++r)
        cspec.outages.push_back({r, 0.15 * kHorizonS, 0.30 * kHorizonS});
    cspec.chaos = fault::chaosScenario("rack_blackout", kHorizonS);
    auto r = runPoint(cspec, 0.8, 2);

    EXPECT_FALSE(r.control_plane);
    EXPECT_GT(r.shard_rerouted, 0u);
    EXPECT_GT(r.router_shed, 0u);
    EXPECT_EQ(routingDigest(r), kGoldenShardOutageRoundRobinFleetRouting)
        << std::hex << routingDigest(r);
}

TEST(ResilienceCluster, GoldenRoutingDigestShardChurnLatencyAwareFleet)
{
    auto cspec = shardedFleetSpec(cluster::RoutingPolicy::LatencyAware,
                                  cluster::RoutingPolicy::RoundRobin);
    for (std::size_t r = 4; r < 8; ++r)
        cspec.outages.push_back({r, 0.15 * kHorizonS, 0.30 * kHorizonS});
    // A short all-dark window: the best shard overall takes each
    // candidate and its inner router sheds it, advancing that shard's
    // replica rotation (and no other shard's).
    for (std::size_t r = 0; r < 12; ++r)
        cspec.outages.push_back({r, 0.60 * kHorizonS, 0.63 * kHorizonS});
    cspec.chaos = fault::chaosScenario("replica_churn", kHorizonS);
    auto r = runPoint(cspec, 0.8, 2);

    EXPECT_FALSE(r.control_plane);
    EXPECT_GT(r.shard_rerouted, 0u);
    EXPECT_GT(r.rerouted, r.shard_rerouted);
    EXPECT_GT(r.router_shed, 0u);
    EXPECT_EQ(routingDigest(r), kGoldenShardChurnLatencyAwareFleetRouting)
        << std::hex << routingDigest(r);
}

} // namespace
} // namespace equinox
