/**
 * @file
 * FaultUnit: the thin block adapter over the fault-injection subsystem
 * (src/fault/) and the recovery machinery that answers it.
 *
 * Owns the per-run FaultInjector and FaultStats, the hang/watchdog
 * state machine, the storm-detection/degradation policy, training
 * checkpoint/rollback, and the retrying host-interface transfer every
 * other block routes its host traffic through. On fault-free runs (the
 * default plan) no injector exists and every path reduces to the bare
 * interface call, keeping results byte-identical.
 */

#ifndef EQUINOX_SIM_BLOCKS_FAULT_UNIT_HH
#define EQUINOX_SIM_BLOCKS_FAULT_UNIT_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/link.hh"
#include "fault/injector.hh"
#include "sim/blocks/sim_block.hh"
#include "stats/fault_stats.hh"

namespace equinox
{
namespace sim
{

class InstructionDispatcher;
class TrainPrefetcher;

/** Fault injection, recovery policies, and degradation control. */
class FaultUnit final : public SimBlock
{
  public:
    explicit FaultUnit(SimContext &context);
    ~FaultUnit() override;

    /** Wire control ports (composition root, once). */
    void connect(InstructionDispatcher *dispatcher_,
                 TrainPrefetcher *prefetcher_);

    void resetRun() override;

    /**
     * Validate the run's fault plan and build the injector + link
     * hooks; a plan that can inject nothing leaves the unit inactive.
     * Call after the run's HBM/host models exist.
     */
    void beginRun();

    /** Schedule every MMU-hang event inside [0, horizon]. */
    void scheduleHangs(Tick horizon);

    /** An injector exists (the plan can inject faults). */
    bool active() const { return injector != nullptr; }

    /** The dispatcher is hung and must not issue. */
    bool mmuHung() const { return mmu_hung; }

    /** Degradation: training shed during a fault storm. */
    bool stormActive() const { return storm_active; }

    /** Degradation: inference shed at admission too. */
    bool shedInference() const { return shed_inference; }

    /** Count one request shed at admission. */
    void countShedRequest() { ++fstats.shed_requests; }

    /**
     * Host-interface transfer with fault-aware retry: on drop or
     * corruption, retries with exponential backoff and jitter until
     * success, the retry budget, or the per-request deadline. With no
     * injector this is exactly host->transfer().
     * @param ok when non-null, set false if the payload was lost for good
     * @return the delivery tick of the last (successful or final) attempt
     */
    Tick hostTransfer(Tick start, ByteCount bytes, dram::Priority prio,
                      bool *ok = nullptr);

    /** Roll training back to the last committed checkpoint and replay. */
    void trainingRollback();

    /** Commit a periodic training checkpoint when the interval passed. */
    void maybeWriteCheckpoint();

    /**
     * Feed faults newly counted in fstats (by the link hooks or the
     * hang machinery) to the storm detector, one event per fault.
     */
    void syncFaults();

    /** Attribute trailing downtime when the run ends inside a hang. */
    void finalizeDowntime();

    /** Fault counters and recovery actions (live). */
    const stats::FaultStats &stats() const { return fstats; }

    /** Every injected fault so far (empty when inactive). */
    std::vector<fault::FaultRecord> trace() const;

  private:
    void onMmuHang();
    void onWatchdogFire();
    void finishReset(Tick hang_start);
    void clearTransientHang(Tick hang_start);
    void accountDowntime(Tick from, Tick upto);
    /** Register one fault occurrence with the storm detector. */
    void noteFault();
    void stormCheck();

    InstructionDispatcher *dispatcher = nullptr;
    TrainPrefetcher *prefetcher = nullptr;

    std::unique_ptr<fault::FaultInjector> injector;
    stats::FaultStats fstats;
    bool mmu_hung = false;
    Tick hang_started_at = 0;
    bool storm_active = false;     //!< degradation: training shed
    bool shed_inference = false;   //!< degradation: requests shed too
    bool storm_check_armed = false;
    std::uint64_t faults_seen = 0; //!< fstats faults already storm-fed
    std::deque<Tick> recent_faults;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_FAULT_UNIT_HH
