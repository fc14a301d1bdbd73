/**
 * @file
 * The shared service/batch/training state records the simulation blocks
 * exchange, plus the typed BatchQueue port that carries formed batches
 * from the request dispatcher to the instruction dispatcher.
 *
 * These used to be private structs inside the monolithic Accelerator;
 * they live here so blocks and tests can name them directly.
 */

#ifndef EQUINOX_SIM_BLOCKS_INF_TYPES_HH
#define EQUINOX_SIM_BLOCKS_INF_TYPES_HH

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "sim/accelerator_types.hh"
#include "sim/arrival_stream.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace sim
{

/** One installed inference service (a hardware context, Figure 5). */
struct InfService
{
    ContextId id = 0;
    InferenceServiceDesc desc;
    Tick timeout_cycles = 0;      //!< adaptive batch-formation threshold
    ArrivalStream stream;         //!< arrival candidates (peak rate)
    std::deque<Tick> pending;     //!< arrival ticks awaiting batching
    bool timeout_armed = false;
    stats::LatencyTracker latency_cycles; //!< measured window
};

/**
 * A formed batch moving through the datapath. The BatchQueue owns it
 * from formation until the datapath retires it.
 */
struct InfBatch
{
    InfService *svc = nullptr;
    std::uint32_t real = 0;       //!< real requests (rest is padding)
    std::vector<Tick> arrivals;
    std::size_t step = 0;
    Tick issued_in_step = 0;      //!< MMU cycles of the step already run
    Tick ready_at = 0;            //!< next step's dependence-ready tick
    Tick first_issue = kTickMax;
    bool in_flight = false;
};

/** The training service's execution and prefetch state. */
struct TrainState
{
    TrainingServiceDesc desc;
    ByteCount staging_capacity = 0;
    std::size_t step = 0;
    Tick issued_in_step = 0;
    Tick ready_at = 0;
    bool in_flight = false;
    double staged_bytes = 0.0;
    double inflight_bytes = 0.0;
    std::size_t prefetch_step = 0;
    ByteCount prefetch_off = 0;
    /**
     * Synthesized DRAM addresses for the memory hierarchy: byte offset
     * of the prefetch walk (reads) and of the store-back stream
     * (writes) within the current training pass. Both rewind to 0 when
     * their walk wraps to step 0, so every pass re-touches the same
     * addresses -- the reuse the LLC can exploit. Ignored (never read)
     * by the passthrough hierarchy.
     */
    ByteCount mem_read_cursor = 0;
    ByteCount mem_store_cursor = 0;
    std::uint64_t iterations = 0;
    /** Iterations durably saved by the last checkpoint (recovery). */
    std::uint64_t committed_iterations = 0;
    /**
     * Bumped on every rollback/reset; in-flight prefetch completions
     * and MMU chunks from an older epoch are stale and ignored.
     */
    std::uint64_t epoch = 0;
};

/**
 * FIFO port between the batch former (producer) and the instruction
 * dispatcher / datapath (consumers), and the owner of every batch in
 * flight. Iteration order is arrival order; retirement erases (and
 * frees) the batch wherever it sits, preserving the order of the rest
 * -- the scan-based scheduling policies depend on it.
 *
 * Backed by a flat vector: the instruction dispatcher's ready-batch
 * scan is the simulator's single hottest loop, and contiguous pointer
 * iteration is several times cheaper than std::deque's segmented
 * iterators. The queue is short (a handful of in-flight batches), so
 * the O(n) erase in retire() is a small memmove.
 */
class BatchQueue
{
  public:
    using Storage = std::vector<std::unique_ptr<InfBatch>>;

    void push(std::unique_ptr<InfBatch> b) { q.push_back(std::move(b)); }

    /** Remove and free @p b; @return false when it was not queued. */
    bool
    retire(const InfBatch *b)
    {
        auto it = std::find_if(q.begin(), q.end(),
                               [b](const auto &p) { return p.get() == b; });
        if (it == q.end())
            return false;
        q.erase(it);
        return true;
    }

    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    /** Free every queued batch (a run's horizon may cut them off). */
    void clear() { q.clear(); }

    Storage::const_iterator begin() const { return q.begin(); }
    Storage::const_iterator end() const { return q.end(); }

  private:
    Storage q;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_INF_TYPES_HH
