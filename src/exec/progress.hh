/**
 * @file
 * Thread-safe campaign progress reporting: counts completed work items
 * and periodically logs throughput (executed items/s) and an ETA
 * through sim/logging. Built for ticks arriving from many pool workers
 * at once — the hot path is a single relaxed atomic increment, and
 * only the one thread that crosses the reporting interval formats a
 * line.
 */

#ifndef FH_EXEC_PROGRESS_HH
#define FH_EXEC_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <string>

#include "sim/types.hh"

namespace fh::exec
{

class ProgressMeter
{
  public:
    /**
     * Logs at most one line per interval_ms. total = 0 means the item
     * count is unknown (rate is reported, ETA is not).
     */
    explicit ProgressMeter(std::string label, u64 total,
                           u64 interval_ms = 2000);

    /** Record n completed items; may emit one log line. */
    void tick(u64 n = 1);

    /** Record n items completed before this run (a journal's replayed
     *  trials): they count in done() and the done/total figure, but
     *  not in the rate or the ETA, which cost no wall time. */
    void replayed(u64 n);

    u64 done() const { return done_.load(std::memory_order_relaxed); }
    u64 total() const { return total_; }

  private:
    using Clock = std::chrono::steady_clock;

    u64 elapsedMs() const;

    std::string label_;
    u64 total_;
    u64 intervalMs_;
    Clock::time_point start_;
    std::atomic<u64> done_{0};
    std::atomic<u64> replayed_{0};
    std::atomic<u64> nextLogMs_;
};

} // namespace fh::exec

#endif // FH_EXEC_PROGRESS_HH
