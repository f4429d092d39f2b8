/**
 * @file
 * Thread-safe campaign progress reporting: counts completed work items
 * and periodically logs throughput (executed items/s) and an ETA
 * through sim/logging. Built for ticks arriving from many pool workers
 * at once — the hot path is one relaxed atomic increment and a clock
 * read, and only the one thread that crosses the reporting interval
 * formats a line. The rate clock starts with the first executed item,
 * so the time a run spends before it (warmup, a resume's skip-advance
 * over its replayed prefix) counts in no rate.
 */

#ifndef FH_EXEC_PROGRESS_HH
#define FH_EXEC_PROGRESS_HH

#include <atomic>
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

    /** The first executed item begins now: start the rate clock
     *  unless it runs. A campaign session calls this after its warmup
     *  and its skip-advance over a replayed prefix, a coordinator when
     *  it leases its first range. Call it before the first tick. */
    void start();

    /** Record n executed items; may emit one log line, at most one
     *  per interval of the rate clock. */
    void tick(u64 n = 1);

    /** Record n items completed before this run (a journal's replayed
     *  trials): they count in done() and the done/total figure, but
     *  not in the rate or the ETA, which cost no wall time. */
    void replayed(u64 n);

    /** Seconds since the rate clock started, 0 before: the span the
     *  logged rate and ETA divide by, and FH_JSON's trials_per_second
     *  denominator. */
    double executingSeconds() const;

    u64 done() const { return done_.load(std::memory_order_relaxed); }
    u64 total() const { return total_; }

  private:
    static constexpr i64 kNotStarted = -1;

    static i64 nowNs();
    /** Nanoseconds since start(), 0 before. */
    i64 spanNs() const;

    std::string label_;
    u64 total_;
    u64 intervalMs_;
    std::atomic<u64> done_{0};
    std::atomic<u64> replayed_{0};
    std::atomic<i64> firstNs_{kNotStarted}; ///< steady clock at start
    std::atomic<u64> nextLogMs_; ///< since the start
};

} // namespace fh::exec

#endif // FH_EXEC_PROGRESS_HH
