/**
 * @file
 * Work-sharing thread-pool runtime. A pool of persistent workers runs
 * one parallel loop at a time: post() hands the loop over and returns
 * at once, the workers claim indices of [0, n) one at a time through
 * an atomic cursor (so a worker that finishes early keeps taking the
 * remaining ones), and wait() blocks until the loop is done. The
 * posting thread never runs a body, so it is free to do other work
 * between post() and wait() — a campaign's producer advances the
 * master while the pool runs the previous wave of forks.
 *
 * Determinism contract: a loop imposes no execution order. Callers
 * get bit-identical results across thread counts only when every
 * index's work is independent and writes to its own output slot, with
 * any reduction done serially afterwards — the pattern
 * fault::CampaignSession uses for its waves of trials.
 */

#ifndef FH_EXEC_THREAD_POOL_HH
#define FH_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/types.hh"

namespace fh::exec
{

/** Host hardware thread count (never 0). */
unsigned hardwareThreads();

/** Map a requested worker count to an actual one (0 = all hardware). */
unsigned resolveThreads(unsigned requested);

class ThreadPool
{
  public:
    /** Start `threads` workers; 0 = one per hardware thread. */
    explicit ThreadPool(unsigned threads = 0);
    /** Lets a posted loop finish, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Index of the executing worker within its pool, 0..size()-1,
     * fixed when the worker starts: a body may index a caller-owned
     * array of size() entries without synchronization, whichever
     * thread posted the loop. Threads that are no pool's worker
     * report 0.
     */
    static unsigned currentWorker();

    /**
     * Start running body(i) for every i in [0, n) on the workers and
     * return at once. The previous loop must have been waited for.
     * The first exception a body throws is latched, the indices not
     * yet claimed are abandoned, and wait() rethrows it.
     */
    void post(u64 n, std::function<void(u64)> body);

    /** No loop is running: none was posted, or the last one is done. */
    bool idle() const;

    /**
     * Block until the posted loop (if any) is done, then rethrow the
     * first exception one of its bodies threw. The pool then accepts
     * the next loop.
     */
    void wait();

    /** post() followed by wait(). */
    void parallelFor(u64 n, std::function<void(u64)> body)
    {
        post(n, std::move(body));
        wait();
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable wake_; ///< workers: a loop was posted
    std::condition_variable done_; ///< waiters: every worker is out
    std::function<void(u64)> body_;
    u64 n_ = 0;
    std::atomic<u64> next_{0};         ///< first unclaimed index
    std::atomic<bool> failed_{false};  ///< a body threw; claim no more
    std::exception_ptr error_;         ///< first failure
    u64 generation_ = 0; ///< bumped once per posted loop
    unsigned running_ = 0; ///< workers not yet out of the posted loop
    bool posted_ = false;  ///< posted and not yet waited for
    bool stop_ = false;
};

} // namespace fh::exec

#endif // FH_EXEC_THREAD_POOL_HH
