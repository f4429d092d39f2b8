/**
 * @file
 * Work-sharing thread-pool runtime. A pool of persistent workers
 * executes chunked parallel-for loops: indices of [0, n) are handed
 * out through an atomic cursor, so threads that finish their chunk
 * early keep stealing the remaining ones (dynamic load balancing),
 * and the calling thread participates as a worker — a 1-thread pool
 * therefore runs everything inline with zero synchronization.
 *
 * Determinism contract: parallelFor imposes no execution order.
 * Callers get bit-identical results across thread counts only when
 * every index's work is independent and writes to its own output
 * slot, with any reduction done serially afterwards — the pattern
 * fault::runCampaign uses for sharded injection campaigns.
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
    /**
     * threads counts the calling thread too: ThreadPool(4) spawns 3
     * workers and parallelFor adds the caller. 0 = all hardware.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return nthreads_; }

    /**
     * Stable identity of the executing thread within its pool, for
     * per-worker scratch indexing: the pool's caller thread is 0 and
     * spawned workers are 1..size()-1, so any thread inside a
     * parallelFor body may index a caller-owned array of size()
     * entries without synchronization. A thread calling parallelFor
     * is 0 for the duration of the call, even when it is a worker of
     * an outer pool, and gets its outer index back afterwards.
     * Threads that never entered a pool report 0 (they are somebody's
     * caller).
     */
    static unsigned currentWorker();

    /**
     * Run body(i) for every i in [0, n), handing out chunks of grain
     * consecutive indices; blocks until the loop is fully drained.
     * The first exception thrown by any body is rethrown here. Once a
     * failure is latched no further index runs: workers fast-forward
     * through the remaining chunks, counting them as skipped rather
     * than silently "done" — the count is reported via lastSkipped()
     * (and a warning) alongside the rethrown exception, so a caller
     * knows exactly how much of the loop never executed.
     */
    void parallelFor(u64 n, u64 grain,
                     const std::function<void(u64)> &body);
    void parallelFor(u64 n, const std::function<void(u64)> &body)
    {
        parallelFor(n, 1, body);
    }

    /**
     * Indices of the most recent parallelFor that were abandoned
     * because an earlier body threw (0 after a clean loop).
     */
    u64 lastSkipped() const { return lastSkipped_; }

  private:
    struct Job
    {
        std::atomic<u64> next{0}; ///< first unclaimed index
        std::atomic<u64> done{0}; ///< indices executed or skipped
        std::atomic<u64> skipped{0};      ///< abandoned after a failure
        std::atomic<bool> aborted{false}; ///< a body threw; stop work
        u64 n = 0;
        u64 grain = 1;
        const std::function<void(u64)> *body = nullptr;
        std::exception_ptr error; ///< first failure; guarded by mutex_
    };

    void workerLoop();
    void runChunks(Job &job);

    unsigned nthreads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_; ///< workers: a new job was posted
    std::condition_variable idle_; ///< caller: job drained, workers out
    Job *job_ = nullptr;           ///< currently posted job
    u64 generation_ = 0;           ///< bumped once per posted job
    unsigned busy_ = 0;            ///< workers inside runChunks
    bool stop_ = false;
    u64 lastSkipped_ = 0;          ///< see lastSkipped()
};

} // namespace fh::exec

#endif // FH_EXEC_THREAD_POOL_HH
