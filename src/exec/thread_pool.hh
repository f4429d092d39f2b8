/**
 * @file
 * Work-sharing thread-pool runtime. A pool of persistent workers runs
 * one job at a time, of either of two shapes:
 *
 *  - parallelFor(n, body): the workers claim the indices of [0, n) one
 *    at a time, in order (a worker that finishes early keeps taking
 *    the remaining ones), and the call returns when all are done. The
 *    calling thread runs none of them, so a pool of size() workers is
 *    size() busy threads.
 *  - Stream: its owner, the thread that opens it, appends items one at
 *    a time while the workers claim them in append order; the owner
 *    retires each in that order once it is done. At most `capacity`
 *    items are appended and not yet retired. The owner runs an item
 *    only when it asks to (help()): then it takes the oldest unclaimed
 *    one on its own thread. fault::CampaignSession's producer streams
 *    its trials so, and runs one itself when the stream is full
 *    instead of sleeping.
 *
 * Every body receives its item and the index of the thread running
 * it: 0..size()-1 on the pool's workers, size() on a stream's owner.
 * A body may index a caller-owned array of size() + 1 entries (per
 * thread scratch) by it without synchronization, whichever thread
 * opened the job: the owner of a stream on an inner pool runs its
 * items as that pool's size(), even when it is itself a worker of an
 * outer pool.
 *
 * Determinism contract: a job imposes no execution order. Callers get
 * bit-identical results across thread counts only when every item's
 * work is independent and writes to its own output slot, with any
 * reduction done serially in item order afterwards — a stream's
 * retire order, the order fault::CampaignSession sinks its trials in.
 */

#ifndef FH_EXEC_THREAD_POOL_HH
#define FH_EXEC_THREAD_POOL_HH

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

class ThreadPool
{
  public:
    /** A job's body: body(item, worker), worker as in the file
     *  comment. */
    using Body = std::function<void(u64 item, unsigned worker)>;

    class Stream;

    /** Start `threads` (at least 1) workers. */
    explicit ThreadPool(unsigned threads);
    /** Joins the workers; no stream may be open. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Run body(i, worker) for every i in [0, n) on the workers and
     * return when all are done. The first exception a body throws is
     * rethrown here; the indices not yet claimed by then are
     * abandoned.
     */
    void parallelFor(u64 n, const Body &body);

  private:
    void workerLoop(unsigned self);
    /** Record item's end under the lock: done, or the first failure. */
    void settle(u64 item, std::exception_ptr error);
    /** Block until no worker runs an item and none will claim one. */
    void awaitWorkers(std::unique_lock<std::mutex> &lock);

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_;     ///< workers: an item to claim
    std::condition_variable finished_; ///< owner: a worker's item ended
    // The open job, guarded by mutex_ (items are numbered from 0).
    const Body *body_ = nullptr;
    std::vector<char> done_; ///< item % capacity: done, not retired
    u64 pushed_ = 0;         ///< items [0, pushed_) may be claimed
    u64 claimed_ = 0;        ///< items [0, claimed_) were claimed
    u64 retired_ = 0;        ///< items [0, retired_) were retired
    unsigned running_ = 0;   ///< workers inside a body
    std::exception_ptr error_; ///< first failure: claim no more
    bool stop_ = false;
};

/**
 * An in-order stream of items on a pool (see the file comment). Only
 * its owner calls its members, and no other job may run on the pool
 * while it is open. A member that finds a body's failure rethrows it;
 * the stream is then good only for destruction.
 */
class ThreadPool::Stream
{
  public:
    /** Open a stream of at most `capacity` (>= 1) items appended and
     *  not yet retired. */
    Stream(ThreadPool &pool, u64 capacity, Body body);
    /** Lets every appended item finish — after a failure only the
     *  ones workers are running — then closes the stream. */
    ~Stream();

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /** Items appended so far: the next push() appends item pushed(). */
    u64 pushed() const { return pool_.pushed_; }
    /** Items retired so far: the oldest unretired item is retired(). */
    u64 retired() const { return pool_.retired_; }
    bool empty() const { return pushed() == retired(); }
    bool full() const { return pushed() - retired() >= capacity_; }

    /** Append item pushed() for the workers to claim; not when full. */
    void push();

    /** Retire the oldest item if it is done; false if it is not. */
    bool retire();

    /**
     * Run the oldest unclaimed item on the calling thread, as worker
     * pool.size(); when the workers have claimed every appended item,
     * wait until the oldest is done instead. Not when empty.
     */
    void help();

  private:
    void rethrowFailure() const;

    ThreadPool &pool_;
    const u64 capacity_;
    const Body body_;
};

} // namespace fh::exec

#endif // FH_EXEC_THREAD_POOL_HH
