/**
 * @file
 * The host-parallel runtime: one in-order stream of work items. A
 * stream starts its workers (zero or more) with its body and capacity,
 * and they live exactly as long as it does. Its owner, the thread
 * that built it, appends items one at a time while the workers claim
 * them in append order; the owner retires each in that order once it
 * is done. At most `capacity` items are appended and not yet retired.
 * The owner runs an item only when it asks to (help()): then it takes
 * the oldest unclaimed one on its own thread, so a stream with no
 * workers runs every item on its owner. fault::CampaignSession's
 * producer streams its trials so, and runs one itself when the stream
 * is full instead of sleeping; bench::runCells appends all its cells
 * and helps until they are retired.
 *
 * Every body receives its item and the index of the thread running
 * it: 0..size()-1 on the workers, size() on the owner. A body may
 * index a caller-owned array of size() + 1 entries (per thread
 * scratch) by it without synchronization, whichever thread built the
 * stream: the owner of a stream built on a worker of another stream
 * runs its items as its own stream's size().
 *
 * Determinism contract: a stream imposes no execution order. Callers
 * get bit-identical results across thread counts only when every
 * item's work is independent and writes to its own output slot, with
 * any reduction done serially in retire order — the order
 * fault::CampaignSession sinks its trials in.
 */

#ifndef FH_EXEC_STREAM_HH
#define FH_EXEC_STREAM_HH

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

/**
 * An in-order stream of items (see the file comment). Only its owner
 * calls its members. A member that finds a body's failure rethrows
 * it; the stream is then good only for destruction.
 */
class Stream
{
  public:
    /** A body: body(item, worker), worker as in the file comment. */
    using Body = std::function<void(u64 item, unsigned worker)>;

    /** Start `workers` (zero or more) threads running body on the
     *  items appended, at most `capacity` (>= 1) of them appended and
     *  not yet retired. */
    Stream(unsigned workers, u64 capacity, Body body);
    /** Lets every appended item finish — after a failure only the
     *  ones running — helping with those no worker claimed, then
     *  joins the workers. */
    ~Stream();

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Items appended so far: the next push() appends item pushed(). */
    u64 pushed() const { return pushed_; }
    /** Items retired so far: the oldest unretired item is retired(). */
    u64 retired() const { return retired_; }
    bool empty() const { return pushed() == retired(); }
    bool full() const { return pushed() - retired() >= capacity_; }

    /** Append item pushed() for the workers to claim; not when full. */
    void push();

    /** Retire the oldest item if it is done; false if it is not. */
    bool retire();

    /**
     * Run the oldest unclaimed item on the calling thread, as worker
     * size(); when every appended item is claimed, wait until the
     * oldest is done instead. Not when empty.
     */
    void help();

  private:
    void workerLoop(unsigned self);
    /** Claim the oldest unclaimed item and run it as `worker`,
     *  unlocking around the body; record it done, or its failure. */
    void runOne(std::unique_lock<std::mutex> &lock, unsigned worker);
    void rethrowFailure() const;

    const u64 capacity_;
    const Body body_;

    std::mutex mutex_;
    std::condition_variable work_;     ///< workers: an item to claim
    std::condition_variable finished_; ///< owner: an item ended
    // Guarded by mutex_; items are numbered from 0.
    std::vector<char> done_; ///< item % capacity: done, not retired
    u64 pushed_ = 0;         ///< items [0, pushed_) may be claimed
    u64 claimed_ = 0;        ///< items [0, claimed_) were claimed
    u64 retired_ = 0;        ///< items [0, retired_) were retired
    unsigned running_ = 0;   ///< threads inside a body
    std::exception_ptr error_; ///< first failure: claim no more
    bool stop_ = false;

    std::vector<std::thread> workers_; ///< started last, joined first
};

} // namespace fh::exec

#endif // FH_EXEC_STREAM_HH
