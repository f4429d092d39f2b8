#include "exec/thread_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fh::exec
{

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
resolveThreads(unsigned requested)
{
    return requested ? requested : hardwareThreads();
}

namespace
{
thread_local unsigned tlsWorkerIndex = 0;

/** Makes the calling thread index 0 of the pool it is calling into,
 *  restoring its index in an outer pool on every exit. */
class CallerIndexScope
{
  public:
    CallerIndexScope() : saved_(tlsWorkerIndex) { tlsWorkerIndex = 0; }
    ~CallerIndexScope() { tlsWorkerIndex = saved_; }
    CallerIndexScope(const CallerIndexScope &) = delete;
    CallerIndexScope &operator=(const CallerIndexScope &) = delete;

  private:
    unsigned saved_;
};
} // namespace

unsigned
ThreadPool::currentWorker()
{
    return tlsWorkerIndex;
}

ThreadPool::ThreadPool(unsigned threads)
    : nthreads_(std::max(1u, resolveThreads(threads)))
{
    workers_.reserve(nthreads_ - 1);
    for (unsigned i = 1; i < nthreads_; ++i)
        workers_.emplace_back([this, i] {
            tlsWorkerIndex = i;
            workerLoop();
        });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::runChunks(Job &job)
{
    for (;;) {
        const u64 begin =
            job.next.fetch_add(job.grain, std::memory_order_relaxed);
        if (begin >= job.n)
            return;
        const u64 end = std::min(job.n, begin + job.grain);
        if (job.aborted.load(std::memory_order_acquire)) {
            // A body already failed: drain the remaining index space
            // without executing it, but account for it as skipped —
            // not silently "done" — so the caller can report how much
            // of the loop never ran.
            job.skipped.fetch_add(end - begin,
                                  std::memory_order_relaxed);
        } else {
            u64 i = begin;
            try {
                for (; i < end; ++i)
                    (*job.body)(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!job.error)
                        job.error = std::current_exception();
                }
                // The rest of this chunk is abandoned too (the index
                // that threw counts as executed, not skipped).
                job.skipped.fetch_add(end - i - 1,
                                      std::memory_order_relaxed);
                job.aborted.store(true, std::memory_order_release);
            }
        }
        if (job.done.fetch_add(end - begin) + (end - begin) >= job.n) {
            // Last chunk: wake the caller blocked in parallelFor.
            std::lock_guard<std::mutex> lock(mutex_);
            idle_.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    u64 seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [&] { return stop_ || (job_ && generation_ != seen); });
        if (stop_)
            return;
        seen = generation_;
        Job &job = *job_;
        ++busy_;
        lock.unlock();
        runChunks(job);
        lock.lock();
        if (--busy_ == 0)
            idle_.notify_all();
    }
}

void
ThreadPool::parallelFor(u64 n, u64 grain,
                        const std::function<void(u64)> &body)
{
    if (n == 0)
        return;
    // A body may itself call parallelFor on another pool (a campaign
    // run on an outer pool's worker): inside that call this thread is
    // the inner pool's caller, so scratch indexed by currentWorker()
    // stays below the inner pool's size.
    CallerIndexScope caller;
    lastSkipped_ = 0;
    grain = std::max<u64>(1, grain);
    if (nthreads_ == 1 || n == 1) {
        // Inline path: an exception propagates directly; the indices
        // after it were never claimed, which is the same "skipped"
        // accounting the pooled path reports.
        u64 i = 0;
        try {
            for (; i < n; ++i)
                body(i);
        } catch (...) {
            lastSkipped_ = n - i - 1;
            if (lastSkipped_)
                fh_warn("parallelFor aborted by an exception: %llu of "
                        "%llu indices skipped",
                        static_cast<unsigned long long>(lastSkipped_),
                        static_cast<unsigned long long>(n));
            throw;
        }
        return;
    }

    Job job;
    job.n = n;
    job.grain = grain;
    job.body = &body;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++generation_;
    }
    wake_.notify_all();

    runChunks(job); // the caller is a worker too

    // job lives on this stack frame: wait until every index ran AND
    // every worker has stepped out of runChunks before retiring it.
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [&] {
            return job.done.load() >= job.n && busy_ == 0;
        });
        job_ = nullptr;
    }

    if (job.error) {
        lastSkipped_ = job.skipped.load(std::memory_order_relaxed);
        if (lastSkipped_)
            fh_warn("parallelFor aborted by an exception: %llu of %llu "
                    "indices skipped",
                    static_cast<unsigned long long>(lastSkipped_),
                    static_cast<unsigned long long>(job.n));
        std::rethrow_exception(job.error);
    }
}

} // namespace fh::exec
