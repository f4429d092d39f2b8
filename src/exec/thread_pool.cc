#include "exec/thread_pool.hh"

#include <algorithm>
#include <utility>

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
} // namespace

unsigned
ThreadPool::currentWorker()
{
    return tlsWorkerIndex;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = std::max(1u, resolveThreads(threads));
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] {
            tlsWorkerIndex = i;
            workerLoop();
        });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return running_ == 0; });
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    u64 seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        lock.unlock();
        for (;;) {
            const u64 i = next_++;
            if (failed_ || i >= n_)
                break;
            try {
                body_(i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                failed_ = true;
            }
        }
        lock.lock();
        if (--running_ == 0)
            done_.notify_all();
    }
}

void
ThreadPool::post(u64 n, std::function<void(u64)> body)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fh_assert(!posted_, "ThreadPool::post before the previous loop "
                            "was waited for");
        posted_ = true;
        if (n == 0)
            return;
        body_ = std::move(body);
        n_ = n;
        next_ = 0;
        failed_ = false;
        running_ = size();
        ++generation_;
    }
    wake_.notify_all();
}

bool
ThreadPool::idle() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_ == 0;
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return running_ == 0; });
        posted_ = false;
        error = std::exchange(error_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace fh::exec
