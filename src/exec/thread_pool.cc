#include "exec/thread_pool.hh"

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

namespace
{

/** body(item, worker), with what it threw. */
std::exception_ptr
invoke(const ThreadPool::Body &body, u64 item, unsigned worker)
{
    try {
        body(item, worker);
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    fh_assert(threads >= 1, "a pool needs at least one worker");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fh_assert(!body_, "ThreadPool destroyed with a stream open");
        stop_ = true;
    }
    work_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_.wait(lock, [&] {
            return stop_ || (!error_ && claimed_ < pushed_);
        });
        if (stop_)
            return;
        const u64 item = claimed_++;
        const Body &body = *body_;
        ++running_;
        lock.unlock();
        std::exception_ptr error = invoke(body, item, self);
        lock.lock();
        --running_;
        settle(item, std::move(error));
        finished_.notify_all();
    }
}

void
ThreadPool::settle(u64 item, std::exception_ptr error)
{
    if (!error)
        done_[item % done_.size()] = 1;
    else if (!error_)
        error_ = std::move(error);
}

void
ThreadPool::awaitWorkers(std::unique_lock<std::mutex> &lock)
{
    finished_.wait(lock, [&] {
        return running_ == 0 && (error_ || claimed_ == pushed_);
    });
}

void
ThreadPool::parallelFor(u64 n, const Body &body)
{
    if (n == 0)
        return;
    Stream stream(*this, n, body);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        pushed_ = n;
        work_.notify_all();
        awaitWorkers(lock);
        error = error_;
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool::Stream::Stream(ThreadPool &pool, u64 capacity, Body body)
    : pool_(pool), capacity_(capacity), body_(std::move(body))
{
    fh_assert(capacity_ >= 1, "a stream holds at least one item");
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    fh_assert(!pool_.body_, "ThreadPool runs one job at a time");
    pool_.body_ = &body_;
    pool_.done_.assign(capacity_, 0);
}

ThreadPool::Stream::~Stream()
{
    std::unique_lock<std::mutex> lock(pool_.mutex_);
    pool_.awaitWorkers(lock);
    pool_.body_ = nullptr;
    pool_.done_.clear();
    pool_.pushed_ = pool_.claimed_ = pool_.retired_ = 0;
    pool_.error_ = nullptr;
}

void
ThreadPool::Stream::rethrowFailure() const
{
    if (pool_.error_)
        std::rethrow_exception(pool_.error_);
}

void
ThreadPool::Stream::push()
{
    fh_assert(!full(), "push onto a full stream");
    {
        std::lock_guard<std::mutex> lock(pool_.mutex_);
        ++pool_.pushed_;
    }
    pool_.work_.notify_one();
}

bool
ThreadPool::Stream::retire()
{
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    rethrowFailure();
    if (empty())
        return false;
    char &done = pool_.done_[pool_.retired_ % capacity_];
    if (!done)
        return false;
    done = 0;
    ++pool_.retired_;
    return true;
}

void
ThreadPool::Stream::help()
{
    fh_assert(!empty(), "help on an empty stream");
    std::unique_lock<std::mutex> lock(pool_.mutex_);
    rethrowFailure();
    if (pool_.claimed_ < pool_.pushed_) {
        const u64 item = pool_.claimed_++;
        lock.unlock();
        std::exception_ptr error = invoke(body_, item, pool_.size());
        lock.lock();
        pool_.settle(item, error);
        if (error)
            std::rethrow_exception(error);
        return;
    }
    pool_.finished_.wait(lock, [&] {
        return pool_.error_ || pool_.done_[pool_.retired_ % capacity_];
    });
    rethrowFailure();
}

} // namespace fh::exec
