#include "exec/stream.hh"

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

Stream::Stream(unsigned workers, u64 capacity, Body body)
    : capacity_(capacity), body_(std::move(body))
{
    fh_assert(capacity_ >= 1, "a stream holds at least one item");
    done_.assign(capacity_, 0);
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

Stream::~Stream()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!error_ && claimed_ < pushed_)
            runOne(lock, size());
        finished_.wait(lock, [&] { return running_ == 0; });
        stop_ = true;
    }
    work_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
Stream::runOne(std::unique_lock<std::mutex> &lock, unsigned worker)
{
    const u64 item = claimed_++;
    ++running_;
    lock.unlock();
    std::exception_ptr error;
    try {
        body_(item, worker);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    --running_;
    if (!error)
        done_[item % capacity_] = 1;
    else if (!error_)
        error_ = error;
    finished_.notify_all();
}

void
Stream::workerLoop(unsigned self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_.wait(lock, [&] {
            return stop_ || (!error_ && claimed_ < pushed_);
        });
        if (stop_)
            return;
        runOne(lock, self);
    }
}

void
Stream::rethrowFailure() const
{
    if (error_)
        std::rethrow_exception(error_);
}

void
Stream::push()
{
    fh_assert(!full(), "push onto a full stream");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pushed_;
    }
    work_.notify_one();
}

bool
Stream::retire()
{
    std::lock_guard<std::mutex> lock(mutex_);
    rethrowFailure();
    if (empty())
        return false;
    char &done = done_[retired_ % capacity_];
    if (!done)
        return false;
    done = 0;
    ++retired_;
    return true;
}

void
Stream::help()
{
    fh_assert(!empty(), "help on an empty stream");
    std::unique_lock<std::mutex> lock(mutex_);
    rethrowFailure();
    if (claimed_ < pushed_) {
        runOne(lock, size());
    } else {
        finished_.wait(lock, [&] {
            return error_ || done_[retired_ % capacity_];
        });
    }
    rethrowFailure();
}

} // namespace fh::exec
