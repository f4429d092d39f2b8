#include "exec/progress.hh"

#include <algorithm>
#include <chrono>

#include "sim/logging.hh"

namespace fh::exec
{

namespace
{

unsigned long long
ull(u64 v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

ProgressMeter::ProgressMeter(std::string label, u64 total,
                             u64 interval_ms)
    : label_(std::move(label)), total_(total), intervalMs_(interval_ms),
      nextLogMs_(interval_ms)
{
}

i64
ProgressMeter::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
ProgressMeter::start()
{
    i64 first = firstNs_.load(std::memory_order_relaxed);
    if (first == kNotStarted)
        firstNs_.compare_exchange_strong(first, nowNs());
}

i64
ProgressMeter::spanNs() const
{
    const i64 first = firstNs_.load(std::memory_order_relaxed);
    return first == kNotStarted ? 0 : std::max<i64>(0, nowNs() - first);
}

double
ProgressMeter::executingSeconds() const
{
    return static_cast<double>(spanNs()) / 1e9;
}

void
ProgressMeter::tick(u64 n)
{
    const u64 done = done_.fetch_add(n, std::memory_order_relaxed) + n;
    const i64 span = spanNs();
    const u64 ms = static_cast<u64>(span / 1000000);
    u64 next = nextLogMs_.load(std::memory_order_relaxed);
    // One thread wins the CAS per interval; the rest only count.
    if (ms < next ||
        !nextLogMs_.compare_exchange_strong(next, ms + intervalMs_))
        return;
    const double secs = std::max(1e-3, static_cast<double>(span) / 1e9);
    // Replayed items cost no wall time: the rate counts executed ones.
    const u64 executed =
        done - std::min(done, replayed_.load(std::memory_order_relaxed));
    const double rate = static_cast<double>(executed) / secs;
    if (total_ && rate > 0.0) {
        const u64 left = total_ - std::min(done, total_);
        fh_inform("%s: %llu/%llu trials (%.1f%%) | %.1f trials/s | "
                  "ETA %.0fs",
                  label_.c_str(), ull(done), ull(total_),
                  100.0 * static_cast<double>(done) /
                      static_cast<double>(total_),
                  rate, static_cast<double>(left) / rate);
    } else {
        fh_inform("%s: %llu trials | %.1f trials/s", label_.c_str(),
                  ull(done), rate);
    }
}

void
ProgressMeter::replayed(u64 n)
{
    replayed_.fetch_add(n, std::memory_order_relaxed);
    done_.fetch_add(n, std::memory_order_relaxed);
}

} // namespace fh::exec
