#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/popcount.hh"

namespace fh::mem
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    fh_assert(params_.lineBytes > 1 && hasSingleBit(params_.lineBytes),
              "cache lines must be a power of two above one byte");
    fh_assert(params_.ways > 0 && params_.ways <= 256,
              "cache ways must fit a one-byte rank");
    const u64 lines = params_.sizeBytes / params_.lineBytes;
    fh_assert(lines % params_.ways == 0, "size/ways mismatch");
    const u64 sets = lines / params_.ways;
    fh_assert(hasSingleBit(sets), "sets must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<u64>(params_.lineBytes)));
    setShift_ = static_cast<unsigned>(std::countr_zero(sets));
    setMask_ = sets - 1;
    tags_.assign(lines, kInvalid);
    ranks_.resize(lines);
    for (size_t i = 0; i < lines; ++i)
        ranks_[i] = static_cast<u8>(i % params_.ways);
}

void
Cache::touch(size_t base, unsigned w)
{
    const u8 r = ranks_[base + w];
    for (unsigned v = 0; v < params_.ways; ++v)
        ranks_[base + v] += ranks_[base + v] < r;
    ranks_[base + w] = 0;
}

Cycle
Cache::fillReadyAt(size_t line) const
{
    for (const Fill &f : fills_) {
        if (f.line == line)
            return f.readyAt;
    }
    return 0;
}

bool
Cache::find(Addr addr, Cycle now, Cycle &ready_at)
{
    const Addr lineAddr = addr >> lineShift_;
    const Addr tag = lineAddr >> setShift_;
    const size_t base = (lineAddr & setMask_) * params_.ways;

    for (unsigned w = 0; w < params_.ways; ++w) {
        if (tags_[base + w] == tag) {
            touch(base, w);
            ready_at = std::max(now, fillReadyAt(base + w));
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Cache::install(Addr addr, Cycle now, Cycle ready_at)
{
    (void)now;
    const Addr lineAddr = addr >> lineShift_;
    const Addr tag = lineAddr >> setShift_;
    const size_t base = (lineAddr & setMask_) * params_.ways;

    // A way never empties once filled, so filled ways hold the lowest
    // ranks: once no way is empty, the LRU is the rank-(ways - 1) way.
    unsigned victim = params_.ways; // no refill, no empty way yet
    unsigned lru = 0;
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Addr t = tags_[base + w];
        if (t == tag) {
            victim = w; // refill of an existing line
            break;
        }
        if (t == kInvalid)
            victim = w;
        else if (ranks_[base + w] == params_.ways - 1)
            lru = w;
    }
    if (victim == params_.ways)
        victim = lru;

    const size_t line = base + victim;
    tags_[line] = tag;
    touch(base, victim);
    nextDue_ = std::min(nextDue_, ready_at);
    for (Fill &f : fills_) {
        if (f.line == line) {
            f.readyAt = ready_at;
            return;
        }
    }
    fills_.push_back({ready_at, line});
}

void
Cache::expireDue(Cycle floor)
{
    Cycle next = kNever;
    size_t kept = 0;
    for (const Fill &f : fills_) {
        if (f.readyAt > floor) {
            fills_[kept++] = f;
            next = std::min(next, f.readyAt);
        }
    }
    fills_.resize(kept);
    nextDue_ = next;
}

double
Cache::missRate() const
{
    u64 total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / total : 0.0;
}

} // namespace fh::mem
