#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace fh::mem
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    fh_assert(params_.lineBytes > 0 && params_.ways > 0, "bad cache params");
    u64 lines = params_.sizeBytes / params_.lineBytes;
    fh_assert(lines % params_.ways == 0, "size/ways mismatch");
    numSets_ = static_cast<unsigned>(lines / params_.ways);
    fh_assert(std::has_single_bit(static_cast<u64>(numSets_)),
              "sets must be a power of two");
    tags_.resize(lines, 0);
    valid_.resize(lines, 0);
    lastUse_.resize(lines, 0);
    readyAt_.resize(lines, 0);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / params_.lineBytes) % numSets_);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / params_.lineBytes / numSets_;
}

bool
Cache::find(Addr addr, Cycle now, Cycle &ready_at)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * params_.ways;
    ++useClock_;

    for (unsigned w = 0; w < params_.ways; ++w) {
        const size_t i = base + w;
        if (valid_[i] && tags_[i] == tag) {
            lastUse_[i] = useClock_;
            ready_at = readyAt_[i] > now ? readyAt_[i] : now;
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
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * params_.ways;
    ++useClock_;

    // Victim preference: refill of an existing line, else the last
    // invalid way, else true LRU.
    size_t victim = base;
    for (unsigned w = 0; w < params_.ways; ++w) {
        const size_t i = base + w;
        if (valid_[i] && tags_[i] == tag) {
            victim = i; // refill of an existing line
            break;
        }
        if (!valid_[i]) {
            victim = i;
        } else if (valid_[victim] && lastUse_[i] < lastUse_[victim]) {
            victim = i;
        }
    }

    valid_[victim] = 1;
    tags_[victim] = tag;
    lastUse_[victim] = useClock_;
    readyAt_[victim] = ready_at;
}

double
Cache::missRate() const
{
    u64 total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / total : 0.0;
}

} // namespace fh::mem
