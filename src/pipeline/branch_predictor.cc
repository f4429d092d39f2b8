#include "pipeline/branch_predictor.hh"

#include "sim/logging.hh"
#include "sim/popcount.hh"

namespace fh::pipeline
{

BranchPredictor::BranchPredictor(unsigned entries)
    : counters_(entries, 2), history_(8, 0)
{
    fh_assert(hasSingleBit(entries),
              "predictor entries must be a power of two");
}

unsigned
BranchPredictor::index(unsigned tid, u64 pc) const
{
    const u64 h = history_[tid % history_.size()];
    return static_cast<unsigned>((pc ^ (h << 2) ^ (u64(tid) << 9)) %
                                 counters_.size());
}

bool
BranchPredictor::predict(unsigned tid, u64 pc) const
{
    return counters_[index(tid, pc)] >= 2;
}

void
BranchPredictor::update(unsigned tid, u64 pc, bool taken)
{
    ++lookups_;
    u8 &ctr = counters_[index(tid, pc)];
    if ((ctr >= 2) == taken)
        ++correct_;
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    u16 &h = history_[tid % history_.size()];
    h = static_cast<u16>((h << 1) | (taken ? 1 : 0));
}

} // namespace fh::pipeline
