#include "pipeline/regfile.hh"

#include "sim/logging.hh"

namespace fh::pipeline
{

void
PhysRegFile::reset()
{
    for (unsigned i = 0; i < numRegs_; ++i) {
        values_[i] = 0;
        ready_[i] = 1;
        free_[i] = 1;
        // Pop order is descending index; purely cosmetic.
        freeStack_[i] = i;
    }
    freeCount_ = numRegs_;
}

bool
PhysRegFile::allocate(unsigned &preg)
{
    if (freeCount_ == 0)
        return false;
    preg = freeStack_[--freeCount_];
    fh_assert(free_[preg], "allocating a non-free register");
    free_[preg] = 0;
    ready_[preg] = 0;
    return true;
}

void
PhysRegFile::resetFreeList(const std::vector<bool> &live)
{
    fh_assert(live.size() == numRegs_, "liveness size mismatch");
    // Bulk free-list rebuild (recovery path): conservatively drop the
    // fault watch without claiming erasure.
    watchPreg_ = kNoWatch;
    freeCount_ = 0;
    for (unsigned preg = 0; preg < numRegs_; ++preg) {
        free_[preg] = live[preg] ? 0 : 1;
        if (!live[preg]) {
            ready_[preg] = 1;
            freeStack_[freeCount_++] = preg;
        }
    }
}

void
PhysRegFile::release(unsigned preg)
{
    fh_assert(preg < numRegs_, "release out of range");
    if (free_[preg]) {
        // Releasing an already-free register: this only happens when a
        // corrupted rename tag frees the wrong register (Section 5.5);
        // hardware would double-insert and corrupt the free list. We
        // model the benign part (no duplicate entries) — the damage is
        // done by the *live* register that never gets freed / gets
        // freed early elsewhere.
        return;
    }
    // A watched register freed before any read was consumed is dead on
    // arrival: the producer slot it corrupted can only be rewritten
    // (allocate() clears ready; consumers of the new mapping wait for
    // the full-word producer write).
    if (preg == watchPreg_) {
        watchPreg_ = kNoWatch;
        watchErased_ = true;
    }
    free_[preg] = 1;
    ready_[preg] = 1;
    freeStack_[freeCount_++] = preg;
}

} // namespace fh::pipeline
