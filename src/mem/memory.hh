/**
 * @file
 * Simulated physical memory with segment-based validity.
 *
 * Accesses are 64-bit words. The workload declares valid segments;
 * accesses outside any segment or misaligned accesses raise an access
 * fault, which the tandem fault classifier uses to bin "noisy" faults
 * (fault-induced exceptions) exactly as the paper does.
 *
 * Storage is dense per segment (flat vectors) behind copy-on-write
 * backings: copying a Memory — which the tandem fault framework does
 * several times per injection trial, whole-Core copies included —
 * only bumps a reference count per segment, and the first write
 * through a shared backing detaches a private copy. A fork that never
 * writes a segment never pays for it.
 *
 * Each backing also carries an incremental content digest: an XOR
 * multiset hash over (address, word) pairs of the nonzero words, kept
 * up to date in O(1) per write. The digest is a pure function of the
 * segment contents — independent of write order and of COW sharing —
 * so two segments with different digests provably differ, and the
 * tandem classifier can compare whole memories against a recorded
 * golden checkpoint in O(segments) without sweeping any words.
 */

#ifndef FH_MEM_MEMORY_HH
#define FH_MEM_MEMORY_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace fh::mem
{

/** A contiguous valid address range, [base, base + size). */
struct Segment
{
    Addr base = 0;
    u64 size = 0;

    bool contains(Addr a) const { return a >= base && a < base + size; }

    bool operator==(const Segment &other) const = default;
};

/** Outcome of a memory access attempt. */
enum class AccessResult : u8
{
    Ok,        ///< access completed
    Unmapped,  ///< address outside every declared segment
    Misaligned ///< address not 8-byte aligned
};

/** Word-granular memory backed by dense per-segment COW storage. */
class Memory
{
  public:
    Memory() = default;
    Memory(const Memory &) = default;
    Memory(Memory &&) = default;
    Memory &operator=(Memory &&) = default;

    /**
     * Copy assignment recycles storage: a backing whose target-side
     * buffer is exclusively owned (a scratch fork's privately
     * detached segment) is stashed as a spare instead of freed, and
     * the next detach copies into the spare rather than allocating.
     * A reused fork thus COWs exactly as before — only written
     * segments are ever copied — but with no allocation or page
     * churn in the steady state. Contents and digests are identical
     * either way.
     */
    Memory &operator=(const Memory &other);

    /** Declare a valid segment (zero-filled). May not overlap. */
    void addSegment(Addr base, u64 size);
    std::vector<Segment> segments() const;

    /** Check validity without accessing. */
    AccessResult check(Addr a) const;

    /** Read the 64-bit word at a; result through value. */
    AccessResult read(Addr a, u64 &value) const;

    /** Write the 64-bit word at a. */
    AccessResult write(Addr a, u64 value);

    /** Backdoor read; returns 0 outside declared segments. */
    u64 peek(Addr a) const;
    /** Backdoor write; ignored outside declared segments. */
    void poke(Addr a, u64 value);

    /** Total words across all declared segments. */
    size_t footprintWords() const;

    /** Number of declared segments (digest index space). */
    size_t segmentCount() const { return backings_.size(); }

    /**
     * Content digest of segment i (declaration order): XOR over the
     * segment's nonzero words of wordHash(addr, word). Equal contents
     * always give equal digests; unequal digests prove unequal
     * contents. Maintained incrementally by write()/poke().
     */
    u64 segmentDigest(size_t i) const { return backings_[i].digest; }

    /** True if all segment contents match the other memory. */
    bool sameContents(const Memory &other) const;

    /** Same segments and same contents (COW sharing is invisible). */
    bool operator==(const Memory &other) const
    {
        return sameContents(other);
    }

    /**
     * Hash contribution of one (address, word) pair to a segment
     * digest. Zero words contribute nothing, so a freshly declared
     * (zero-filled) segment starts at digest 0 without a sweep.
     */
    static u64 wordHash(Addr a, u64 v)
    {
        if (v == 0)
            return 0;
        u64 x = v ^ mix64(a * 0x9e3779b97f4a7c15ULL);
        return mix64(x);
    }

  private:
    /** splitmix64 finalizer: a cheap, well-mixing 64-bit permutation. */
    static u64 mix64(u64 x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    struct Backing
    {
        Segment seg;
        /** Shared until the first write after a copy; read-mostly
         *  forks of one machine state alias the same storage. */
        std::shared_ptr<std::vector<u64>> words;
        /** XOR-multiset content digest; travels with the value (a
         *  copied Memory keeps the digest even while sharing words). */
        u64 digest = 0;
        /** Retired private buffer awaiting reuse by detach(). Only
         *  consumed while exclusively held, so sharing it around via
         *  backing copies is safe, just unproductive. */
        std::shared_ptr<std::vector<u64>> spare;
    };

    const Backing *find(Addr a) const;
    Backing *find(Addr a);

    /**
     * Give b private storage before a write lands in it. Safe when
     * other threads hold references to the old storage: they only read
     * it, and a stale use_count over-estimate merely causes a harmless
     * extra copy. A count of 1 means the last other owner has dropped
     * its reference, possibly on another thread (a campaign's fork
     * executor releasing a snapshot that still shares a buffer with
     * the master). use_count() is a relaxed load, so the acquire fence
     * pairs with that owner's release decrement: its reads of the
     * buffer happen before the write this thread is about to make.
     */
    static void detach(Backing &b)
    {
        if (b.words.use_count() <= 1) {
            std::atomic_thread_fence(std::memory_order_acquire);
            return;
        }
        if (b.spare && b.spare.use_count() == 1 &&
            b.spare->size() == b.words->size()) {
            std::atomic_thread_fence(std::memory_order_acquire);
            *b.spare = *b.words; // same-size copy: no allocation
            b.words = std::move(b.spare);
        } else {
            b.words = std::make_shared<std::vector<u64>>(*b.words);
        }
    }

    std::vector<Backing> backings_;
    /** Last backing hit by find(); accesses cluster per segment, so
     *  this kills the linear segment scan on the hot path. */
    mutable unsigned lastHit_ = 0;
};

} // namespace fh::mem

#endif // FH_MEM_MEMORY_HH
