/**
 * @file
 * Campaign coordinator: shards the trial-index space into contiguous
 * range leases across however many workers connect, merges their trial
 * records back in trial order, and re-issues the unacknowledged part
 * of a dead or hung worker's lease to a live worker.
 *
 * Bit-identical merge: each trial's counter deltas are a pure function
 * of (spec, trial index) — see fault::CampaignSession — so the merge
 * only has to restore trial order. Within one lease, records arrive in
 * order on one stream socket; across leases, a stash holds early records
 * until the contiguous prefix reaches them, and the prefix feeds the
 * same fault::CampaignMerge runCampaign uses — one journal replay, one
 * fold, one adaptive stop rule. If every worker is gone, the
 * dead-fleet tail drives that merge with fault::runLocal, as
 * runCampaign does. Counters, journal bytes, the stop wave and FH_JSON
 * classification counts therefore equal a single-process run's for any
 * worker count, any chunk size, and any interleaving — including
 * across worker deaths, because a lease's acknowledged prefix is
 * exactly what was merged and the re-issued remainder re-executes
 * trials whose records were never ingested.
 *
 * Elasticity: leases are granted from a sorted queue of chunks,
 * lowest first, one outstanding lease per worker. A worker death
 * (EOF/error) or lease timeout (heartbeat silence) requeues
 * [acknowledged, end) at its sorted position; late joiners are
 * welcomed at any time (Hello -> Spec -> Assign). The coordinator is
 * single-threaded around poll(2) — no locks, no shared state with
 * worker processes beyond the protocol itself.
 */

#ifndef FH_DIST_COORDINATOR_HH
#define FH_DIST_COORDINATOR_HH

#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "dist/spec.hh"
#include "dist/wire.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"

namespace fh::exec
{
class ProgressMeter;
} // namespace fh::exec

namespace fh::dist
{

struct CoordinatorOptions
{
    /** The Unix-domain socket to listen on. It has no default: a
     *  coordinator constructed without a path is fatal. */
    Endpoint listen;
    /** Expected worker count — only sizes the auto chunk; more or
     *  fewer workers may actually join. */
    unsigned workers = 1;
    /** Trials per lease; 0 = auto (~4 leases per expected worker). */
    u64 chunk = 0;
    /** Heartbeat silence after which a worker's lease is revoked and
     *  re-issued. Generous: heartbeats flow even while a worker
     *  grinds one slow trial, so silence really means hung/dead. */
    u64 leaseTimeoutMs = 10000;
    /** After this long with work outstanding and not a single live
     *  worker, run the rest in-process: bit-identical, but flagged in
     *  DistStats::degraded. */
    u64 noWorkerTimeoutMs = 120000;
    /** Ticked per merged trial; its rate clock starts with the first
     *  lease. */
    exec::ProgressMeter *progress = nullptr;
    /** Test hook: behave as if SIGTERM arrived once this many trials
     *  have been merged; 0 = never. */
    u64 stopAfterMerged = 0;
};

/** The fabric's health counters: host-local observability, never on
 *  the wire and never classification. */
struct DistStats
{
    u64 workersJoined = 0; ///< peers whose Hello was accepted
    u64 workersDied = 0;   ///< joined workers lost: EOF, violation, timeout
    u64 rangesIssued = 0;
    u64 rangesReissued = 0;
    u64 trialsMerged = 0;
    u64 crcErrors = 0;     ///< frames rejected by the CRC trailer
    bool degraded = false; ///< tail ran in-process, fleet was dead
};

class Coordinator
{
  public:
    /** Binds and listens immediately (fatal on failure), so workers
     *  can be spawned against endpoint() before run() is entered. */
    Coordinator(const CampaignSpec &spec,
                const CoordinatorOptions &opts);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    const Endpoint &endpoint() const { return listen_; }

    /** Subprocess to forward shutdown signals to. */
    void addChild(pid_t pid);

    /**
     * Drive the campaign to completion (or to a drained shutdown —
     * the result is then marked partial) through a fault::CampaignMerge
     * built here over journal, which may be null. When set, its
     * journaled prefix is replayed upfront and merged records append
     * in trial order, exactly as in a single-process runCampaign; a
     * journal that covers the campaign issues no lease. Call once: on
     * return the endpoint no longer accepts connections.
     */
    fault::CampaignResult run(fault::TrialJournal *journal);

    const DistStats &stats() const { return stats_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Range
    {
        u64 begin;
        u64 end;
    };

    struct Conn
    {
        int fd = -1;
        FrameReader reader;
        bool helloed = false;
        bool hasLease = false;
        Range lease{0, 0};
        u64 leaseNext = 0; ///< acknowledged contiguous prefix
        u64 pid = 0;
        Clock::time_point lastHeard;
    };

    void acceptNew();
    void readFrom(Conn &c);
    bool handleFrame(Conn &c, const Frame &f);
    void dropConn(Conn &c, const char *why);
    void requeue(Range r);
    void trimQueue();
    void issueLeases();
    void drainStash();
    void beginShutdown();
    bool outstandingWork() const;
    void runDegradedTail();

    CampaignSpec spec_;
    CoordinatorOptions opts_;
    Endpoint listen_;
    int listenFd_ = -1;
    std::vector<Conn> conns_;
    std::vector<pid_t> children_;

    /** One merged trial: the journal record pair. */
    struct MergedTrial
    {
        fault::CampaignResult delta;
        fault::TrialMeta meta;
    };

    std::deque<Range> queue_; ///< sorted by begin, non-overlapping
    std::map<u64, MergedTrial> stash_;
    /** The merged prefix, built by run(); its end() bounds the queue. */
    std::optional<fault::CampaignMerge> merge_;
    bool shuttingDown_ = false;
    DistStats stats_;
};

} // namespace fh::dist

#endif // FH_DIST_COORDINATOR_HH
