/**
 * @file
 * The machine-readable FH_JSON campaign record that fhsim's `json=`
 * writes in every mode, so scripts and CI parse one schema:
 * configuration, classification counts (including the
 * resilience-layer trialErrors / hung-fork counters), Figure 11 bins,
 * the pooled half-width the adaptive stop compares with ci_target,
 * busy time per phase, and a "partial" marker set when the
 * campaign was interrupted and drained instead of running to
 * completion.
 */

#ifndef FH_FAULT_CAMPAIGN_JSON_HH
#define FH_FAULT_CAMPAIGN_JSON_HH

#include <string>

#include "fault/campaign.hh"

namespace fh::fault
{

/**
 * Distributed-fabric health: the coordinator's counters (the struct
 * dist::DistStats names) and the FH_JSON "fabric" block. Host-local
 * observability (like "scheduler" and the phase breakdown), never on
 * the wire and never classification; single-process runs omit the
 * block entirely.
 */
struct FabricHealth
{
    unsigned workersJoined = 0;
    unsigned workersDied = 0; ///< EOF, protocol violation, or timeout
    u64 rangesIssued = 0;
    u64 rangesReissued = 0;
    u64 trialsMerged = 0;
    u64 crcErrors = 0;     ///< frames rejected by the CRC trailer
    bool degraded = false; ///< tail ran in-process, fleet was dead
};

/**
 * Executed trials per second of the campaign wall time seconds:
 * journal-replayed trials cost no wall time, so they do not count.
 * FH_JSON's "trials_per_second" and fhsim's stderr rate both print it.
 */
double executedTrialsPerSecond(const CampaignResult &r, double seconds);

/**
 * Write the campaign record to path ("-" = stdout). workers is the
 * resolved worker-thread count, seconds the campaign wall time.
 * fabric, when non-null, adds the distributed-run health block.
 * Returns false (with a warning) if the file cannot be opened.
 */
bool writeCampaignJson(const std::string &path, const std::string &bench,
                       unsigned workers, const CampaignConfig &cfg,
                       const CampaignResult &r, double seconds,
                       const FabricHealth *fabric = nullptr);

} // namespace fh::fault

#endif // FH_FAULT_CAMPAIGN_JSON_HH
