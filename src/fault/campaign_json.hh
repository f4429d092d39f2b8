/**
 * @file
 * The machine-readable FH_JSON campaign record that fhsim's `json=`
 * writes in every mode, so scripts and CI parse one schema:
 * configuration, classification counts (including the
 * resilience-layer trialErrors / hung-fork counters), Figure 11 bins,
 * the wall-time phase breakdown, and a "partial" marker set when the
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
 * Distributed-fabric health for the FH_JSON "fabric" block: host-local
 * observability (like "scheduler" and the phase breakdown), never on
 * the wire and never classification. Filled from dist::DistStats by
 * the coordinator drivers; single-process runs omit the block
 * entirely, keeping their JSON byte-identical to previous revisions.
 */
struct FabricHealth
{
    unsigned workersJoined = 0;
    unsigned workersDied = 0;
    u64 crcErrors = 0;
    u64 reconnects = 0;
    u64 rangesIssued = 0;
    u64 rangesReissued = 0;
    u64 quarantined = 0;
    bool degraded = false; ///< tail ran in-process, fleet was dead
};

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
