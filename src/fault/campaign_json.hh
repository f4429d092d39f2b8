/**
 * @file
 * The machine-readable FH_JSON campaign record that fhsim's `json=`
 * writes, so scripts and CI parse one schema: configuration,
 * classification counts (including the resilience-layer trialErrors /
 * hung-fork counters), Figure 11 bins, the pooled half-width the
 * adaptive stop compares with ci_target, busy time per phase, and a
 * "partial" marker set when the campaign was interrupted and drained
 * instead of running to completion; and the stderr summary that
 * prints the same pairs.
 */

#ifndef FH_FAULT_CAMPAIGN_JSON_HH
#define FH_FAULT_CAMPAIGN_JSON_HH

#include <cstdio>
#include <string>

#include "fault/campaign.hh"

namespace fh::fault
{

/**
 * A campaign's wall time in seconds: the whole run (FH_JSON
 * elapsed_seconds), and the part since its first executed trial
 * (exec::ProgressMeter::executingSeconds; the trials_per_second
 * denominator, which warmup and a resume's skip-advance stay out of).
 */
struct WallTime
{
    double elapsed = 0.0;
    double executing = 0.0;
};

/**
 * Write the campaign record to path ("-" = stdout). workers is the
 * resolved fork-thread count. Returns false (with a warning) if the
 * file cannot be opened.
 */
bool writeCampaignJson(const std::string &path, const std::string &bench,
                       unsigned workers, const CampaignConfig &cfg,
                       const CampaignResult &r, WallTime time);

/**
 * Print the same record as a human summary to out, each line starting
 * with "label: ": one line per FH_JSON block — "campaign" for the top
 * level, then "classification", "bins", "scheduler", "phases_ns"
 * and "phases_pct" — as `key=value` pairs with FH_JSON's
 * keys and value text; then one line per profile stratum that saw a
 * trial, and the five PCs with the most SDCs.
 */
void printCampaignSummary(std::FILE *out, const char *label,
                          const std::string &bench, unsigned workers,
                          const CampaignConfig &cfg,
                          const CampaignResult &r, WallTime time);

} // namespace fh::fault

#endif // FH_FAULT_CAMPAIGN_JSON_HH
