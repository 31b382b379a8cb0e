/**
 * @file
 * Report writer: dump every measurement of a RunResult to
 * a directory of CSV files (one per paper table/figure), so results
 * can be plotted or diffed outside the process.
 */

#ifndef AVSCOPE_CORE_REPORT_HH
#define AVSCOPE_CORE_REPORT_HH

#include <string>

#include "core/run_result.hh"

namespace av::prof {

/**
 * Write the result's measurements into @p directory (created if
 * needed):
 *
 *   node_latency.csv   — per-node distribution summaries (Fig. 5)
 *   paths.csv          — per-path end-to-end summaries (Fig. 6)
 *   drops.csv          — per-subscription drop stats (Table III)
 *   utilization.csv    — per-owner CPU/GPU shares (Table V)
 *   power.csv          — mean watts and energy (Table VI)
 *   counters.csv       — µarch counters + instruction mix
 *                        (Table VII / Fig. 7)
 *
 * @return false when the directory cannot be created or a file
 *         cannot be written
 */
bool writeRunReport(const RunResult &result,
                    const std::string &directory);

} // namespace av::prof

#endif // AVSCOPE_CORE_REPORT_HH
