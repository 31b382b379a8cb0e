#include "core/report.hh"

#include <filesystem>
#include <fstream>

#include "util/table.hh"

namespace av::prof {

namespace {

/** Render @p table into <dir>/<name>; false on I/O failure. */
bool
emit(const util::Table &table, const std::filesystem::path &dir,
     const char *name)
{
    std::ofstream os(dir / name, std::ios::trunc);
    if (!os)
        return false;
    table.printCsv(os);
    return static_cast<bool>(os);
}

} // namespace

bool
writeRunReport(const RunResult &run, const std::string &directory)
{
    const std::filesystem::path dir(directory);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return false;

    using util::Table;

    // ---- node latency (Fig. 5) -----------------------------------
    Table latency("", {"node", "count", "min_ms", "q1_ms",
                       "median_ms", "mean_ms", "q3_ms", "p99_ms",
                       "max_ms", "stddev_ms"});
    for (const NodeLatency &node : run.nodeLatencies()) {
        const util::DistributionSummary &s = node.summary;
        latency.addRow({node.name, std::to_string(s.count),
                        Table::num(s.min, 4), Table::num(s.q1, 4),
                        Table::num(s.median, 4),
                        Table::num(s.mean, 4), Table::num(s.q3, 4),
                        Table::num(s.p99, 4), Table::num(s.max, 4),
                        Table::num(s.stddev, 4)});
    }
    if (!emit(latency, dir, "node_latency.csv"))
        return false;

    // ---- end-to-end paths (Fig. 6) -------------------------------
    Table paths("", {"path", "count", "min_ms", "q1_ms", "mean_ms",
                     "q3_ms", "p99_ms", "max_ms"});
    for (const NamedSeries &row : run.paths) {
        const auto s = row.series.summarize();
        paths.addRow({row.name, std::to_string(s.count),
                      Table::num(s.min, 4), Table::num(s.q1, 4),
                      Table::num(s.mean, 4), Table::num(s.q3, 4),
                      Table::num(s.p99, 4), Table::num(s.max, 4)});
    }
    if (!emit(paths, dir, "paths.csv"))
        return false;

    // ---- drops (Table III) ---------------------------------------
    Table drops("", {"topic", "node", "delivered", "dropped",
                     "drop_rate"});
    for (const DropRow &row : run.drops) {
        drops.addRow({row.topic, row.node,
                      std::to_string(row.delivered),
                      std::to_string(row.dropped),
                      Table::num(row.dropRate(), 6)});
    }
    if (!emit(drops, dir, "drops.csv"))
        return false;

    // ---- utilization (Table V) -----------------------------------
    Table util_table("", {"owner", "cpu_share", "gpu_residency"});
    for (const UtilizationResult &row : run.utilization) {
        util_table.addRow({row.owner,
                           Table::num(row.cpuShare.mean(), 6),
                           Table::num(row.gpuShare.mean(), 6)});
    }
    util_table.addRow({"TOTAL", Table::num(run.totalCpu.mean(), 6),
                       Table::num(run.totalGpu.mean(), 6)});
    if (!emit(util_table, dir, "utilization.csv"))
        return false;

    // ---- power (Table VI) ----------------------------------------
    Table power("", {"device", "mean_w", "min_w", "max_w",
                     "energy_j"});
    power.addRow({"cpu", Table::num(run.cpuWatts.mean(), 3),
                  Table::num(run.cpuWatts.min(), 3),
                  Table::num(run.cpuWatts.max(), 3),
                  Table::num(run.cpuEnergyJ, 1)});
    power.addRow({"gpu", Table::num(run.gpuWatts.mean(), 3),
                  Table::num(run.gpuWatts.min(), 3),
                  Table::num(run.gpuWatts.max(), 3),
                  Table::num(run.gpuEnergyJ, 1)});
    if (!emit(power, dir, "power.csv"))
        return false;

    // ---- counters (Table VII / Fig. 7) ---------------------------
    Table counters("", {"node", "ipc", "l1_read_miss",
                        "l1_write_miss", "branch_miss", "loads",
                        "stores", "branches", "int", "fp", "div",
                        "simd", "other"});
    for (const CounterRow &row : run.counters) {
        counters.addRow({row.node, Table::num(row.ipc, 4),
                         Table::num(row.l1ReadMissRate, 6),
                         Table::num(row.l1WriteMissRate, 6),
                         Table::num(row.branchMissRate, 6),
                         std::to_string(row.mix.loads),
                         std::to_string(row.mix.stores),
                         std::to_string(row.mix.branches),
                         std::to_string(row.mix.intAlu),
                         std::to_string(row.mix.fpAlu),
                         std::to_string(row.mix.fpDiv),
                         std::to_string(row.mix.simd),
                         std::to_string(row.mix.other)});
    }
    return emit(counters, dir, "counters.csv");
}

} // namespace av::prof
