#include "core/run_result.hh"

#include <algorithm>

namespace av::prof {

namespace {

double
secondsOf(const std::vector<std::pair<std::string, double>> &table,
          const std::string &owner)
{
    for (const auto &[name, seconds] : table)
        if (name == owner)
            return seconds;
    return 0.0;
}

} // namespace

const util::SampleSeries *
RunResult::findNodeSeries(const std::string &name) const
{
    for (const NamedSeries &node : nodes)
        if (node.name == name)
            return &node.series;
    return nullptr;
}

const util::SampleSeries *
RunResult::findPathSeries(Path path) const
{
    for (const NamedSeries &row : paths)
        if (row.name == pathName(path))
            return &row.series;
    return nullptr;
}

std::vector<NodeLatency>
RunResult::nodeLatencies() const
{
    std::vector<NodeLatency> out;
    out.reserve(nodes.size());
    for (const NamedSeries &node : nodes)
        out.push_back({node.name, node.series.summarize()});
    return out;
}

double
RunResult::worstCaseP99() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths)
        worst = std::max(worst, row.series.quantile(0.99));
    return worst;
}

double
RunResult::worstCaseMean() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths)
        worst = std::max(worst, row.series.running().mean());
    return worst;
}

double
RunResult::worstCaseMax() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths) {
        if (row.series.count() > 0)
            worst = std::max(worst, row.series.running().max());
    }
    return worst;
}

double
RunResult::cpuSecondsOf(const std::string &owner) const
{
    return secondsOf(cpuSecondsByOwner, owner);
}

double
RunResult::gpuSecondsOf(const std::string &owner) const
{
    return secondsOf(gpuSecondsByOwner, owner);
}

double
RunResult::resilienceOf(const std::string &name) const
{
    return secondsOf(resilience, name);
}

std::uint64_t
RunResult::violationsOf(stack::InvariantKind kind) const
{
    std::uint64_t n = 0;
    for (const stack::SafetyViolation &v : violations)
        n += v.kind == kind;
    return n;
}

RunResult
snapshotRun(const CharacterizationRun &run, std::string label)
{
    RunResult out;
    out.label = std::move(label);

    for (const perception::PerceptionNode *node :
         run.stack().nodes()) {
        if (node->name() == "costmap_generator") {
            const auto *costmap = static_cast<
                const perception::CostmapGeneratorNode *>(node);
            out.nodes.push_back({"costmap_generator_obj",
                                 costmap->latencySeries()});
            out.nodes.push_back({"costmap_generator_points",
                                 costmap->pointsLatencySeries()});
            continue;
        }
        out.nodes.push_back({node->name(), node->latencySeries()});
    }

    for (auto &[path, series] : pathSeries(run.recorder()))
        out.paths.push_back({pathName(path), std::move(series)});

    out.drops = collectDrops(run.graph());
    out.counters = collectCounters(run.stack().nodes());

    for (const auto &[owner, row] : run.utilization().rows())
        out.utilization.push_back(
            {owner, row.cpuShare, row.gpuShare});
    out.totalCpu = run.utilization().totalCpu();
    out.totalGpu = run.utilization().totalGpu();

    out.cpuWatts = run.power().cpuWatts();
    out.gpuWatts = run.power().gpuWatts();
    out.cpuEnergyJ = run.power().cpuEnergyJ();
    out.gpuEnergyJ = run.power().gpuEnergyJ();

    const auto &cpu_acct = run.machine().cpu().accounting();
    const auto &gpu_acct = run.machine().gpu().accounting();
    out.cpuSecondsByOwner.assign(
        cpu_acct.busySecondsByOwner.begin(),
        cpu_acct.busySecondsByOwner.end());
    out.gpuSecondsByOwner.assign(
        gpu_acct.activeSecondsByOwner.begin(),
        gpu_acct.activeSecondsByOwner.end());

    out.faults = run.faultOutcomes();
    for (const StalenessRow &row : run.staleness().rows())
        out.staleness.push_back({row.topic, row.ageMs});
    out.resilience = run.resilienceCounters();
    out.violations = run.safetyViolations();
    out.transportMode =
        ros::transportModeName(run.config().transport.mode);
    out.transport = run.graph().transportCounters();
    out.trace = run.traceSummary();
    return out;
}

} // namespace av::prof
