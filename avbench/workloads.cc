/**
 * @file
 * The three workloads, each run through the public exp::Runner path
 * the benches use, and their correctness checks.
 *
 * Inputs from the seed: the world and its sensors stay the calibrated
 * drive every finding and golden is pinned to (ScenarioConfig seed
 * 2020, camera phase 37 ms), and so do campaign's fault plans; the
 * seed sets how long the recorded drive runs past its base length.
 * Scene seeds and camera phases were not used: across scenes the
 * host cost of a characterize iteration swings about 2x, and finding
 * 2 stops reproducing on most other scenes and camera phases
 * (README.md).
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "chaos/chaos.hh"
#include "exp/optimizer.hh"
#include "trace/dag.hh"

namespace avbench {

using namespace av;

namespace {

/** The calibrated world every workload drives through. */
constexpr std::uint64_t kSceneSeed = 2020;

/**
 * Root seed of the fault sampler (CampaignSpec's default). Fixed, not
 * drawn from the run's seed: different roots sample different plans,
 * whose minimization took from 2 to 13 s on the same 6 s drive, which
 * would swing campaign's wall time by half from seed to seed.
 */
constexpr std::uint64_t kCampaignSeed = 2028;

/** The optimizer's deliberately bad incumbent and its proposals. */
constexpr std::size_t kMisconfiguredDepth = 4;
constexpr std::size_t kImprovedDepth = 1;
constexpr std::size_t kRegressedDepth = 8;

const std::vector<perception::DetectorKind> kDetectors = {
    perception::DetectorKind::Ssd512,
    perception::DetectorKind::Ssd300,
    perception::DetectorKind::Yolov3,
};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Drive length from the seed: @p seconds plus one of @p steps tails
 * of @p grid each. Each seed records a different bag tail (extra
 * LiDAR, camera and IMU frames) of the same calibrated drive.
 */
sim::Tick
driveLength(long seconds, std::uint64_t seed, sim::Tick grid,
            std::uint64_t steps)
{
    return static_cast<sim::Tick>(seconds) * sim::oneSec +
           static_cast<sim::Tick>(splitmix(seed) % steps) * grid;
}

std::string
hexDouble(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

/** A job submitted with its host submit time. */
struct Submitted
{
    std::size_t id = 0;
    std::string label;
    Clock::time_point at;
};

Submitted
submit(exp::Runner &runner, exp::ExperimentSpec spec)
{
    Submitted s;
    s.label = spec.label;
    s.at = Clock::now();
    s.id = runner.submit(std::move(spec));
    return s;
}

/**
 * Wait for every job on a thread of its own, so each job's time is
 * submit → its own result rather than submit → its turn in submit
 * order. A job that throws is a failed job; its time is not kept.
 * @return the successful jobs' results in submit order (nullptr for
 *         failed ones)
 */
std::vector<const prof::RunResult *>
awaitJobs(exp::Runner &runner, const std::vector<Submitted> &jobs,
          Outcome &out, Spans &spans, Checks &checks)
{
    std::vector<const prof::RunResult *> results(jobs.size(), nullptr);
    std::vector<double> times(jobs.size(), -1.0);
    const std::size_t parent = Spans::current();
    std::vector<std::thread> waiters;
    waiters.reserve(jobs.size());
    const auto joinAll = [&waiters] {
        for (std::thread &waiter : waiters)
            waiter.join();
    };
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto wait = [&, i] {
            const Submitted &job = jobs[i];
            try {
                results[i] = &runner.result(job.id);
                const Clock::time_point done = Clock::now();
                times[i] = seconds(job.at, done);
                spans.add("job " + job.label, job.at, done, parent);
            } catch (const std::exception &error) {
                checks.expect(false, "job '" + job.label +
                                         "' failed: " + error.what());
            } catch (...) {
                checks.expect(false, "job '" + job.label + "' failed");
            }
        };
        try {
            waiters.emplace_back(wait);
        } catch (...) {
            joinAll(); // the started waiters still use this frame
            throw;
        }
    }
    joinAll();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++out.jobsAttempted;
        if (times[i] >= 0.0) {
            checks.expect(true, "job");
            out.jobS.push_back(times[i]);
        }
    }
    return results;
}

const util::SampleSeries *
nodeSeries(const prof::RunResult &run, const std::string &node,
           Checks &checks)
{
    const util::SampleSeries *series = run.findNodeSeries(node);
    checks.expect(series != nullptr && series->count() > 0,
                  "'" + run.label + "' has latency samples of " + node);
    return series;
}

/**
 * The five findings with the thresholds bench/findings.cc applies,
 * read from the same four replays.
 */
void
checkFindings(const prof::RunResult &ssd, const prof::RunResult &yolo,
              const prof::RunResult &ssdIso,
              const prof::RunResult &yoloIso, Checks &checks)
{
    double inflation = 0.0;
    for (const char *node : {"voxel_grid_filter", "ndt_matching",
                             "ray_ground_filter",
                             "costmap_generator_obj"}) {
        const auto *heavy = nodeSeries(ssd, node, checks);
        const auto *light = nodeSeries(yolo, node, checks);
        if (heavy && light && light->quantile(0.99) > 0.0)
            inflation = std::max(
                inflation, 100.0 * (heavy->quantile(0.99) /
                                        light->quantile(0.99) -
                                    1.0));
    }
    checks.expect(inflation > 15.0,
                  "finding 1: co-running tail inflation > 15%");
    char worst[96];
    std::snprintf(worst, sizeof worst, " (SSD512 %.1f ms, YOLOv3 %.1f ms)",
                  ssd.worstCaseMax(), yolo.worstCaseMax());
    checks.expect(ssd.worstCaseMax() > 200.0 &&
                      yolo.worstCaseMax() > 180.0,
                  std::string("finding 2: worst-case E2E reaches ~2x "
                              "100 ms") +
                      worst);
    checks.expect(ssd.totalCpu.mean() < 0.45 &&
                      ssd.totalGpu.mean() < 0.45,
                  "finding 3: mean CPU and GPU utilization < 45%");

    bool meanUp = true, stdUp = true;
    for (const auto &[full, alone] :
         {std::pair{&ssd, &ssdIso}, std::pair{&yolo, &yoloIso}}) {
        const auto *f = nodeSeries(*full, "vision_detection", checks);
        const auto *a = nodeSeries(*alone, "vision_detection", checks);
        if (!f || !a) {
            meanUp = stdUp = false;
            continue;
        }
        const auto fs = f->summarize(), as = a->summarize();
        meanUp &= fs.mean > as.mean;
        stdUp &= fs.stddev > 1.5 * as.stddev;
    }
    checks.expect(meanUp,
                  "finding 4: full-system mean exceeds isolated");
    checks.expect(stdUp,
                  "finding 5: full-system stddev > 1.5x isolated");
}

// -------------------------------------------------------- characterize

Outcome
characterize(const Plan &plan, exp::Runner &runner, Spans &spans,
             Checks &checks)
{
    Outcome out;
    const exp::ExperimentSpec &ssd = plan.reference;
    exp::ExperimentSpec yolo = ssd;
    yolo.detector(perception::DetectorKind::Yolov3).named("YOLOv3");
    exp::ExperimentSpec ssdIso = ssd;
    ssdIso.isolatedVision().named("SSD512 isolated");
    exp::ExperimentSpec yoloIso = yolo;
    yoloIso.isolatedVision().named("YOLOv3 isolated");

    const Clock::time_point start = Clock::now();
    std::vector<Submitted> jobs;
    for (const exp::ExperimentSpec &s : {ssd, yolo, ssdIso, yoloIso})
        jobs.push_back(submit(runner, s));
    const auto results = awaitJobs(runner, jobs, out, spans, checks);
    bool complete = true;
    for (const prof::RunResult *r : results)
        complete &= r != nullptr;
    if (complete) {
        Spans::Scope check(spans, "characterize.check");
        checkFindings(*results[0], *results[1], *results[2],
                      *results[3], checks);
        for (const prof::RunResult *r : results)
            checks.expect(r->transportMode == "loan" &&
                              r->transport.payloadCopies == 0,
                          "clean Loan replay '" + r->label +
                              "' made no payload copies");
    }
    out.wallS = seconds(start, Clock::now());

    for (const prof::RunResult *r : results)
        if (r)
            out.replays.push_back(*r);
    for (std::size_t i = 0; i < out.replays.size(); ++i)
        out.pathReplays.push_back(i);
    return out;
}

// ------------------------------------------------------------ campaign

/** Everything a campaign pass produces that must repeat exactly. */
std::string
renderCampaign(const std::vector<std::vector<chaos::CellOutcome>> &all,
               const chaos::MinimizeResult *repro)
{
    std::ostringstream os;
    for (std::size_t d = 0; d < all.size(); ++d) {
        os << "detector " << d << "\n";
        for (const chaos::CellOutcome &c : all[d])
            os << "  cell " << c.cell.index << ' '
               << chaos::cellClassName(c.cls) << ' ' << c.violationCount
               << ' ' << c.firstViolation << ' ' << c.unrecovered << ' '
               << hexDouble(c.worstPathMs) << "\n"
               << chaos::canonicalPlan(c.cell.plan);
        for (const chaos::FrontierRow &row :
             chaos::resilienceFrontier(all[d]))
            os << "  frontier " << fault::faultKindName(row.kind) << ' '
               << row.cells << ' ' << row.violated << ' '
               << hexDouble(row.maxSurvivedIntensity) << ' '
               << hexDouble(row.minViolatedIntensity) << "\n";
    }
    if (repro)
        os << "repro " << stack::invariantName(repro->invariant) << ' '
           << repro->evaluations << "\n"
           << chaos::canonicalPlan(repro->plan);
    return os.str();
}

chaos::CampaignSpec
campaignSpec(const Plan &plan, std::size_t detector)
{
    chaos::CampaignSpec cspec;
    cspec.seed = kCampaignSeed + 8 * detector;
    cspec.cells = plan.campaignCells;
    cspec.base = plan.reference;
    cspec.base.detector(kDetectors[detector])
        .named(perception::detectorName(kDetectors[detector]));
    return cspec;
}

/**
 * One campaign pass on @p runner: classify every detector's cells,
 * then minimize the first violating cell. Cells must already be
 * submitted (or cached) by the caller when timing per job.
 */
struct CampaignPass
{
    std::vector<std::vector<chaos::CellOutcome>> outcomes;
    bool hasRepro = false;
    chaos::MinimizeResult repro;
    double minimizeS = 0.0;
};

CampaignPass
classifyAndMinimize(const Plan &plan, exp::Runner &runner,
                    Spans &spans)
{
    CampaignPass pass;
    std::size_t reproDetector = 0;
    const chaos::CellOutcome *first = nullptr;
    for (std::size_t d = 0; d < kDetectors.size(); ++d) {
        Spans::Scope scope(spans, "chaos.CampaignRunner::run");
        chaos::CampaignRunner campaign(runner, campaignSpec(plan, d));
        pass.outcomes.push_back(campaign.run());
    }
    for (std::size_t d = 0; d < pass.outcomes.size() && !first; ++d)
        for (const chaos::CellOutcome &c : pass.outcomes[d])
            if (c.cls == chaos::CellClass::Violated) {
                first = &c;
                reproDetector = d;
                break;
            }
    if (first) {
        Spans::Scope scope(spans, "chaos.minimizeViolation");
        const Clock::time_point t0 = Clock::now();
        pass.repro = chaos::minimizeViolation(
            runner, campaignSpec(plan, reproDetector).base,
            first->cell.plan);
        pass.minimizeS = seconds(t0, Clock::now());
        pass.hasRepro = true;
    }
    return pass;
}

Outcome
campaign(const Plan &plan, exp::Runner &runner, Spans &spans,
         Checks &checks)
{
    Outcome out;
    // Submit every cell up front so each job is timed on its own;
    // CampaignRunner::run() then submits the same specs and reads
    // them back through the cache to classify them.
    const Clock::time_point start = Clock::now();
    std::vector<Submitted> jobs;
    for (std::size_t d = 0; d < kDetectors.size(); ++d) {
        chaos::CampaignRunner sampler(runner, campaignSpec(plan, d));
        for (std::size_t i = 0; i < plan.campaignCells; ++i)
            jobs.push_back(
                submit(runner, sampler.specFor(sampler.cellFor(i))));
    }
    const auto results = awaitJobs(runner, jobs, out, spans, checks);
    for (const prof::RunResult *r : results)
        if (r)
            out.replays.push_back(*r);

    CampaignPass pass;
    try {
        pass = classifyAndMinimize(plan, runner, spans);
    } catch (const std::exception &error) {
        checks.expect(false,
                      std::string("campaign failed: ") + error.what());
    }
    out.campaignS = seconds(start, Clock::now()) - pass.minimizeS;
    out.minimizeS = pass.minimizeS;
    out.wallS = seconds(start, Clock::now());

    for (const auto &cells : pass.outcomes)
        for (const chaos::CellOutcome &c : cells) {
            out.violations += c.violationCount;
            out.violatedCells += c.cls == chaos::CellClass::Violated;
        }
    checks.expect(out.violatedCells >= 1,
                  "seeded campaign found a safety violation");
    checks.expect(pass.hasRepro, "first violating cell minimized");
    if (pass.hasRepro)
        out.minimizeEvals = pass.repro.evaluations;
    for (std::size_t i = 0; i < out.replays.size(); ++i)
        out.pathReplays.push_back(i);
    out.repeat = renderCampaign(pass.outcomes,
                                pass.hasRepro ? &pass.repro : nullptr);
    return out;
}

// ------------------------------------------------------------ optimize

exp::GuardedOptimizer::Mutation
depthProposal(std::size_t depth)
{
    return [depth](exp::ExperimentSpec &spec) {
        spec.config.queueDepths.clear();
        spec.queueDepth("/image_raw", "vision_detection", depth)
            .named("/image_raw depth " + std::to_string(depth));
    };
}

Outcome
optimize(const Plan &plan, exp::Runner &runner, Spans &spans,
         Checks &checks)
{
    Outcome out;
    const std::size_t earlier = runner.collect().size();
    exp::ExperimentSpec incumbent = plan.reference;
    incumbent.queueDepth("/image_raw", "vision_detection",
                         kMisconfiguredDepth)
        .named("/image_raw depth " +
               std::to_string(kMisconfiguredDepth));
    exp::GuardedOptimizer optimizer(runner, std::move(incumbent));

    // Each step is one replay the user waits for: measuring the
    // incumbent, the accepted fix, the seeded regression.
    const auto step = [&](const char *name, const auto &body) {
        Spans::Scope scope(spans, name);
        const Clock::time_point t0 = Clock::now();
        body();
        out.jobS.push_back(seconds(t0, Clock::now()));
        ++out.jobsAttempted;
        checks.expect(true, "job");
    };
    const Clock::time_point start = Clock::now();
    try {
        step("exp.GuardedOptimizer::incumbentMetricMs",
             [&] { optimizer.incumbentMetricMs(); });
        step("exp.GuardedOptimizer::propose",
             [&] {
                 optimizer.propose(
                     "depth " + std::to_string(kImprovedDepth),
                     depthProposal(kImprovedDepth));
             });
        step("exp.GuardedOptimizer::propose",
             [&] {
                 optimizer.propose(
                     "depth " + std::to_string(kRegressedDepth),
                     depthProposal(kRegressedDepth));
             });
    } catch (const std::exception &error) {
        ++out.jobsAttempted;
        checks.expect(false,
                      std::string("optimizer step failed: ") +
                          error.what());
        out.wallS = seconds(start, Clock::now());
        return out;
    }
    const auto &history = optimizer.history();
    checks.expect(history.size() == 2 && history[0].accepted,
                  "queue-depth fix accepted");
    checks.expect(history.size() == 2 && !history[1].accepted,
                  "seeded regression rolled back");
    const prof::RunResult &best = optimizer.incumbentResult();
    checks.expect(best.trace.enabled, "optimizer replays are traced");
    out.wallS = seconds(start, Clock::now());

    std::ostringstream audit;
    for (const exp::OptimizerStep &s : history)
        audit << s.name << ' ' << hexDouble(s.incumbentMs) << ' '
              << hexDouble(s.candidateMs) << ' ' << s.accepted << "\n";
    audit << trace::canonicalDag(best.trace);
    out.repeat = audit.str();

    const auto all = runner.collect();
    for (std::size_t i = earlier; i < all.size(); ++i)
        out.replays.push_back(*all[i]);
    // sim.worst_path_* read the final incumbent only.
    for (std::size_t i = 0; i < out.replays.size(); ++i)
        if (out.replays[i].label == best.label)
            out.pathReplays.push_back(i);
    return out;
}

} // namespace

Plan
makePlan(const std::string &workload, std::uint64_t seed, bool smoke,
         unsigned jobs, std::string scratch)
{
    Plan plan;
    plan.workload = workload;
    plan.seed = seed;
    plan.smoke = smoke;
    plan.jobs = jobs;
    plan.scratch = std::move(scratch);

    exp::ExperimentSpec base = exp::spec()
                                   .seed(kSceneSeed)
                                   .detector(perception::DetectorKind::Ssd512)
                                   .named("SSD512");
    if (workload == "characterize") {
        base.duration(driveLength(8, seed, 100 * sim::oneMs, 4));
    } else if (workload == "campaign") {
        // Tails within one LiDAR period: the fault sampler scales its
        // windows with the drive length, and a 100 ms step changes the
        // minimizer's path (6 against 11 candidate replays).
        base.duration(driveLength(6, seed, 10 * sim::oneMs, 10))
            .degraded()
            .invariants();
        plan.campaignCells = smoke ? 2 : 4;
    } else if (workload == "optimize") {
        // Denser than the default scene (20 vehicles, 20
        // pedestrians): object-driven kernels carry more weight.
        base.scenario.nVehicles = 40;
        base.scenario.nPedestrians = 40;
        base.duration(driveLength(smoke ? 4 : 6, seed, 100 * sim::oneMs, 4))
            .traced();
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    }
    plan.reference = base;
    return plan;
}

Session::Session(const Plan &plan, Spans &spans)
    : plan_(plan),
      cacheDir_(plan.workload == "characterize"
                    ? std::string()
                    : freshDir(plan, plan.workload + "-cache")),
      runner_({plan.jobs, cacheDir_, 0})
{
    Spans::Scope scope(spans, "setup.warm_up");
    runner_.result(runner_.submit(plan.reference));
}

Outcome
Session::iterate(Spans &spans, Checks &checks)
{
    if (!cacheDir_.empty())
        std::filesystem::remove_all(cacheDir_); // every iteration cold
    const std::size_t hits = runner_.cacheHits();
    const std::size_t executed = runner_.executed();
    Spans::Scope scope(spans, plan_.workload + ".iteration");
    Outcome out;
    if (plan_.workload == "characterize")
        out = characterize(plan_, runner_, spans, checks);
    else if (plan_.workload == "campaign")
        out = campaign(plan_, runner_, spans, checks);
    else
        out = optimize(plan_, runner_, spans, checks);
    out.cacheHits = runner_.cacheHits() - hits;
    out.executed = runner_.executed() - executed;
    return out;
}

void
Session::finalChecks(const Outcome &last, Spans &spans, Checks &checks)
{
    if (plan_.workload != "campaign")
        return;
    Spans::Scope scope(spans, "campaign.warm_rerun");
    exp::Runner warm({plan_.jobs, cacheDir_, 0});
    std::string repeat;
    try {
        const CampaignPass pass = classifyAndMinimize(plan_, warm, spans);
        repeat = renderCampaign(pass.outcomes,
                                pass.hasRepro ? &pass.repro : nullptr);
    } catch (const std::exception &error) {
        checks.expect(false,
                      std::string("warm re-run failed: ") + error.what());
        return;
    }
    checks.expect(repeat == last.repeat,
                  "warm re-run: outcomes, frontier and repro identical");
    checks.expect(warm.executed() == 0,
                  "warm re-run executed no replay (executed() == 0)");
}

std::string
freshDir(const Plan &plan, const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    const std::filesystem::path dir =
        std::filesystem::path(plan.scratch) /
        (tag + "-" + std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
simDigest(const Plan &plan, const std::vector<prof::RunResult> &replays)
{
    const exp::ResultCache cache(freshDir(plan, "digest"));
    std::string bytes;
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const std::string key = "r" + std::to_string(i);
        if (!cache.store(key, replays[i]))
            throw std::runtime_error("cannot serialize '" +
                                     replays[i].label + "'");
        std::ifstream in(cache.entryPath(key), std::ios::binary);
        bytes.append(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    return fnv1a(bytes);
}

} // namespace avbench
