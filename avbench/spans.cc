#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

#include "bench.hh"

namespace avbench {

namespace {

/** Open Scope ids of the calling thread, innermost last. */
thread_local std::vector<std::size_t> openScopes;

/** Small stable number per host thread, for the trace's tid. */
std::size_t
threadNumber()
{
    static std::mutex mutex;
    static std::map<std::thread::id, std::size_t> numbers;
    std::lock_guard<std::mutex> lock(mutex);
    return numbers.emplace(std::this_thread::get_id(), numbers.size())
        .first->second;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

// ---------------------------------------------------------------- spans

std::size_t
Spans::reserve(std::string name, Clock::time_point start,
               std::size_t parent)
{
    if (!enabled_)
        return none;
    const std::size_t thread = threadNumber();
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(
        {std::move(name), start, start, parent, workload_, thread});
    return records_.size(); // ids are 1-based; 0 is none
}

void
Spans::finish(std::size_t id, Clock::time_point end)
{
    if (id == none)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    records_[id - 1].end = end;
}

std::size_t
Spans::add(std::string name, Clock::time_point start,
           Clock::time_point end, std::size_t parent)
{
    const std::size_t id = reserve(std::move(name), start, parent);
    finish(id, end);
    return id;
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

Spans::Scope::Scope(Spans &spans, std::string name) : spans_(spans)
{
    id_ = spans_.reserve(std::move(name), Clock::now(), current());
    if (id_ != none)
        openScopes.push_back(id_);
}

Spans::Scope::~Scope()
{
    if (id_ == none)
        return;
    spans_.finish(id_, Clock::now());
    openScopes.pop_back();
}

std::size_t
Spans::current()
{
    return openScopes.empty() ? none : openScopes.back();
}

void
Spans::writeChrome(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto micros = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        char times[96];
        std::snprintf(times, sizeof times,
                      "\"ts\": %.3f, \"dur\": %.3f", micros(r.start),
                      micros(r.end) - micros(r.start));
        os << "  {\"name\": " << jsonString(r.name)
           << ", \"cat\": " << jsonString(r.workload)
           << ", \"ph\": \"X\", " << times
           << ", \"pid\": 1, \"tid\": " << r.thread
           << ", \"args\": {\"id\": " << i + 1
           << ", \"parent\": " << r.parent << ", \"workload\": "
           << jsonString(r.workload) << "}}"
           << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

void
Spans::writeSelfTime(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (records_[i].parent != none)
            children[records_[i].parent - 1].push_back(i);

    struct Row
    {
        std::size_t calls = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>>
            covered;
        for (const std::size_t c : children[i])
            covered.emplace_back(
                std::max(records_[c].start, r.start),
                std::min(records_[c].end, r.end));
        std::sort(covered.begin(), covered.end());
        double childSeconds = 0.0;
        Clock::time_point reach = r.start;
        for (const auto &[from, to] : covered) {
            const Clock::time_point begin = std::max(from, reach);
            if (to > begin) {
                childSeconds += seconds(begin, to);
                reach = to;
            }
        }
        Row &row = rows[r.name];
        ++row.calls;
        row.total += seconds(r.start, r.end);
        row.self += seconds(r.start, r.end) - childSeconds;
    }

    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second.self > b.second.self;
              });
    char line[160];
    std::snprintf(line, sizeof line, "%-34s %6s %12s %12s\n", "span",
                  "calls", "total (s)", "self (s)");
    os << line;
    for (const auto &[name, row] : sorted) {
        std::snprintf(line, sizeof line, "%-34s %6zu %12.6f %12.6f\n",
                      name.c_str(), row.calls, row.total, row.self);
        os << line;
    }
}

// --------------------------------------------------------------- checks

bool
Checks::expect(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok)
        failures_.push_back(what);
    return ok;
}

std::size_t
Checks::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::size_t
Checks::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_.size();
}

std::vector<std::string>
Checks::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
}

} // namespace avbench
