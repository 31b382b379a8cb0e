#include "trace/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace av::trace {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Publish: return "publish";
      case EventKind::Deliver: return "deliver";
      case EventKind::Activation: return "activation";
      case EventKind::CpuTask: return "cpu_task";
      case EventKind::GpuKernel: return "gpu_kernel";
    }
    return "?";
}

Span::~Span()
{
    if (recorder_)
        recorder_->endActivation(index_, 0);
}

void
Span::end(sim::Tick now)
{
    if (!recorder_)
        return;
    recorder_->endActivation(index_, now);
    recorder_ = nullptr;
}

Id
Recorder::intern(const std::string &name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const Id id = static_cast<Id>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

const std::string &
Recorder::name(Id id) const
{
    AV_ASSERT(id < names_.size(), "unknown trace id ", id);
    return names_[id];
}

void
Recorder::recordPublish(Id topic, Id publisher, std::uint64_t seq,
                        sim::Tick stamp, sim::Tick origin_lidar,
                        sim::Tick origin_camera, sim::Tick now)
{
    publishes_[topic].push_back(PublishRecord{now, stamp, seq,
                                              origin_lidar,
                                              origin_camera,
                                              publisher, enabled_});
    if (enabled_)
        ++tracedPublishes_;
}

void
Recorder::recordDeliver(Id topic, Id subscriber, std::uint64_t seq,
                        sim::Tick arrival)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::Deliver;
    ev.tick = arrival;
    ev.topic = topic;
    ev.seq = seq;
    ev.node = subscriber;
    ev.arrival = arrival;
    events_.push_back(ev);
}

Span
Recorder::beginActivation(Id node, Id topic, std::uint64_t seq,
                          sim::Tick arrival, sim::Tick now)
{
    if (!enabled_)
        return Span();
    Event ev;
    ev.kind = EventKind::Activation;
    ev.tick = now;
    ev.topic = topic;
    ev.seq = seq;
    ev.node = node;
    ev.arrival = arrival;
    ev.start = now;
    ev.end = now; // patched by endActivation
    events_.push_back(ev);
    return Span(this, events_.size() - 1);
}

void
Recorder::endActivation(std::size_t index, sim::Tick now)
{
    AV_ASSERT(index < events_.size(),
              "activation span index out of range");
    Event &ev = events_[index];
    AV_ASSERT(ev.kind == EventKind::Activation,
              "span index does not name an activation");
    if (now > ev.start)
        ev.end = now;
}

void
Recorder::recordCpuTask(Id owner, sim::Tick submitted, sim::Tick now,
                        double nominal_ns)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::CpuTask;
    ev.tick = submitted;
    ev.node = owner;
    ev.start = submitted;
    ev.end = now;
    ev.nominalNs = nominal_ns;
    events_.push_back(ev);
}

void
Recorder::recordGpuKernel(Id owner, sim::Tick started, sim::Tick now)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::GpuKernel;
    ev.tick = started;
    ev.node = owner;
    ev.start = started;
    ev.end = now;
    events_.push_back(ev);
}

const std::vector<PublishRecord> *
Recorder::publishLog(Id topic) const
{
    const auto it = publishes_.find(topic);
    return it == publishes_.end() ? nullptr : &it->second;
}

const std::vector<PublishRecord> *
Recorder::publishLog(const std::string &topic) const
{
    const auto it = ids_.find(topic);
    return it == ids_.end() ? nullptr : publishLog(it->second);
}

const PublishRecord *
Recorder::lastPublish(Id topic) const
{
    const std::vector<PublishRecord> *log = publishLog(topic);
    return (log && !log->empty()) ? &log->back() : nullptr;
}

const PublishRecord *
Recorder::lastPublish(const std::string &topic) const
{
    const std::vector<PublishRecord> *log = publishLog(topic);
    return (log && !log->empty()) ? &log->back() : nullptr;
}

std::vector<Event>
Recorder::canonicalEvents() const
{
    std::vector<Event> out;
    out.reserve(eventCount());
    out.insert(out.end(), events_.begin(), events_.end());
    for (const auto &[topic, log] : publishes_) {
        for (const PublishRecord &pub : log) {
            if (!pub.traced)
                continue;
            Event ev;
            ev.kind = EventKind::Publish;
            ev.tick = pub.tick;
            ev.topic = topic;
            ev.seq = pub.seq;
            ev.node = pub.publisher;
            ev.stamp = pub.stamp;
            ev.originLidar = pub.originLidar;
            ev.originCamera = pub.originCamera;
            out.push_back(ev);
        }
    }
    std::stable_sort(
        out.begin(), out.end(),
        [this](const Event &a, const Event &b) {
            if (a.tick != b.tick)
                return a.tick < b.tick;
            const std::string &ta = name(a.topic);
            const std::string &tb = name(b.topic);
            if (ta != tb)
                return ta < tb;
            if (a.seq != b.seq)
                return a.seq < b.seq;
            if (a.kind != b.kind)
                return static_cast<int>(a.kind) <
                       static_cast<int>(b.kind);
            return name(a.node) < name(b.node);
        });
    return out;
}

} // namespace av::trace
