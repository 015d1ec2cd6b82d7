#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace bpd::obs {

void MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[k, v] : other.counters)
        counters[k] += v;
    for (const auto &[k, v] : other.gauges)
        gauges[k] = v;
    for (const auto &[k, h] : other.histograms)
        histograms[k].merge(h);
    for (const auto &[id, snap] : other.tenants)
        tenants[id].merge(snap);
}

void MetricsSnapshot::toJson(json::Writer &w) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[k, v] : counters)
        w.key(k).uint(v);
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[k, v] : gauges)
        w.key(k).num(v, "%.6g");
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[k, h] : histograms) {
        w.key(k).beginObject(true);
        w.key("count").uint(h.count());
        w.key("min").uint(h.min());
        w.key("max").uint(h.max());
        w.key("mean").num(h.mean(), "%.3f");
        w.key("p50").uint(h.p50());
        w.key("p99").uint(h.p99());
        w.key("p999").uint(h.p999());
        w.endObject();
    }
    w.endObject();

    if (!tenants.empty()) {
        w.key("tenants").beginObject();
        for (const auto &[id, snap] : tenants) {
            w.key(std::to_string(id));
            snap.toJson(w);
        }
        w.endObject();
    }
    w.endObject();
}

std::string MetricsSnapshot::toJson() const
{
    json::Writer w;
    toJson(w);
    return w.text();
}

std::string MetricsRegistry::key(const std::string &module,
                                 const std::string &name)
{
    return module + "." + name;
}

Counter &MetricsRegistry::counter(const std::string &module,
                                  const std::string &name)
{
    return counters_[key(module, name)];
}

Gauge &MetricsRegistry::gauge(const std::string &module,
                              const std::string &name)
{
    return gauges_[key(module, name)];
}

sim::Histogram &MetricsRegistry::histogram(const std::string &module,
                                           const std::string &name)
{
    return histograms_[key(module, name)];
}

MetricsRegistry &MetricsRegistry::tenant(TenantId id)
{
    auto it = tenants_.find(id);
    if (it == tenants_.end())
        it = tenants_.emplace(id, std::make_unique<MetricsRegistry>())
                 .first;
    return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    for (const auto &[k, c] : counters_)
        s.counters[k] = c.value();
    for (const auto &[k, g] : gauges_)
        s.gauges[k] = g.value();
    for (const auto &[k, h] : histograms_)
        s.histograms[k] = h;
    for (const auto &[id, reg] : tenants_)
        s.tenants[id] = reg->snapshot();
    return s;
}

} // namespace bpd::obs
