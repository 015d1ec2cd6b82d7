/**
 * @file
 * Metrics registry: named counters, gauges and log-bucket histograms
 * (reusing sim::Histogram) registered per module and snapshot-able to
 * JSON. Registration is cold-path; modules cache the returned handle
 * references, which stay valid for the registry's lifetime (node-based
 * storage). The registry itself costs nothing on the simulation hot
 * path: counters are only written when a handle is touched, and the
 * System fills most of them from existing component stats at snapshot
 * time.
 */

#ifndef BPD_OBS_METRICS_HPP
#define BPD_OBS_METRICS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "sim/stats.hpp"

namespace bpd::obs {

namespace json {
class Writer;
}

/** Monotonic (or set-on-snapshot) integer metric. */
class Counter
{
  public:
    void add(std::uint64_t d = 1) { v_ += d; }
    void set(std::uint64_t v) { v_ = v; }
    std::uint64_t value() const { return v_; }

  private:
    std::uint64_t v_ = 0;
};

/** Point-in-time floating-point metric. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return v_; }

  private:
    double v_ = 0.0;
};

/**
 * A copyable, mergeable snapshot of a registry. Histograms are carried
 * whole (not just summaries) so merging snapshots keeps percentile
 * queries exact.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, sim::Histogram> histograms;

    /**
     * Scoped sub-snapshots, one per tenant. For every counter key that
     * appears under a tenant, the sum across tenants equals the
     * system-total counter of the same key, bit-exactly.
     */
    std::map<std::uint64_t, MetricsSnapshot> tenants;

    /** Sum counters, overwrite gauges, merge histograms (recursive). */
    void merge(const MetricsSnapshot &other);

    /** Write as a JSON object (counters/gauges/histograms keys, plus
     * a "tenants" object when any scoped snapshot exists). */
    void toJson(json::Writer &w) const;

    /** The same object as a standalone document. */
    std::string toJson() const;
};

class MetricsRegistry
{
  public:
    /** Find-or-create; the reference stays valid for the registry. */
    Counter &counter(const std::string &module, const std::string &name);
    Gauge &gauge(const std::string &module, const std::string &name);
    sim::Histogram &histogram(const std::string &module,
                              const std::string &name);

    /**
     * Scoped sub-registry for one tenant (find-or-create; the
     * reference stays valid for the parent's lifetime). Counters
     * registered here use the same module/name keys as the system
     * totals they shadow: `metrics.tenant(id).counter("ssd", "ops")`
     * is tenant @p id's slice of `metrics.counter("ssd", "ops")`.
     */
    MetricsRegistry &tenant(TenantId id);

    MetricsSnapshot snapshot() const;

  private:
    static std::string key(const std::string &module,
                           const std::string &name);

    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, sim::Histogram> histograms_;
    // unique_ptr: child registries must be address-stable across
    // tenant() insertions because callers cache the references.
    std::map<TenantId, std::unique_ptr<MetricsRegistry>> tenants_;
};

} // namespace bpd::obs

#endif // BPD_OBS_METRICS_HPP
