/**
 * @file
 * Statistics primitives: log-linear latency histograms with percentile
 * queries (HdrHistogram-style), mean accumulators, and bucketed time series
 * for throughput-over-time plots (Fig. 12).
 */

#ifndef BPD_SIM_STATS_HPP
#define BPD_SIM_STATS_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bpd::sim {

/**
 * Log-linear histogram for latency values in nanoseconds.
 *
 * Values are bucketed with ~1.5% relative resolution: 64 linear buckets per
 * power-of-two decade. Percentile queries interpolate inside a bucket.
 */
class Histogram
{
  public:
    Histogram();

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p count identical samples. */
    void recordMany(std::uint64_t value, std::uint64_t count);

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Reset all state. */
    void clear();

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Value at percentile @p p (0 < p <= 100).
     * @return 0 when the histogram is empty.
     */
    std::uint64_t percentile(double p) const;

    /** Shorthand: median. */
    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p99() const { return percentile(99.0); }
    std::uint64_t p999() const { return percentile(99.9); }

    /** Human-readable one-line summary. */
    std::string summary() const;

  private:
    static constexpr unsigned kSubBucketBits = 6; // 64 per decade
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    static constexpr unsigned kDecades = 40;

    static unsigned bucketIndex(std::uint64_t value);
    static std::uint64_t bucketLow(unsigned index);
    static std::uint64_t bucketHigh(unsigned index);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

/** Incremental mean accumulator. */
class MeanAccumulator
{
  public:
    void add(double x);
    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
};

/**
 * Fixed-width time-bucketed series: record(time, amount); query per-bucket
 * rates. Used for throughput-over-time plots.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Time bucketWidth);

    void record(Time when, double amount);

    std::size_t buckets() const { return sums_.size(); }

    /** Sum recorded into bucket @p i. */
    double bucketSum(std::size_t i) const;

    /** Per-second rate for bucket @p i. */
    double bucketRate(std::size_t i) const;

    /** Start time of bucket @p i. */
    Time bucketStart(std::size_t i) const { return i * width_; }

  private:
    Time width_;
    std::vector<double> sums_;
};

/** Format nanoseconds as a human-readable duration. */
std::string fmtNs(double ns);

/** Format a byte rate as a human-readable bandwidth. */
std::string fmtBw(double bytesPerSec);

} // namespace bpd::sim

#endif // BPD_SIM_STATS_HPP
