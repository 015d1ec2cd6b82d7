#include "sim/stats.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace bpd::sim {

Histogram::Histogram()
    : buckets_(kDecades * kSubBuckets, 0)
{
}

unsigned
Histogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<unsigned>(value);
    const unsigned msb = 63 - std::countl_zero(value);
    const unsigned decade = msb - kSubBucketBits + 1;
    const unsigned sub = static_cast<unsigned>(
        value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
    unsigned idx = decade * kSubBuckets + sub;
    const unsigned last = kDecades * kSubBuckets - 1;
    return std::min(idx, last);
}

std::uint64_t
Histogram::bucketLow(unsigned index)
{
    const unsigned decade = index / kSubBuckets;
    const unsigned sub = index % kSubBuckets;
    if (decade == 0)
        return sub;
    return (static_cast<std::uint64_t>(kSubBuckets | sub))
           << (decade - 1);
}

std::uint64_t
Histogram::bucketHigh(unsigned index)
{
    const unsigned decade = index / kSubBuckets;
    const unsigned sub = index % kSubBuckets;
    if (decade == 0)
        return sub;
    return ((static_cast<std::uint64_t>(kSubBuckets | sub) + 1)
            << (decade - 1)) - 1;
}

void
Histogram::record(std::uint64_t value)
{
    recordMany(value, 1);
}

void
Histogram::recordMany(std::uint64_t value, std::uint64_t count)
{
    if (count == 0)
        return;
    buckets_[bucketIndex(value)] += count;
    count_ += count;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value) * static_cast<double>(count);
}

void
Histogram::merge(const Histogram &other)
{
    for (std::size_t i = 0; i < buckets_.size(); i++)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
Histogram::clear()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    max_ = 0;
    sum_ = 0.0;
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); i++) {
        if (buckets_[i] == 0)
            continue;
        const std::uint64_t prev = seen;
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target) {
            // Linear interpolation inside the bucket.
            const auto lo = static_cast<double>(
                bucketLow(static_cast<unsigned>(i)));
            const auto hi = static_cast<double>(
                bucketHigh(static_cast<unsigned>(i)));
            const double frac = buckets_[i] == 0
                ? 0.0
                : (target - static_cast<double>(prev))
                      / static_cast<double>(buckets_[i]);
            const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
            return std::min<std::uint64_t>(
                static_cast<std::uint64_t>(v), max_);
        }
    }
    return max_;
}

std::string
Histogram::summary() const
{
    return strf("n=%llu mean=%s p50=%s p99=%s p99.9=%s max=%s",
                (unsigned long long)count_, fmtNs(mean()).c_str(),
                fmtNs((double)p50()).c_str(), fmtNs((double)p99()).c_str(),
                fmtNs((double)p999()).c_str(),
                fmtNs((double)max()).c_str());
}

void
MeanAccumulator::add(double x)
{
    n_++;
    mean_ += (x - mean_) / static_cast<double>(n_);
}

TimeSeries::TimeSeries(Time bucketWidth)
    : width_(bucketWidth)
{
    panicIf(bucketWidth == 0, "TimeSeries bucket width must be > 0");
}

void
TimeSeries::record(Time when, double amount)
{
    const std::size_t idx = when / width_;
    if (idx >= sums_.size())
        sums_.resize(idx + 1, 0.0);
    sums_[idx] += amount;
}

double
TimeSeries::bucketSum(std::size_t i) const
{
    return i < sums_.size() ? sums_[i] : 0.0;
}

double
TimeSeries::bucketRate(std::size_t i) const
{
    return bucketSum(i) * (static_cast<double>(kSec)
                           / static_cast<double>(width_));
}

std::string
fmtNs(double ns)
{
    if (ns < 1e3)
        return strf("%.0fns", ns);
    if (ns < 1e6)
        return strf("%.2fus", ns / 1e3);
    if (ns < 1e9)
        return strf("%.2fms", ns / 1e6);
    return strf("%.2fs", ns / 1e9);
}

std::string
fmtBw(double bytesPerSec)
{
    if (bytesPerSec < 1e3)
        return strf("%.0fB/s", bytesPerSec);
    if (bytesPerSec < 1e6)
        return strf("%.1fKB/s", bytesPerSec / 1e3);
    if (bytesPerSec < 1e9)
        return strf("%.1fMB/s", bytesPerSec / 1e6);
    return strf("%.2fGB/s", bytesPerSec / 1e9);
}

} // namespace bpd::sim
