#include "common/stats.hh"

#include <cmath>

namespace menda
{

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (unsigned b = 0; b < kBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;

    // Nearest-rank: the k-th smallest sample with k = ceil(q * count),
    // clamped to [1, count] so q = 0 still names the smallest sample.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    if (rank > count_)
        rank = count_;

    std::uint64_t before = 0; // samples in buckets below b
    unsigned b = 0;
    while (before + buckets_[b] < rank) {
        before += buckets_[b];
        ++b;
    }

    // Bucket 0 holds only zeros; bucket b >= 1 holds [2^(b-1), 2^b - 1].
    if (b == 0)
        return 0.0;
    const double lo =
        static_cast<double>(std::uint64_t(1) << (b - 1));
    const double hi = lo * 2.0 - 1.0;

    // Midpoint-rule interpolation by rank position within the bucket.
    const double in_bucket = static_cast<double>(buckets_[b]);
    const double frac =
        (static_cast<double>(rank - before) - 0.5) / in_bucket;
    double estimate = lo + frac * (hi - lo);

    const double min_v = static_cast<double>(min());
    const double max_v = static_cast<double>(max_);
    if (estimate < min_v)
        estimate = min_v;
    if (estimate > max_v)
        estimate = max_v;
    return estimate;
}

unsigned
Histogram::usedBuckets() const
{
    unsigned used = kBuckets;
    while (used > 0 && buckets_[used - 1] == 0)
        --used;
    return used;
}

} // namespace menda
