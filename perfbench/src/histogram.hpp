// Log-linear latency histogram over nanoseconds.
//
// Values below 128 ns get a bucket each; above that every octave is split
// into 128 equal buckets, so a bucket is at most 1/128 (0.78%) of its lower
// bound wide. Percentiles interpolate linearly inside the bucket, so a
// reported value moves with the data instead of snapping to bucket edges.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kOctaves = 36;  // up to 2^43 ns, about 2.4 hours
  static constexpr std::size_t kBuckets = kSub * (kOctaves + 1);

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++total_;
  }

  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  // Value below which a share q (0..1) of the samples fall, in ns; 0 when
  // the histogram is empty.
  double percentile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && below + c >= rank) {
        return lower(i) + (rank - below) / c * width(i);
      }
      below += c;
    }
    return lower(kBuckets - 1) + width(kBuckets - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1 - kSubBits;
    const std::size_t i = kSub * static_cast<std::size_t>(e + 1) +
                          static_cast<std::size_t>((v >> e) - kSub);
    return i < kBuckets ? i : kBuckets - 1;
  }
  static double lower(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t e = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << e);
  }
  static double width(std::size_t i) noexcept {
    return i < kSub ? 1.0 : static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace perfbench
