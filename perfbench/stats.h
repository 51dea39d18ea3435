// Small, self-contained helpers the benchmark's numbers rest on: exact
// percentiles over raw samples, the seeded open-loop arrival schedule, the
// zipf item sampler, deterministic self-checking values, and metric-name
// validation. Each has known-answer tests in selftest.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

/// Fewest samples that must lie strictly beyond a reported percentile; a
/// percentile resting on fewer is not reported (the choosing-metrics rule).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of raw samples, q in (0, 1): the smallest sample
/// with at least q·n samples at or below it. nullopt when fewer than
/// kMinSamplesBeyond samples would lie beyond it (n·(1−q) < 10) — e.g. a
/// p99 needs at least 1000 samples, a median 20.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a short list (no samples-beyond rule): the middle value, or
/// the mean of the two middle values. Empty input gives 0.
double median(std::vector<double> values);

/// Seeded Poisson arrival schedule: due times in microseconds from the
/// window start, exponential gaps with mean 1e6/rate, strictly increasing,
/// all below duration. The same (seed, rate, duration) always gives the
/// same schedule.
std::vector<std::uint64_t> poisson_due_times_us(std::uint64_t seed, double rate_per_s,
                                                double duration_s);

/// Zipf(s) sampler over ranks [0, n): rank k has weight 1/(k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(securestore::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Self-checking value for one write: a 24-byte header (item, writer, seq,
/// all little-endian) followed by filler derived from (seed, writer, seq).
/// Any value a read returns can be checked against the write it claims to
/// be without keeping the written bytes.
securestore::Bytes make_value(std::uint64_t seed, std::uint64_t item, std::uint32_t writer,
                              std::uint64_t seq, std::size_t size);

struct ValueId {
  std::uint64_t item = 0;
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
};

/// Decodes the header and regenerates the value; nullopt unless the bytes
/// are exactly what make_value produced for that header.
std::optional<ValueId> check_value(std::uint64_t seed, securestore::BytesView value);

/// A fixed block of integer work (~0.3 ms on a 2 GHz core) whose duration
/// tracks how fast the calling thread's core is running right now. The
/// result only defeats dead-code elimination.
std::uint64_t reference_kernel(std::uint64_t seed);

/// Metric names: 1..64 characters from [A-Za-z0-9_.-], starting with a
/// letter or a digit.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
