#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const double n = static_cast<double>(samples.size());
  // Rank of the reported sample (1-based), then how many lie beyond it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (samples.size() - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<std::uint64_t> poisson_due_times_us(std::uint64_t seed, double rate_per_s,
                                                double duration_s) {
  securestore::Rng rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  const double end_us = duration_s * 1e6;
  std::vector<std::uint64_t> due;
  double t = 0;
  for (;;) {
    t += rng.next_exponential(mean_gap_us);
    if (t >= end_us) break;
    const auto at = static_cast<std::uint64_t>(t);
    // Keep the schedule strictly increasing at microsecond resolution.
    due.push_back(due.empty() || at > due.back() ? at : due.back() + 1);
  }
  return due;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(securestore::Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

namespace {

constexpr std::size_t kHeaderBytes = 24;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void put_le(securestore::Bytes& out, std::size_t at, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le(securestore::BytesView in, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  return v;
}

}  // namespace

securestore::Bytes make_value(std::uint64_t seed, std::uint64_t item, std::uint32_t writer,
                              std::uint64_t seq, std::size_t size) {
  securestore::Bytes out(std::max(size, kHeaderBytes));
  put_le(out, 0, item, 8);
  put_le(out, 8, writer, 4);
  put_le(out, 12, seq, 8);
  put_le(out, 20, out.size(), 4);
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(writer) << 40) ^ (seq * 0x100000001b3ULL);
  for (std::size_t at = kHeaderBytes; at < out.size(); at += 8) {
    const std::uint64_t word = splitmix(state);
    for (std::size_t i = 0; i < 8 && at + i < out.size(); ++i) {
      out[at + i] = static_cast<std::uint8_t>(word >> (8 * i));
    }
  }
  return out;
}

std::optional<ValueId> check_value(std::uint64_t seed, securestore::BytesView value) {
  if (value.size() < kHeaderBytes || get_le(value, 20, 4) != value.size()) return std::nullopt;
  ValueId id{get_le(value, 0, 8), static_cast<std::uint32_t>(get_le(value, 8, 4)),
             get_le(value, 12, 8)};
  const securestore::Bytes expect = make_value(seed, id.item, id.writer, id.seq, value.size());
  if (std::memcmp(expect.data(), value.data(), value.size()) != 0) return std::nullopt;
  return id;
}

std::uint64_t reference_kernel(std::uint64_t seed) {
  std::uint64_t table[256];
  std::uint64_t state = seed;
  for (auto& t : table) t = splitmix(state);
  std::uint64_t acc = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t v = splitmix(state);
    acc += table[v & 255] ^ (v >> 7);
    table[(v >> 8) & 255] = acc;
  }
  return acc;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
