// Known-answer tests for the benchmark's own arithmetic: percentiles (and
// the ten-samples-beyond rule), the seeded Poisson schedule, the zipf
// sampler, self-checking values, and metric-name validation. Exits
// non-zero on the first failure; the benchmark runs it before measuring.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void test_percentile() {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(1001 - i);  // 1000..1, unsorted input
  expect(perfbench::percentile(s, 0.50) == 500.0, "median of 1..1000 is 500");
  expect(perfbench::percentile(s, 0.99) == 990.0, "p99 of 1..1000 is 990 (10 beyond)");
  s.pop_back();  // 999 samples: only 9.99 would lie beyond a p99
  expect(!perfbench::percentile(s, 0.99).has_value(), "p99 of 999 samples is refused");
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  expect(perfbench::percentile(twenty, 0.50) == 10.0, "median of 1..20 is 10 (10 beyond)");
  twenty.pop_back();
  expect(!perfbench::percentile(twenty, 0.50).has_value(), "median of 19 samples is refused");
  expect(!perfbench::percentile({}, 0.5).has_value(), "empty input has no percentile");
  expect(perfbench::median({3, 1, 2}) == 2.0, "median of three");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "median of four");
}

void test_poisson() {
  const auto a = perfbench::poisson_due_times_us(42, 500, 20);
  const auto b = perfbench::poisson_due_times_us(42, 500, 20);
  const auto c = perfbench::poisson_due_times_us(43, 500, 20);
  expect(a == b, "same seed gives the same due times");
  expect(a != c, "another seed gives other due times");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  expect(increasing, "due times strictly increase");
  expect(!a.empty() && a.back() < 20'000'000, "due times stay inside the duration");
  // 10000 expected arrivals: the count is within 4 sigma (±400).
  expect(std::abs(static_cast<double>(a.size()) - 10000.0) < 400, "arrival count matches the rate");
  const auto first = perfbench::poisson_due_times_us(7, 1000, 0.01);
  const auto again = perfbench::poisson_due_times_us(7, 1000, 0.01);
  expect(first == again, "short schedule repeats exactly");
}

void test_zipf() {
  perfbench::Zipf zipf(1000, 0.99);
  securestore::Rng rng(9);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.sample(rng)];
  // Rank 0 carries 1/H(1000, 0.99) ~ 13% of the mass; rank 1 about half that.
  expect(hits[0] > 11000 && hits[0] < 16000, "zipf rank 0 share");
  expect(hits[1] > hits[0] / 3 && hits[1] < hits[0], "zipf rank 1 below rank 0");
}

void test_values() {
  const auto v = perfbench::make_value(5, 17, 3, 99, 256);
  const auto id = perfbench::check_value(5, v);
  expect(v.size() == 256, "value has the requested size");
  expect(id.has_value() && id->item == 17 && id->writer == 3 && id->seq == 99,
         "value header round-trips");
  auto tampered = v;
  tampered[200] ^= 1;
  expect(!perfbench::check_value(5, tampered).has_value(), "a flipped filler byte is caught");
  expect(!perfbench::check_value(6, v).has_value(), "another run's seed is caught");
  expect(perfbench::make_value(5, 17, 3, 99, 256) == v, "values are deterministic");
}

void test_names() {
  expect(perfbench::valid_metric_name("ops_per_s"), "ops_per_s is valid");
  expect(perfbench::valid_metric_name("crypto.signs_per_op"), "dotted name is valid");
  expect(perfbench::valid_metric_name("p99-ms.2"), "dash and digit are valid");
  expect(!perfbench::valid_metric_name(""), "empty name is invalid");
  expect(!perfbench::valid_metric_name("_lead"), "leading underscore is invalid");
  expect(!perfbench::valid_metric_name("has space"), "space is invalid");
  expect(!perfbench::valid_metric_name("unit/s"), "slash is invalid");
  expect(!perfbench::valid_metric_name(std::string(65, 'a')), "65 characters is too long");
  expect(perfbench::valid_metric_name(std::string(64, 'a')), "64 characters is allowed");
}

}  // namespace

int main() {
  test_percentile();
  test_poisson();
  test_zipf();
  test_values();
  test_names();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
