#include "sort/sort_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

namespace nbwp::sort {
namespace {

// The kind is a std::string (not const char*) so gtest prints its text, not
// its address: the printed parameter is part of the ctest name.
class SortKernelTest
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

std::vector<uint64_t> make_keys(const std::string& kind, size_t n, Rng& rng) {
  if (kind == "uniform") return uniform_keys(n, rng);
  if (kind == "skewed") return skewed_keys(n, rng);
  return nearly_sorted_keys(n, 0.1, rng);
}

TEST_P(SortKernelTest, BothKernelsSortEveryDistribution) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const auto original = make_keys(kind, 5000, rng);

  auto a = original;
  ThreadPool pool(4);
  cpu_chunked_sort(a, pool, 7);
  EXPECT_TRUE(is_sorted(a));

  auto b = original;
  gpu_radix_sort(b);
  EXPECT_TRUE(is_sorted(b));

  // Both must be the same permutation of the input.
  auto ref = original;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(a, ref);
  EXPECT_EQ(b, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SortKernelTest,
    ::testing::Values(std::pair<std::string, int>{"uniform", 1},
                      std::pair<std::string, int>{"skewed", 2},
                      std::pair<std::string, int>{"nearly_sorted", 3}),
    [](const auto& info) { return info.param.first; });

TEST(CpuChunkedSort, EdgeCases) {
  ThreadPool pool(2);
  std::vector<uint64_t> empty;
  EXPECT_EQ(cpu_chunked_sort(empty, pool, 4), 0u);
  std::vector<uint64_t> one = {42};
  EXPECT_EQ(cpu_chunked_sort(one, pool, 4), 0u);
  std::vector<uint64_t> tiny = {3, 1, 2};
  cpu_chunked_sort(tiny, pool, 8);  // more chunks than elements
  EXPECT_TRUE(is_sorted(tiny));
}

TEST(CpuChunkedSort, SingleChunkIsPlainSort) {
  Rng rng(4);
  auto keys = uniform_keys(100, rng);
  ThreadPool pool(2);
  EXPECT_EQ(cpu_chunked_sort(keys, pool, 1), 0u);  // no merge rounds
  EXPECT_TRUE(is_sorted(keys));
}

TEST(GpuRadixSort, EightPasses) {
  Rng rng(5);
  auto keys = uniform_keys(256, rng);
  EXPECT_EQ(gpu_radix_sort(keys), 8u);
}

TEST(KeyGenerators, ShapesDiffer) {
  Rng rng(6);
  const auto uniform = uniform_keys(10000, rng);
  const auto skewed = skewed_keys(10000, rng);
  // Skewed keys concentrate: their median is far below their max.
  auto med = [](std::vector<uint64_t> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const auto skew_med = med(skewed);
  const auto skew_max = *std::max_element(skewed.begin(), skewed.end());
  EXPECT_LT(skew_med * 2, skew_max);
  EXPECT_EQ(uniform.size(), 10000u);
}

TEST(KeyGenerators, NearlySortedMostlyInOrder) {
  Rng rng(7);
  const auto keys = nearly_sorted_keys(10000, 0.01, rng);
  size_t inversions = 0;
  for (size_t i = 1; i < keys.size(); ++i) inversions += keys[i - 1] > keys[i];
  EXPECT_LT(inversions, keys.size() / 10);
}

}  // namespace
}  // namespace nbwp::sort
