#include "probes.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Sink for probe results so the loops cannot be optimised away. Atomic: the
// reference probe runs on several threads at once.
std::atomic<std::uint64_t> g_sink{0};

constexpr std::uint64_t kCpuIterations = 15'000'000;
constexpr std::size_t kRingSlots = (4u << 20) / sizeof(std::uint32_t);
constexpr std::uint64_t kChaseSteps = 1'500'000;
constexpr std::uint64_t kRefKeys = 1u << 18;
constexpr std::size_t kRefTableSlots = (8u << 20) / sizeof(std::uint32_t);
constexpr std::uint64_t kRefOps = 750'000;

// One random cycle through every slot (Sattolo's algorithm, fixed seed), so
// each load depends on the previous one and the prefetcher cannot help.
const std::vector<std::uint32_t>& ring() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kRingSlots);
    std::iota(v.begin(), v.end(), 0u);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  return next;
}

// Four independent xorshift chains keep the core's integer ports busy, so
// the loop also slows when another thread shares the physical core.
void spin() {
  const std::uint64_t seed = g_sink.load(std::memory_order_relaxed);
  std::uint64_t x[4] = {seed + 1, seed + 2, seed + 3, seed + 4};
  for (std::uint64_t i = 0; i < kCpuIterations; ++i) {
    for (std::uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  g_sink.store(x[0] ^ x[1] ^ x[2] ^ x[3], std::memory_order_relaxed);
}

void mix() {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(kRefKeys / 2);
  std::vector<std::uint32_t> table(kRefTableSlots);
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ull + g_sink.load(std::memory_order_relaxed);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kRefOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& v = map[x % kRefKeys];
    v += i;
    table[(x >> 20) % kRefTableSlots] += static_cast<std::uint32_t>(v);
    if (i % 8 == 0) {
      heap.push(x & 0xffff);
      if (heap.size() > 4096) {
        acc += heap.top();
        heap.pop();
      }
    }
  }
  g_sink.store(acc + map.size() + table[x % kRefTableSlots], std::memory_order_relaxed);
}

}  // namespace

double ref_probe_ms(unsigned threads) {
  const auto start = Clock::now();
  // Futures rather than bare threads: their destructors wait for the copy
  // they run, and get() passes on an exception thrown in it.
  std::vector<std::future<void>> others;
  for (unsigned t = 1; t < threads; ++t) others.push_back(std::async(std::launch::async, [] {
    mix();
    spin();
  }));
  mix();
  spin();
  for (std::future<void>& f : others) f.get();
  return ms_since(start);
}

double cpu_probe_ms() {
  const auto start = Clock::now();
  spin();
  return ms_since(start);
}

double l3_probe_ms() {
  const std::vector<std::uint32_t>& next = ring();
  // A streaming pass pulls the ring back into cache before timing.
  auto at = static_cast<std::uint32_t>(std::accumulate(next.begin(), next.end(), 0u) % kRingSlots);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kChaseSteps; ++i) at = next[at];
  g_sink.store(at, std::memory_order_relaxed);
  return ms_since(start);
}

}  // namespace perfbench
