// google-benchmark micro: functional AES-128 software throughput and the
// line-mode transforms. Not a paper figure — a sanity check that the
// functional path is fast enough for the attack integration tests and a
// reference point for the hardware-engine numbers in Table I.
#include <benchmark/benchmark.h>

#include "crypto/aes128.hpp"
#include "crypto/modes.hpp"
#include "sim/functional_memory.hpp"
#include "util/rng.hpp"

namespace sealdl {
namespace {

crypto::Key128 bench_key() {
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return key;
}

void BM_AesEncryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(bench_key());
  crypto::Block block{};
  for (auto _ : state) {
    aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_DirectEncryptLine(benchmark::State& state) {
  crypto::Aes128 aes(bench_key());
  std::array<std::uint8_t, crypto::kLineBytes> line{};
  std::uint64_t addr = 0;
  for (auto _ : state) {
    crypto::direct_encrypt_line(aes, addr, line);
    addr += crypto::kLineBytes;
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(crypto::kLineBytes));
}
BENCHMARK(BM_DirectEncryptLine);

void BM_CounterTransformLine(benchmark::State& state) {
  crypto::Aes128 aes(bench_key());
  std::array<std::uint8_t, crypto::kLineBytes> line{};
  std::uint64_t counter = 0;
  for (auto _ : state) {
    crypto::counter_transform_line(aes, 0x1000, ++counter, line);
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(crypto::kLineBytes));
}
BENCHMARK(BM_CounterTransformLine);

void BM_FunctionalMemoryWriteRead(benchmark::State& state) {
  // Registry rows 0..2: baseline, direct, counter (full scope).
  const sim::SchemeInfo& scheme =
      sim::scheme_registry()[static_cast<std::size_t>(state.range(0))];
  sim::FunctionalMemory memory(scheme, nullptr, bench_key());
  std::vector<std::uint8_t> buffer(4096, 0xA5);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    memory.write(addr, buffer);
    memory.read(addr, buffer);
    addr = (addr + 4096) % (1 << 20);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_FunctionalMemoryWriteRead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace sealdl

BENCHMARK_MAIN();
