// Link-time probe on Gf256::region_madd for the traced binary. The build
// links with --wrap=<mangled region_madd>, so every call made from another
// object file (the decoders, recoders and encoders of the whole program)
// lands here first. Counts are kept per thread and folded into the global
// totals when a thread exits (the engine's workers) or on request (the main
// thread), so the probe adds no shared-cache-line traffic to the run.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common.hpp"

#define LEDGER_CAT2(a, b) a##b
#define LEDGER_CAT(a, b) LEDGER_CAT2(a, b)
#define LEDGER_WRAP LEDGER_CAT(__wrap_, LEDGER_MADD_SYMBOL)
#define LEDGER_REAL LEDGER_CAT(__real_, LEDGER_MADD_SYMBOL)

extern "C" void LEDGER_REAL(std::uint8_t* dst, const std::uint8_t* src,
                            std::uint8_t c, std::size_t n);

namespace {

std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

struct LocalTotals {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  void flush() {
    g_calls.fetch_add(calls, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
    calls = 0;
    bytes = 0;
  }
  ~LocalTotals() { flush(); }
};

thread_local LocalTotals t_local;

}  // namespace

extern "C" void LEDGER_WRAP(std::uint8_t* dst, const std::uint8_t* src,
                            std::uint8_t c, std::size_t n) {
  if (c != 0) {
    ++t_local.calls;
    t_local.bytes += n;
  }
  LEDGER_REAL(dst, src, c, n);
}

namespace ledger {

void madd_probe_reset() {
  t_local.calls = 0;
  t_local.bytes = 0;
  g_calls.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
}

MaddTotals madd_probe_totals() {
  t_local.flush();
  return MaddTotals{true, g_calls.load(std::memory_order_relaxed),
                    g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace ledger
