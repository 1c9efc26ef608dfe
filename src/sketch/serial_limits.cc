#include "sketch/serial_limits.h"

#include <atomic>
#include <string>

namespace skimjoin {
namespace sketch {

namespace {

std::atomic<uint64_t>& CapStorage() {
  static std::atomic<uint64_t> cap{kDefaultMaxDeserializeCounters};
  return cap;
}

}  // namespace

uint64_t MaxDeserializeCounters() {
  return CapStorage().load(std::memory_order_relaxed);
}

void SetMaxDeserializeCounters(uint64_t cap) {
  CapStorage().store(cap == 0 ? kDefaultMaxDeserializeCounters : cap,
                     std::memory_order_relaxed);
}

Status CheckDeserializeDims(uint64_t rows, uint64_t cols, const char* what) {
  if (rows < 1 || cols < 1) {
    return InvalidArgumentError(std::string(what) +
                                " record header has a zero dimension");
  }
  const uint64_t cap = MaxDeserializeCounters();
  // rows * cols could wrap; divide instead of multiplying.
  if (rows > cap / cols) {
    return InvalidArgumentError(
        std::string(what) + " record header claims " + std::to_string(rows) +
        " x " + std::to_string(cols) +
        " counters, above the deserialization cap of " + std::to_string(cap));
  }
  return OkStatus();
}

Status CheckSpecCounters(
    std::initializer_list<std::initializer_list<uint64_t>> terms,
    const char* what) {
  uint64_t total = 0;
  bool overflow = false;
  for (const std::initializer_list<uint64_t>& term : terms) {
    uint64_t product = 1;
    for (const uint64_t factor : term) {
      overflow |= __builtin_mul_overflow(product, factor, &product);
    }
    overflow |= __builtin_add_overflow(total, product, &total);
  }
  const uint64_t cap = MaxDeserializeCounters();
  if (overflow || total > cap) {
    return InvalidArgumentError(
        std::string(what) + " spec asks for " +
        (overflow ? std::string("more than 2^64") : std::to_string(total)) +
        " counters, above the cap of " + std::to_string(cap));
  }
  return OkStatus();
}

}  // namespace sketch
}  // namespace skimjoin
