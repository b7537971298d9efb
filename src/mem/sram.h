#pragma once

#include <sys/mman.h>

#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/error.h"
#include "sim/state_io.h"
#include "sim/types.h"

namespace hht::mem {

using sim::Addr;

/// Functional backing store: a flat byte array modelling the MCU's on-chip
/// SRAM (Table 1: 1 MB). Timing lives in MemorySystem; this class only
/// holds state and does bounds-checked byte access.
///
/// The bytes live in one anonymous private mapping, so the kernel supplies
/// a zero page on first touch: construction costs one syscall whatever the
/// size, and a run pays only for the pages it writes. The mapping is
/// page-rounded, but every access is checked against size(), so the slack
/// past it is unreachable.
class Sram {
 public:
  explicit Sram(std::size_t bytes)
      : size_(bytes), bytes_(mapZeroPages(bytes)) {}

  std::size_t size() const { return size_; }

  bool inBounds(Addr addr, std::size_t len) const {
    return static_cast<std::size_t>(addr) + len <= size_ &&
           static_cast<std::size_t>(addr) + len >= len;  // overflow guard
  }

  std::uint32_t read(Addr addr, std::uint32_t size) const {
    check(addr, size);
    std::uint32_t v = 0;
    std::memcpy(&v, bytes_.get() + addr, size);
    return v;
  }

  void write(Addr addr, std::uint32_t size, std::uint32_t value) {
    check(addr, size);
    std::memcpy(bytes_.get() + addr, &value, size);
    if (!latent_.empty()) clearLatentRange(addr, size);
  }

  // --- latent-fault registry (DESIGN.md §15) ---
  //
  // `bytes_` always holds the *true* data; `latent_` records at-rest bit
  // flips per 32-bit ECC word (key = word-aligned address, value = flipped
  // bit mask). A demand read of a word with one flipped bit is corrected
  // in flight (SECDED) but the cell stays dirty until a write refreshes it
  // or the patrol scrubber cleans it; two or more flips in one word are
  // uncorrectable and the response is poisoned. With no flips registered
  // every path below is a single `empty()` test — zero-cost.

  /// XOR `mask` into the latent-flip registry of the word containing
  /// `addr`. An even re-flip of the same bits clears the entry.
  void injectLatentFlip(Addr addr, std::uint32_t mask) {
    check(addr & ~Addr{3}, 4);
    if (mask == 0) return;
    const Addr word = addr & ~Addr{3};
    const std::uint32_t merged = latent_[word] ^ mask;
    if (merged == 0) {
      latent_.erase(word);
    } else {
      latent_[word] = merged;
    }
  }

  std::size_t latentCount() const { return latent_.size(); }

  /// Flipped-bit mask of the word containing `addr` (0 = clean).
  std::uint32_t latentMask(Addr addr) const {
    if (latent_.empty()) return 0;
    auto it = latent_.find(addr & ~Addr{3});
    return it == latent_.end() ? 0 : it->second;
  }

  /// Scrub correction: drop the registry entry of the word containing
  /// `addr` (the scrubber rewrites the cell from the corrected data).
  void clearLatentWord(Addr addr) { latent_.erase(addr & ~Addr{3}); }

  /// Word-aligned addresses with latent flips, in address order.
  const std::map<Addr, std::uint32_t>& latentWords() const { return latent_; }

  /// Bulk helpers for loading workloads / reading back results. These are
  /// host-side conveniences and carry no simulated cost.
  void pokeBytes(Addr addr, std::span<const std::byte> data) {
    check(addr, data.size());
    if (data.empty()) return;  // empty span has a null data(); memcpy forbids it
    std::memcpy(bytes_.get() + addr, data.data(), data.size());
    if (!latent_.empty()) clearLatentRange(addr, data.size());
  }
  void peekBytes(Addr addr, std::span<std::byte> out) const {
    check(addr, out.size());
    if (out.empty()) return;
    std::memcpy(out.data(), bytes_.get() + addr, out.size());
  }

  template <typename T>
  void pokeValue(Addr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    pokeBytes(addr, std::as_bytes(std::span(&value, 1)));
  }
  template <typename T>
  T peekValue(Addr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    peekBytes(addr, std::as_writable_bytes(std::span(&out, 1)));
    return out;
  }

  template <typename T>
  void pokeArray(Addr addr, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    pokeBytes(addr, std::as_bytes(values));
  }
  template <typename T>
  std::vector<T> peekArray(Addr addr, std::size_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(count);
    peekBytes(addr, std::as_writable_bytes(std::span(out)));
    return out;
  }

  /// Checkpoint hook. The SRAM is sized by config, never by snapshot: a
  /// size mismatch means the snapshot belongs to a different SystemConfig.
  /// Its contents are read straight into the mapping.
  void io(sim::StateIo& ar) {
    ar.tag("SRAM");
    ar.expect64(size_, "SRAM size");
    ar.raw(bytes_.get(), size_);
    // Snapshot v5: the latent-flip registry, by word address.
    std::vector<std::pair<Addr, std::uint32_t>> latent(latent_.begin(),
                                                       latent_.end());
    ar.seq(latent, 12, [&](auto& e) {
      ar.u64(e.first, size_, "latent-flip address");
      ar.u32(e.second);
    });
    if (ar.reading()) latent_ = {latent.begin(), latent.end()};
  }

 private:
  void check(Addr addr, std::size_t len) const {
    if (!inBounds(addr, len)) {
      throw std::out_of_range("Sram access out of bounds: addr=" +
                              std::to_string(addr) + " len=" +
                              std::to_string(len) + " size=" +
                              std::to_string(size_));
    }
  }

  void clearLatentRange(Addr addr, std::size_t len) {
    const Addr first = addr & ~Addr{3};
    const Addr last = (addr + static_cast<Addr>(len) - 1) & ~Addr{3};
    latent_.erase(latent_.lower_bound(first), latent_.upper_bound(last));
  }

  struct Unmap {
    std::size_t len;
    void operator()(std::uint8_t* p) const noexcept { ::munmap(p, len); }
  };
  using Mapping = std::unique_ptr<std::uint8_t[], Unmap>;

  /// A zero-size SRAM maps nothing (mmap rejects length 0); check() then
  /// rejects every non-empty access before the null pointer is used.
  static Mapping mapZeroPages(std::size_t bytes) {
    if (bytes == 0) return Mapping(nullptr, Unmap{0});
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return Mapping(static_cast<std::uint8_t*>(p), Unmap{bytes});
  }

  std::size_t size_;
  Mapping bytes_;
  std::map<Addr, std::uint32_t> latent_;
};

}  // namespace hht::mem
