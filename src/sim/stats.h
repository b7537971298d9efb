#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/state_io.h"

namespace hht::sim {

/// Log2-bucketed interval histogram: bucket i counts values v with
/// bit_width(v) == i, i.e. bucket 0 holds v==0, bucket i>=1 holds
/// [2^(i-1), 2^i). Used for latency/occupancy/span-length distributions
/// where exact per-value storage would be unbounded.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) {
    sum_ += v;
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    ++buckets_[bucketOf(v)];
  }

  static std::size_t bucketOf(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucketLow(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  void absorb(const Histogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  void io(StateIo& ar) {
    ar.u64(count_);
    ar.u64(sum_);
    ar.u64(min_);
    ar.u64(max_);
    for (std::uint64_t& b : buckets_) ar.u64(b);
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// A hierarchical set of named 64-bit counters.
///
/// Every simulator component (core, memory system, HHT) owns a StatSet and
/// bumps counters by name. Names are dotted paths ("cpu.load_stall_cycles")
/// so a merged dump groups naturally.
///
/// Storage is split into a string-keyed index (setup/report time only) and a
/// dense value array (hot path). Components that bump a counter per cycle
/// obtain either a stable `uint64_t&` via counter() or a dense Handle via
/// handle() once at construction; per-cycle code never touches the string
/// map. Values live in a std::deque so references stay valid as new counters
/// are created.
class StatSet {
 public:
  /// Dense index of a counter, obtained once via handle().
  using Handle = std::uint32_t;

  /// Returns the dense handle for `name`, creating the counter at zero on
  /// first use. Handles are stable for the StatSet's lifetime.
  Handle handle(std::string_view name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const Handle id = static_cast<Handle>(values_.size());
    index_.emplace(std::string(name), id);
    values_.push_back(0);
    return id;
  }

  /// Hot-path access by dense handle.
  std::uint64_t& at(Handle id) { return values_[id]; }
  std::uint64_t at(Handle id) const { return values_[id]; }

  /// Returns a stable reference to the counter named `name`, creating it at
  /// zero on first use. References stay valid for the StatSet's lifetime
  /// (deque elements never move under push_back).
  std::uint64_t& counter(std::string_view name) { return values_[handle(name)]; }

  /// Read-only lookup; returns 0 for a counter never bumped.
  std::uint64_t value(std::string_view name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0 : values_[it->second];
  }

  bool contains(std::string_view name) const { return index_.contains(name); }

  /// Returns the interval histogram named `name`, creating it empty on
  /// first use. References stay valid for the StatSet's lifetime.
  Histogram& histogram(std::string_view name) {
    auto it = hists_.find(name);
    if (it != hists_.end()) return it->second;
    return hists_.emplace(std::string(name), Histogram{}).first->second;
  }

  /// Read-only lookup; nullptr if never created.
  const Histogram* findHistogram(std::string_view name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return hists_;
  }

  /// Drops every counter. Invalidates all handles and references; only
  /// valid before components cache them (setup/report/test code).
  void clear() {
    index_.clear();
    values_.clear();
    hists_.clear();
  }

  /// Merge another StatSet into this one, prefixing each counter and
  /// histogram name.
  void absorb(const StatSet& other, std::string_view prefix) {
    for (const auto& [name, id] : other.index_) {
      counter(std::string(prefix) + name) += other.values_[id];
    }
    for (const auto& [name, hist] : other.hists_) {
      histogram(std::string(prefix) + name).absorb(hist);
    }
  }

  /// Name -> value snapshot (sorted by name), for reports and tests.
  std::map<std::string, std::uint64_t> all() const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, id] : index_) out.emplace(name, values_[id]);
    return out;
  }

  /// Checkpoint hook. Reading must not invalidate handles: components
  /// cache counter() references and handle() ids, so existing counters are
  /// zeroed in place and snapshot values assigned by name via counter()
  /// (creating any the snapshot has that we don't yet). Names come from
  /// the maps when writing and from the snapshot when reading.
  void io(StateIo& ar) {
    if (ar.reading()) {
      for (auto& v : values_) v = 0;
      hists_.clear();
    }
    // A counter is at least a name length and a value.
    auto c = index_.begin();
    for (std::size_t i = 0, n = ar.count(index_.size(), 16); i < n; ++i) {
      std::string name = ar.reading() ? std::string() : (c++)->first;
      ar.str(name);
      ar.u64(counter(name));
    }
    // A histogram is at least a name length and its 4 + kBuckets words.
    auto h = hists_.begin();
    for (std::size_t i = 0, n = ar.count(hists_.size(), 8 * (5 + Histogram::kBuckets));
         i < n; ++i) {
      std::string name = ar.reading() ? std::string() : (h++)->first;
      ar.str(name);
      histogram(name).io(ar);
    }
  }

  friend std::ostream& operator<<(std::ostream& os, const StatSet& s) {
    for (const auto& [name, id] : s.index_) {
      os << name << " = " << s.values_[id] << '\n';
    }
    return os;
  }

 private:
  std::map<std::string, Handle, std::less<>> index_;
  std::deque<std::uint64_t> values_;
  std::map<std::string, Histogram, std::less<>> hists_;
};

}  // namespace hht::sim
