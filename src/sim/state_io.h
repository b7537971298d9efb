#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/error.h"

namespace hht::sim {

/// Exclusive bound of an enum whose last enumerator is `last`, for the
/// range-checked field visitors below.
template <class E>
constexpr std::uint64_t after(E last) {
  return static_cast<std::uint64_t>(last) + 1;
}

/// Bidirectional snapshot archive. Every component describes its state
/// once, in `void io(StateIo&)`: visiting a field on a writing archive
/// appends it, and on a reading archive assigns it. All multi-byte values
/// are little-endian regardless of host order, so a snapshot taken on one
/// machine replays on any other.
///
/// A writing archive never modifies the object it visits (checkpoint()
/// methods are const and call io through a const_cast). Steps that really
/// are one-directional (rebuilding host-side indexes, constructing an
/// engine before its state is read) sit behind `if (ar.reading())`.
///
/// The archive owns the checks every reader needs, so no component trusts
/// its input: four-character section tags, fields that must equal the
/// configured value, enum and index ranges, and sequence counts, which are
/// checked against the bytes that remain before anything is allocated.
/// Each failed check, and any read past the end, throws
/// SimError(Checkpoint) naming the current section and the byte offset.
class StateIo {
 public:
  /// A writing archive; data() holds what was written.
  StateIo() = default;
  /// A reading archive over `size` bytes (not owned).
  StateIo(const std::uint8_t* data, std::size_t size)
      : in_(data), size_(size), reading_(true) {}
  explicit StateIo(const std::vector<std::uint8_t>& buf)
      : StateIo(buf.data(), buf.size()) {}

  bool reading() const { return reading_; }

  // ---- fields: any integral or enum type, at a fixed wire width ----
  template <class T>
  void u8(T& v) {
    field<std::uint8_t>(v);
  }
  template <class T>
  void u32(T& v) {
    field<std::uint32_t>(v);
  }
  template <class T>
  void u64(T& v) {
    field<std::uint64_t>(v);
  }
  /// As above, but a value read must be below `bound` (an index or an
  /// enum; see after()).
  template <class T>
  void u8(T& v, std::uint64_t bound, const char* what) {
    field<std::uint8_t>(v, bound, what);
  }
  template <class T>
  void u32(T& v, std::uint64_t bound, const char* what) {
    field<std::uint32_t>(v, bound, what);
  }
  template <class T>
  void u64(T& v, std::uint64_t bound, const char* what) {
    field<std::uint64_t>(v, bound, what);
  }

  void b(bool& v) {
    std::uint8_t byte = v ? 1 : 0;
    u8(byte);
    v = byte != 0;
  }
  void f32(float& v) {
    std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    u32(bits);
    v = std::bit_cast<float>(bits);
  }
  void f64(double& v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    u64(bits);
    v = std::bit_cast<double>(bits);
  }
  /// Length-prefixed (u64) string.
  void str(std::string& s);
  /// Length-prefixed (u64) byte vector.
  void bytes(std::vector<std::uint8_t>& v);
  /// `n` raw bytes, no length: the caller knows the size.
  void raw(std::uint8_t* data, std::size_t n);

  /// Write a four-character section tag, or read one and require a match.
  /// The tag names the section in later error messages.
  void tag(const char* four_cc);

  /// A field that must equal the configured value: written as is, and on
  /// read compared with `configured`.
  void expect32(std::uint32_t configured, const char* what) {
    expect<std::uint32_t>(configured, what);
  }
  void expect64(std::uint64_t configured, const char* what) {
    expect<std::uint64_t>(configured, what);
  }

  /// A consistency check on state just read (no-op when writing).
  void check(bool ok, const char* what) const {
    if (reading() && !ok) fail(what);
  }

  /// A sequence count, written at the `Wire` width. On read the count must
  /// fit the bytes that remain at `bytes_each` per element.
  template <class Wire = std::uint64_t>
  std::size_t count(std::size_t n, std::size_t bytes_each) {
    Wire wire = static_cast<Wire>(n);
    const std::size_t at = pos_;
    field<Wire>(wire);
    if (reading() && bytes_each != 0 && wire > remaining() / bytes_each) {
      fail("count " + std::to_string(wire) + " needs " +
               std::to_string(bytes_each) + " bytes each but only " +
               std::to_string(remaining()) + " remain",
           at);
    }
    return static_cast<std::size_t>(wire);
  }

  /// A counted sequence: `each(element)` visits every element, after a
  /// read clears and resizes `s` to the checked count.
  template <class Wire = std::uint64_t, class Seq, class Fn>
  void seq(Seq& s, std::size_t bytes_each, Fn&& each) {
    const std::size_t n = count<Wire>(s.size(), bytes_each);
    if (reading()) {
      s.clear();
      s.resize(n);
    }
    for (auto& e : s) each(e);
  }

  /// A presence flag, then `each(value)` when present.
  template <class T, class Fn>
  void optional(std::optional<T>& v, Fn&& each) {
    bool present = v.has_value();
    b(present);
    if (!present) {
      v.reset();
    } else {
      if (!v) v.emplace();
      each(*v);
    }
  }

  /// End of the payload: a read must have consumed every byte.
  void end() const {
    if (reading() && remaining() != 0) {
      fail(std::to_string(remaining()) + " trailing bytes after the payload");
    }
  }

  /// What a writing archive wrote.
  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> release() { return std::move(out_); }

 private:
  /// Throw SimError(Checkpoint) naming the section and the offset `at`.
  [[noreturn]] void fail(const std::string& what, std::size_t at) const;
  [[noreturn]] void fail(const std::string& what) const { fail(what, pos_); }
  std::size_t remaining() const { return size_ - pos_; }

  template <class Wire, class T>
  void field(T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    static_assert(!std::is_same_v<T, bool>, "use b()");
    if (reading()) {
      v = static_cast<T>(get<Wire>());
    } else {
      put<Wire>(static_cast<Wire>(v));
    }
  }

  template <class Wire, class T>
  void field(T& v, std::uint64_t bound, const char* what) {
    if (!reading()) return field<Wire>(v);
    const std::size_t at = pos_;
    const Wire wire = get<Wire>();
    if (wire >= bound) {
      fail(std::string(what) + " " + std::to_string(wire) +
               " out of range (must be below " + std::to_string(bound) + ")",
           at);
    }
    v = static_cast<T>(wire);
  }

  template <class Wire>
  void expect(Wire configured, const char* what) {
    Wire wire = configured;
    const std::size_t at = pos_;
    field<Wire>(wire);
    if (wire != configured) {
      fail(std::string("snapshot ") + what + " " + std::to_string(wire) +
               " != expected " + std::to_string(configured),
           at);
    }
  }

  template <class Wire>
  void put(Wire v) {
    for (std::size_t i = 0; i < sizeof(Wire); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <class Wire>
  Wire get() {
    need(sizeof(Wire));
    Wire v = 0;
    for (std::size_t i = 0; i < sizeof(Wire); ++i) {
      v |= static_cast<Wire>(static_cast<Wire>(in_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(Wire);
    return v;
  }

  void need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      fail("snapshot truncated: need " + std::to_string(n) + " bytes of " +
           std::to_string(size_));
    }
  }

  std::vector<std::uint8_t> out_;
  const std::uint8_t* in_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool reading_ = false;
  char section_[5] = "";  ///< last tag visited, for error messages
};

}  // namespace hht::sim
