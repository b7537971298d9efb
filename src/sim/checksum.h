#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace hht::sim {

/// CRC-32C (Castagnoli) step functions for the end-to-end stream checksum
/// channel (DESIGN.md §15). The BE folds every slot it pushes into a running
/// CRC; the FE folds every slot it delivers; the two must agree at each
/// check point, so any single corruption between push and delivery — FIFO
/// cell, merge path, delivery port — changes one side and not the other.
///
/// Header-only and table-driven: cheap enough to leave on in campaigns, and
/// entirely skipped (no table touch) when the e2e channel is disabled.
namespace detail {
constexpr std::array<std::uint32_t, 256> makeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    makeCrc32cTable();
}  // namespace detail

/// Fold one byte into a running CRC-32C.
constexpr std::uint32_t crc32cByte(std::uint32_t crc, std::uint8_t byte) {
  return (crc >> 8) ^ detail::kCrc32cTable[(crc ^ byte) & 0xFFu];
}

/// Fold a 32-bit word (little-endian byte order) into a running CRC-32C.
constexpr std::uint32_t crc32cWord(std::uint32_t crc, std::uint32_t word) {
  crc = crc32cByte(crc, static_cast<std::uint8_t>(word));
  crc = crc32cByte(crc, static_cast<std::uint8_t>(word >> 8));
  crc = crc32cByte(crc, static_cast<std::uint8_t>(word >> 16));
  return crc32cByte(crc, static_cast<std::uint8_t>(word >> 24));
}

/// Fold one FIFO slot — payload bits plus the row-end marker — into a
/// running stream CRC. Both ends of the channel use exactly this.
constexpr std::uint32_t crcFoldSlot(std::uint32_t crc, std::uint32_t bits,
                                    bool is_row_end) {
  crc = crc32cWord(crc, bits);
  return crc32cByte(crc, is_row_end ? 1u : 0u);
}

/// FNV-1a (64-bit): the byte-buffer hash behind snapshot fingerprints,
/// program identities and served-result hashes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;

/// Fold one byte into a running FNV-1a hash.
constexpr std::uint64_t fnv1aByte(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 0x100000001B3ull;
}

/// Fold `bytes` into a running FNV-1a hash (a fresh one by default).
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                              std::uint64_t h = kFnvOffsetBasis) {
  for (const std::uint8_t byte : bytes) h = fnv1aByte(h, byte);
  return h;
}

}  // namespace hht::sim
