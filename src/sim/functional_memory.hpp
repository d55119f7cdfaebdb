// Functional model of the off-chip DRAM plus the in-line encryption engine.
//
// This is the data-carrying counterpart of the timing simulator (a gem5-style
// functional/timing split): reads and writes move real bytes, secure lines are
// really transformed with AES-128, and an attached BusProbe observes the wire
// image — ciphertext for secure lines, plaintext otherwise. The bus-snooping
// attack (src/attack) reconstructs DRAM contents purely from probe events.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/modes.hpp"
#include "sim/bus_probe.hpp"
#include "sim/scheme_registry.hpp"

namespace sealdl::sim {

class FunctionalMemory {
 public:
  /// `scheme`'s family selects the line transform and its scope which lines
  /// get it (LineProtection); `secure_map` (non-owning, may be null) marks
  /// the ranges a selective scope encrypts.
  FunctionalMemory(const SchemeInfo& scheme, const SecureMap* secure_map,
                   const crypto::Key128& key);

  /// Writes `data` starting at `addr`. The chip-side caller supplies
  /// plaintext; whole covering lines are encrypted (if secure) and stored.
  /// Partial-line writes read-modify-write the affected lines.
  void write(Addr addr, std::span<const std::uint8_t> data);

  /// Reads `out.size()` bytes starting at `addr`, decrypting secure lines.
  void read(Addr addr, std::span<std::uint8_t> out);

  /// The raw DRAM image of one line (what a cold-boot / bus attacker sees).
  [[nodiscard]] std::vector<std::uint8_t> raw_line(Addr line_addr) const;

  void set_probe(BusProbe* probe) { probe_ = probe; }

  [[nodiscard]] bool line_is_secure(Addr line_addr) const;

  /// Number of distinct lines ever written.
  [[nodiscard]] std::size_t resident_lines() const { return lines_.size(); }

 private:
  struct LineBuf {
    std::array<std::uint8_t, crypto::kLineBytes> bytes{};
  };

  /// Fetches (or zero-initializes) the stored image of a line.
  LineBuf& line_slot(Addr line_addr);

  /// Applies the configured transform to a plaintext line image, bumping the
  /// write counter in counter mode. Returns the wire/DRAM image.
  LineBuf seal_line(Addr line_addr, const LineBuf& plain);

  /// Inverse transform of the stored image.
  LineBuf unseal_line(Addr line_addr, const LineBuf& stored) const;

  EncryptionScheme family_;
  LineProtection protection_;
  crypto::Aes128 aes_;
  std::unordered_map<Addr, LineBuf> lines_;
  std::unordered_map<Addr, std::uint64_t> counters_;
  BusProbe* probe_ = nullptr;
};

}  // namespace sealdl::sim
