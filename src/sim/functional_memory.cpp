#include "sim/functional_memory.hpp"

#include <algorithm>
#include <cstring>

namespace sealdl::sim {

namespace {
constexpr Addr line_base(Addr addr) {
  return addr & ~static_cast<Addr>(crypto::kLineBytes - 1);
}
}  // namespace

FunctionalMemory::FunctionalMemory(const SchemeInfo& scheme,
                                   const SecureMap* secure_map,
                                   const crypto::Key128& key)
    : family_(scheme.family), protection_(scheme, secure_map), aes_(key) {}

bool FunctionalMemory::line_is_secure(Addr line_addr) const {
  return protection_.line_is_secure(line_addr, crypto::kLineBytes);
}

FunctionalMemory::LineBuf& FunctionalMemory::line_slot(Addr line_addr) {
  return lines_[line_addr];
}

FunctionalMemory::LineBuf FunctionalMemory::seal_line(Addr line_addr,
                                                      const LineBuf& plain) {
  LineBuf out = plain;
  if (!line_is_secure(line_addr)) return out;
  switch (family_) {
    case EncryptionScheme::kDirect:
      crypto::direct_encrypt_line(aes_, line_addr, out.bytes);
      break;
    case EncryptionScheme::kCounter: {
      const std::uint64_t counter = ++counters_[line_addr];
      crypto::counter_transform_line(aes_, line_addr, counter, out.bytes);
      break;
    }
    case EncryptionScheme::kNone:
      break;
  }
  return out;
}

FunctionalMemory::LineBuf FunctionalMemory::unseal_line(Addr line_addr,
                                                        const LineBuf& stored) const {
  LineBuf out = stored;
  if (!line_is_secure(line_addr)) return out;
  switch (family_) {
    case EncryptionScheme::kDirect:
      crypto::direct_decrypt_line(aes_, line_addr, out.bytes);
      break;
    case EncryptionScheme::kCounter: {
      const auto it = counters_.find(line_addr);
      const std::uint64_t counter = it == counters_.end() ? 0 : it->second;
      crypto::counter_transform_line(aes_, line_addr, counter, out.bytes);
      break;
    }
    case EncryptionScheme::kNone:
      break;
  }
  return out;
}

void FunctionalMemory::write(Addr addr, std::span<const std::uint8_t> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const Addr line_addr = line_base(addr + offset);
    const std::size_t in_line = (addr + offset) - line_addr;
    const std::size_t n =
        std::min(crypto::kLineBytes - in_line, data.size() - offset);

    // Read-modify-write the plaintext image of the line.
    LineBuf plain = unseal_line(line_addr, line_slot(line_addr));
    std::memcpy(plain.bytes.data() + in_line, data.data() + offset, n);
    const LineBuf wire = seal_line(line_addr, plain);
    line_slot(line_addr) = wire;
    if (probe_) {
      probe_->on_transfer(line_addr, crypto::kLineBytes, true,
                          line_is_secure(line_addr));
      probe_->on_data(line_addr, wire.bytes, true, line_is_secure(line_addr));
    }
    offset += n;
  }
}

void FunctionalMemory::read(Addr addr, std::span<std::uint8_t> out) {
  std::size_t offset = 0;
  while (offset < out.size()) {
    const Addr line_addr = line_base(addr + offset);
    const std::size_t in_line = (addr + offset) - line_addr;
    const std::size_t n =
        std::min(crypto::kLineBytes - in_line, out.size() - offset);

    const LineBuf& stored = line_slot(line_addr);
    if (probe_) {
      probe_->on_transfer(line_addr, crypto::kLineBytes, false,
                          line_is_secure(line_addr));
      probe_->on_data(line_addr, stored.bytes, false, line_is_secure(line_addr));
    }
    const LineBuf plain = unseal_line(line_addr, stored);
    std::memcpy(out.data() + offset, plain.bytes.data() + in_line, n);
    offset += n;
  }
}

std::vector<std::uint8_t> FunctionalMemory::raw_line(Addr line_addr) const {
  const auto it = lines_.find(line_base(line_addr));
  if (it == lines_.end()) return std::vector<std::uint8_t>(crypto::kLineBytes, 0);
  return {it->second.bytes.begin(), it->second.bytes.end()};
}

}  // namespace sealdl::sim
