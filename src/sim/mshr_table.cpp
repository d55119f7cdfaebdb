#include "sim/mshr_table.hpp"

#include <bit>

namespace sealdl::sim {

MshrTable::MshrTable()
    : slots_(kInitialSlots),
      mask_(kInitialSlots - 1),
      shift_(64 - std::countr_zero(kInitialSlots)) {}

std::size_t MshrTable::find(Addr line) const {
  std::size_t i = home(line);
  while (slots_[i].head != kNil && slots_[i].line != line) i = (i + 1) & mask_;
  return i;
}

std::uint32_t MshrTable::new_node(Waiter waiter) {
  if (free_ == kNil) {
    nodes_.push_back({waiter, kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t n = free_;
  free_ = nodes_[n].next;
  nodes_[n] = {waiter, kNil};
  return n;
}

bool MshrTable::add(Addr line, Waiter waiter) {
  std::size_t i = find(line);
  if (slots_[i].head != kNil) {
    const std::uint32_t n = new_node(waiter);
    nodes_[slots_[i].tail].next = n;
    slots_[i].tail = n;
    return false;
  }
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    i = find(line);
  }
  const std::uint32_t n = new_node(waiter);
  slots_[i] = {line, n, n};
  ++size_;
  return true;
}

bool MshrTable::contains(Addr line) const {
  return slots_[find(line)].head != kNil;
}

std::span<const Waiter> MshrTable::take(Addr line) {
  taken_.clear();
  std::size_t i = find(line);
  if (slots_[i].head == kNil) return {};
  // Copy the chain out and return its nodes to the free list.
  for (std::uint32_t n = slots_[i].head; n != kNil;) {
    taken_.push_back(nodes_[n].waiter);
    const std::uint32_t next = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    n = next;
  }
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it before its home slot, so every
  // remaining line stays reachable without tombstones.
  for (std::size_t j = i;;) {
    j = (j + 1) & mask_;
    if (slots_[j].head == kNil) break;
    const std::size_t k = home(slots_[j].line);
    if (((j - k) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --size_;
  return taken_;
}

void MshrTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(2 * old.size(), Slot{});
  mask_ = slots_.size() - 1;
  --shift_;
  for (const Slot& slot : old) {
    if (slot.head != kNil) slots_[find(slot.line)] = slot;
  }
}

}  // namespace sealdl::sim
