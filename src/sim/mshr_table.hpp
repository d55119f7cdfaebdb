// The L2 slice's miss-status table: per pending line, the loads waiting for
// its fill, in arrival order.
//
// A flat open-addressing table (linear probing, backward-shift deletion)
// whose waiters live in one pooled singly linked list per line. Slots and
// pool nodes are recycled, so once both have grown to the workload's
// high-water mark a miss, a merge and a fill allocate nothing. The table
// grows when half full; nothing bounds the number of pending lines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/request.hpp"

namespace sealdl::sim {

/// A load waiting for a line fill.
struct Waiter {
  int sm_id;
  int warp_id;
};

class MshrTable {
 public:
  MshrTable();

  /// Queues `waiter` on `line`. Returns true when `line` had no entry, i.e.
  /// the caller must issue the fill.
  bool add(Addr line, Waiter waiter);

  /// True while `line` awaits its fill.
  [[nodiscard]] bool contains(Addr line) const;

  /// Removes `line`'s entry and returns its waiters in arrival order (empty
  /// when the line has no entry). The span stays valid until the next call
  /// to add() or take().
  std::span<const Waiter> take(Addr line);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// First slot probed for `line`; exposed so tests can build collision
  /// chains.
  [[nodiscard]] std::size_t home(Addr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  static constexpr std::size_t kInitialSlots = 32;

 private:
  static constexpr std::uint32_t kNil = ~static_cast<std::uint32_t>(0);

  /// A slot is free when `head` is kNil: a live entry has at least one waiter.
  struct Slot {
    Addr line = 0;
    std::uint32_t head = kNil;  ///< first waiter node
    std::uint32_t tail = kNil;  ///< last waiter node (appends go here)
  };
  struct Node {
    Waiter waiter;
    std::uint32_t next;
  };

  /// Slot holding `line`, or the free slot that ends its probe chain.
  [[nodiscard]] std::size_t find(Addr line) const;
  std::uint32_t new_node(Waiter waiter);
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size
  std::size_t mask_ = 0;
  int shift_ = 64;           ///< 64 - log2(slots_.size())
  std::size_t size_ = 0;     ///< live entries
  std::vector<Node> nodes_;  ///< waiter pool
  std::uint32_t free_ = kNil;  ///< free-node list through Node::next
  std::vector<Waiter> taken_;  ///< backing store of take()'s span
};

}  // namespace sealdl::sim
