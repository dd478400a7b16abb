// hpcc/sim/event_arena.h
//
// Bump-pointer arena for DES event records (DESIGN.md §13). The
// scheduling hot path used to pay one heap allocation per event (the
// std::function capture block); the arena replaces it with a pointer
// bump into block-sized slabs. Lifetime rules:
//
//  * An allocation lives exactly from schedule to execution (or queue
//    teardown) — events never escape the kernel, so no per-allocation
//    free list is needed.
//  * Each block counts its live allocations. When the count hits zero
//    and the block is not the one currently being filled, the whole
//    block recycles onto a free list — memory is bounded by the peak
//    outstanding-event footprint, not by the total events scheduled.
//  * release() never invalidates other allocations: recycling resets
//    only the bump cursor of a block with zero live records.
//
// The arena is single-threaded by design: the DES kernel runs one
// logical clock on one thread (DESIGN.md §13), so no atomics or
// sharding appear here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hpcc::sim {

class EventArena {
 public:
  /// Default slab size: big enough that a scheduling burst of ~2000
  /// typical events (header + a few captured words) fits one block.
  static constexpr std::size_t kBlockBytes = 256 * 1024;

  struct Allocation {
    void* ptr = nullptr;
    std::uint32_t block = 0;
  };

  /// Allocates `bytes` aligned to alignof(std::max_align_t).
  Allocation allocate(std::size_t bytes) {
    bytes = align_up(bytes);
    if (current_ == kNone || blocks_[current_].used + bytes > blocks_[current_].cap)
      open_block(bytes);
    Block& b = blocks_[current_];
    Allocation a{b.mem.get() + b.used, current_};
    b.used += bytes;
    ++b.live;
    return a;
  }

  /// Marks one allocation from `block` dead; recycles the block when
  /// its last live record dies (unless it is still being filled).
  void release(std::uint32_t block) {
    Block& b = blocks_[block];
    if (--b.live == 0 && block != current_) {
      b.used = 0;
      free_.push_back(block);
    }
  }

  /// Pre-sizes the arena so `bytes` more can be allocated without
  /// opening new blocks (the EventQueue::reserve() burst hook).
  void reserve_bytes(std::size_t bytes) {
    std::size_t have = current_ == kNone
                           ? 0
                           : blocks_[current_].cap - blocks_[current_].used;
    for (const auto idx : free_) have += blocks_[idx].cap;
    while (have < bytes) {
      blocks_.push_back(make_block(kBlockBytes));
      free_.push_back(static_cast<std::uint32_t>(blocks_.size() - 1));
      ++blocks_opened_;
      have += kBlockBytes;
    }
  }

  /// Blocks ever opened (growth observability; reserve() counts too).
  std::uint64_t blocks_opened() const { return blocks_opened_; }
  std::size_t blocks_resident() const { return blocks_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t cap = 0;
    std::size_t used = 0;
    std::size_t live = 0;
  };

  static std::size_t align_up(std::size_t n) {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (n + a - 1) & ~(a - 1);
  }

  static Block make_block(std::size_t cap) {
    Block b;
    b.mem = std::make_unique<std::byte[]>(cap);
    b.cap = cap;
    return b;
  }

  void open_block(std::size_t need) {
    // A filled block with live records parks until its events run.
    if (current_ != kNone && blocks_[current_].live == 0) {
      blocks_[current_].used = 0;
      free_.push_back(current_);
    }
    // Reuse a drained block when the request fits the standard slab;
    // oversized records (a callback capturing a large value) get a
    // dedicated block of exactly their size.
    if (need <= kBlockBytes && !free_.empty()) {
      current_ = free_.back();
      free_.pop_back();
      return;
    }
    blocks_.push_back(make_block(need > kBlockBytes ? need : kBlockBytes));
    current_ = static_cast<std::uint32_t>(blocks_.size() - 1);
    ++blocks_opened_;
  }

  std::vector<Block> blocks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t current_ = kNone;
  std::uint64_t blocks_opened_ = 0;
};

}  // namespace hpcc::sim
