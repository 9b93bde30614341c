#include "src/fs/block_bitmap.h"

#include <algorithm>
#include <bit>

namespace o1mem {

void BitVector::Assign(uint64_t first, uint64_t count, bool value) {
  const uint64_t end = first + count;
  O1_CHECK(end >= first && end <= size_);
  while (first < end) {
    const uint64_t shift = first & 63;
    const uint64_t n = std::min(64 - shift, end - first);
    const uint64_t mask = (n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1) << shift;
    uint64_t& word = words_[first >> 6];
    word = value ? (word | mask) : (word & ~mask);
    first += n;
  }
}

uint64_t BitVector::Find(bool value, uint64_t from, uint64_t limit) const {
  const uint64_t flip = value ? 0 : ~uint64_t{0};
  for (uint64_t i = from; i < limit; i = (i | 63) + 1) {
    const uint64_t word = (words_[i >> 6] ^ flip) >> (i & 63);
    if (word != 0) {
      return std::min(limit, i + static_cast<uint64_t>(std::countr_zero(word)));
    }
  }
  return limit;
}

uint64_t BitVector::Count() const {
  uint64_t n = 0;
  for (uint64_t word : words_) {
    n += static_cast<uint64_t>(std::popcount(word));
  }
  return n;
}

BlockBitmap::BlockBitmap(SimContext* ctx, uint64_t block_count)
    : ctx_(ctx), bits_(block_count), free_blocks_(block_count) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(block_count > 0);
}

std::optional<uint64_t> BlockBitmap::FindRun(uint64_t from, uint64_t limit,
                                             uint64_t count) const {
  // Hop from each free run's start to the allocated block that ends it.
  for (uint64_t start = bits_.Find(false, from, limit); limit - start >= count;) {
    const uint64_t end = bits_.Find(true, start, start + count);
    if (end == start + count) {
      return start;
    }
    start = bits_.Find(false, end, limit);
  }
  return std::nullopt;
}

BlockExtent BlockBitmap::BestRun(uint64_t from, uint64_t limit, uint64_t cap) const {
  BlockExtent best;
  for (uint64_t start = bits_.Find(false, from, limit); start < limit;) {
    const uint64_t end = bits_.Find(true, start, start + std::min(cap, limit - start));
    if (end - start > best.count) {
      best = BlockExtent{.start = start, .count = end - start};
      if (best.count == cap) {
        break;
      }
    }
    start = bits_.Find(false, end, limit);
  }
  return best;
}

void BlockBitmap::Mark(BlockExtent extent, bool allocated) {
  const uint64_t end = extent.start + extent.count;
  O1_CHECK_MSG(bits_.Find(allocated, extent.start, end) == end, "bitmap double alloc/free");
  bits_.Assign(extent.start, extent.count, allocated);
  if (allocated) {
    free_blocks_ -= extent.count;
  } else {
    free_blocks_ += extent.count;
  }
}

Result<BlockExtent> BlockBitmap::AllocExtent(uint64_t count) {
  if (count == 0) {
    return InvalidArgument("bad extent size");
  }
  ctx_->Charge(ctx_->cost().extent_alloc_cycles);
  if (count > bits_.size()) {
    return OutOfMemory("request exceeds device size");
  }
  if (count > free_blocks_) {
    return OutOfMemory("not enough free blocks");
  }
  auto start = FindRun(hint_, bits_.size(), count);
  if (!start.has_value()) {
    start = FindRun(0, std::min(hint_ + count, bits_.size()), count);
  }
  if (!start.has_value()) {
    return OutOfMemory("no contiguous run of requested size (fragmented)");
  }
  const BlockExtent extent{.start = *start, .count = count};
  Mark(extent, true);
  hint_ = (*start + count) % bits_.size();
  return extent;
}

Result<BlockExtent> BlockBitmap::AllocExtentAtMost(uint64_t count, uint64_t min_count) {
  if (count == 0 || min_count == 0 || min_count > count) {
    return InvalidArgument("bad extent bounds");
  }
  auto exact = AllocExtent(count);
  if (exact.ok()) {
    return exact;
  }
  if (exact.status().code() != StatusCode::kOutOfMemory) {
    return exact.status();
  }
  // Fall back to the longest run available anywhere.
  ctx_->Charge(ctx_->cost().extent_alloc_cycles);
  BlockExtent best = BestRun(0, bits_.size(), count);
  if (best.count < min_count) {
    return OutOfMemory("no run of at least min_count blocks");
  }
  Mark(best, true);
  hint_ = (best.start + best.count) % bits_.size();
  return best;
}

Status BlockBitmap::FreeExtent(BlockExtent extent) {
  if (extent.count == 0 || extent.start + extent.count > bits_.size()) {
    return InvalidArgument("extent out of range");
  }
  const uint64_t end = extent.start + extent.count;
  if (bits_.Find(false, extent.start, end) != end) {
    return InvalidArgument("double free in bitmap");
  }
  ctx_->Charge(ctx_->cost().extent_free_cycles);
  Mark(extent, false);
  return OkStatus();
}

Status BlockBitmap::Reset(const BitVector& allocated) {
  if (allocated.size() != bits_.size()) {
    return InvalidArgument("bitmap reset size mismatch");
  }
  // One pass over the bitmap words, charged at DRAM streaming rate for the
  // bit array (1 bit per block).
  ctx_->Charge(ctx_->cost().DramBulkCycles(bits_.size() / 8 + 1));
  bits_ = allocated;
  free_blocks_ = bits_.size() - bits_.Count();
  hint_ = 0;
  return OkStatus();
}

bool BlockBitmap::IsAllocated(uint64_t block) const {
  O1_CHECK(block < bits_.size());
  return bits_.Test(block);
}

uint64_t BlockBitmap::LargestFreeRun() const {
  return BestRun(0, bits_.size(), bits_.size()).count;
}

}  // namespace o1mem
