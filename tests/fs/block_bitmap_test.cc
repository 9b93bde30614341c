#include "src/fs/block_bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/support/rng.h"

namespace o1mem {
namespace {

class BitmapTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  BlockBitmap bitmap_{&ctx_, 1024};
};

TEST_F(BitmapTest, StartsEmpty) {
  EXPECT_EQ(bitmap_.free_blocks(), 1024u);
  EXPECT_EQ(bitmap_.LargestFreeRun(), 1024u);
  EXPECT_FALSE(bitmap_.IsAllocated(0));
}

TEST_F(BitmapTest, AllocMarksBlocks) {
  auto e = bitmap_.AllocExtent(16);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->count, 16u);
  for (uint64_t b = e->start; b < e->start + 16; ++b) {
    EXPECT_TRUE(bitmap_.IsAllocated(b));
  }
  EXPECT_EQ(bitmap_.free_blocks(), 1024u - 16);
}

TEST_F(BitmapTest, SequentialAllocationsAreContiguousWhenEmpty) {
  auto a = bitmap_.AllocExtent(8);
  auto b = bitmap_.AllocExtent(8);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->start, a->start + 8);  // next-fit packs forward
}

TEST_F(BitmapTest, FreeRestores) {
  auto e = bitmap_.AllocExtent(100);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(*e).ok());
  EXPECT_EQ(bitmap_.free_blocks(), 1024u);
  EXPECT_FALSE(bitmap_.IsAllocated(e->start));
}

TEST_F(BitmapTest, DoubleFreeRejected) {
  auto e = bitmap_.AllocExtent(4);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(*e).ok());
  EXPECT_FALSE(bitmap_.FreeExtent(*e).ok());
}

TEST_F(BitmapTest, WrapAroundFindsFreedSpace) {
  // Fill nearly everything, free a hole at the start, then allocate: the
  // next-fit pointer must wrap and find it.
  auto big = bitmap_.AllocExtent(1000);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = big->start, .count = 50}).ok());
  ASSERT_TRUE(bitmap_.AllocExtent(24).ok());  // consumes the tail
  auto wrapped = bitmap_.AllocExtent(50);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->start, big->start);
}

TEST_F(BitmapTest, FragmentedRequestFails) {
  // Allocate all, free every other block: max run = 1.
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  for (uint64_t b = 0; b < 1024; b += 2) {
    ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = b, .count = 1}).ok());
  }
  EXPECT_EQ(bitmap_.LargestFreeRun(), 1u);
  EXPECT_FALSE(bitmap_.AllocExtent(2).ok());
  EXPECT_TRUE(bitmap_.AllocExtent(1).ok());
}

TEST_F(BitmapTest, AllocAtMostReturnsBestRun) {
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 100, .count = 10}).ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 300, .count = 30}).ok());
  auto best = bitmap_.AllocExtentAtMost(100, 1);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->start, 300u);
  EXPECT_EQ(best->count, 30u);
}

TEST_F(BitmapTest, AllocAtMostHonorsMinimum) {
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 0, .count = 3}).ok());
  EXPECT_FALSE(bitmap_.AllocExtentAtMost(100, 4).ok());
  EXPECT_TRUE(bitmap_.AllocExtentAtMost(100, 3).ok());
}

TEST_F(BitmapTest, InvalidRequestsRejected) {
  EXPECT_FALSE(bitmap_.AllocExtent(0).ok());
  EXPECT_FALSE(bitmap_.AllocExtent(4096).ok());
  EXPECT_FALSE(bitmap_.FreeExtent(BlockExtent{.start = 1020, .count = 10}).ok());
  EXPECT_FALSE(bitmap_.AllocExtentAtMost(10, 20).ok());
}

TEST_F(BitmapTest, ResetRebuildsState) {
  ASSERT_TRUE(bitmap_.AllocExtent(500).ok());
  BitVector rebuilt(1024);
  rebuilt.Assign(7, 1, true);
  ASSERT_TRUE(bitmap_.Reset(rebuilt).ok());
  EXPECT_EQ(bitmap_.free_blocks(), 1023u);
  EXPECT_TRUE(bitmap_.IsAllocated(7));
  EXPECT_FALSE(bitmap_.IsAllocated(100));
  EXPECT_FALSE(bitmap_.Reset(BitVector(10)).ok());
}

TEST_F(BitmapTest, AllocationChargesCycles) {
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(bitmap_.AllocExtent(512).ok());
  const uint64_t one_big = ctx_.now() - t0;
  // The same space as 512 singles costs far more than one extent.
  BlockBitmap other(&ctx_, 1024);
  const uint64_t t1 = ctx_.now();
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(other.AllocExtent(1).ok());
  }
  const uint64_t many_small = ctx_.now() - t1;
  EXPECT_GT(many_small, 100 * one_big);
}

// The bitmap's contract restated one bit at a time: next-fit with a roving
// hint and one wrap, best-run fallback, the same charges. The word-wide
// BlockBitmap must agree with it on every call.
class PerBitModel {
 public:
  PerBitModel(const CostModel& cost, uint64_t blocks)
      : cost_(cost), bits_(blocks, false), free_(blocks) {}

  Result<BlockExtent> Alloc(uint64_t count) {
    if (count == 0) {
      return InvalidArgument("");
    }
    cycles += cost_.extent_alloc_cycles;
    if (count > bits_.size() || count > free_) {
      return OutOfMemory("");
    }
    auto start = FindRun(hint_, bits_.size(), count);
    if (!start.has_value()) {
      start = FindRun(0, std::min<uint64_t>(hint_ + count, bits_.size()), count);
    }
    if (!start.has_value()) {
      return OutOfMemory("");
    }
    return Take({.start = *start, .count = count});
  }

  Result<BlockExtent> AllocAtMost(uint64_t count, uint64_t min_count) {
    if (count == 0 || min_count == 0 || min_count > count) {
      return InvalidArgument("");
    }
    auto exact = Alloc(count);
    if (exact.ok()) {
      return exact;
    }
    cycles += cost_.extent_alloc_cycles;
    BlockExtent best;
    uint64_t run = 0;
    for (uint64_t i = 0; i < bits_.size() && best.count < count; ++i) {
      run = bits_[i] ? 0 : run + 1;
      if (run > best.count) {
        best = {.start = i + 1 - run, .count = run};
      }
    }
    if (best.count < min_count) {
      return OutOfMemory("");
    }
    return Take(best);
  }

  Status Free(BlockExtent e) {
    if (e.count == 0 || e.start + e.count > bits_.size()) {
      return InvalidArgument("");
    }
    for (uint64_t i = e.start; i < e.start + e.count; ++i) {
      if (!bits_[i]) {
        return InvalidArgument("");
      }
    }
    cycles += cost_.extent_free_cycles;
    for (uint64_t i = e.start; i < e.start + e.count; ++i) {
      bits_[i] = false;
    }
    free_ += e.count;
    return OkStatus();
  }

  Status Reset(const std::vector<bool>& allocated) {
    if (allocated.size() != bits_.size()) {
      return InvalidArgument("");
    }
    cycles += cost_.DramBulkCycles(bits_.size() / 8 + 1);
    bits_ = allocated;
    free_ = static_cast<uint64_t>(std::count(bits_.begin(), bits_.end(), false));
    hint_ = 0;
    return OkStatus();
  }

  uint64_t LargestFreeRun() const {
    uint64_t best = 0;
    uint64_t run = 0;
    for (bool bit : bits_) {
      run = bit ? 0 : run + 1;
      best = std::max(best, run);
    }
    return best;
  }

  uint64_t free_blocks() const { return free_; }
  bool IsAllocated(uint64_t block) const { return bits_[block]; }
  uint64_t cycles = 0;

 private:
  std::optional<uint64_t> FindRun(uint64_t from, uint64_t limit, uint64_t count) const {
    uint64_t run = 0;
    for (uint64_t i = from; i < limit; ++i) {
      run = bits_[i] ? 0 : run + 1;
      if (run == count) {
        return i + 1 - count;
      }
    }
    return std::nullopt;
  }

  BlockExtent Take(BlockExtent e) {
    for (uint64_t i = e.start; i < e.start + e.count; ++i) {
      bits_[i] = true;
    }
    free_ -= e.count;
    hint_ = (e.start + e.count) % bits_.size();
    return e;
  }

  const CostModel& cost_;
  std::vector<bool> bits_;
  uint64_t free_;
  uint64_t hint_ = 0;
};

void ExpectSame(const Result<BlockExtent>& got, const Result<BlockExtent>& want,
                const std::string& where) {
  ASSERT_EQ(got.status().code(), want.status().code()) << where;
  if (want.ok()) {
    EXPECT_EQ(got->start, want->start) << where;
    EXPECT_EQ(got->count, want->count) << where;
  }
}

class BitmapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitmapPropertyTest, MatchesPerBitModel) {
  // Sizes straddle word boundaries; the seed drives every choice.
  for (uint64_t blocks : {uint64_t{1}, uint64_t{63}, uint64_t{461}, uint64_t{1024}}) {
    SimContext ctx;
    BlockBitmap bitmap(&ctx, blocks);
    PerBitModel model(ctx.cost(), blocks);
    Rng rng(GetParam() * 1000 + blocks);
    std::vector<BlockExtent> live;
    // Mostly small requests, now and then one near the device size.
    auto size = [&]() {
      return rng.NextBelow(8) == 0 ? rng.NextInRange(1, blocks + 2) : rng.NextInRange(1, 9);
    };
    for (int op = 0; op < 3000; ++op) {
      const std::string where =
          "blocks " + std::to_string(blocks) + " op " + std::to_string(op);
      const uint64_t t0 = ctx.now();
      switch (rng.NextBelow(10)) {
        case 0:
        case 1:
        case 2: {
          const uint64_t count = size();
          auto got = bitmap.AllocExtent(count);
          ExpectSame(got, model.Alloc(count), where);
          if (got.ok()) {
            live.push_back(*got);
          }
          break;
        }
        case 3:
        case 4: {
          const uint64_t count = size();
          const uint64_t min_count = rng.NextInRange(1, count + 1);
          auto got = bitmap.AllocExtentAtMost(count, min_count);
          ExpectSame(got, model.AllocAtMost(count, min_count), where);
          if (got.ok()) {
            live.push_back(*got);
          }
          break;
        }
        case 5:
        case 6:
        case 7: {
          // A live extent (it may since have been freed in part by a random
          // free or a reset), or a random range.
          BlockExtent e{.start = rng.NextBelow(blocks), .count = size()};
          if (!live.empty() && rng.NextBelow(4) != 0) {
            const size_t i = rng.NextBelow(live.size());
            e = live[i];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          }
          EXPECT_EQ(bitmap.FreeExtent(e).code(), model.Free(e).code()) << where;
          break;
        }
        case 8: {
          if (rng.NextBelow(20) != 0) {
            break;
          }
          const bool bad_size = rng.NextBelow(5) == 0;
          const uint64_t n = bad_size ? blocks + 1 : blocks;
          const uint64_t density = rng.NextBelow(4);
          std::vector<bool> bools(n, false);
          BitVector words(n);
          for (uint64_t b = 0; b < n; ++b) {
            if (rng.NextBelow(4) < density) {
              bools[b] = true;
              words.Assign(b, 1, true);
            }
          }
          EXPECT_EQ(bitmap.Reset(words).code(), model.Reset(bools).code()) << where;
          live.clear();
          break;
        }
        default:
          EXPECT_EQ(bitmap.LargestFreeRun(), model.LargestFreeRun()) << where;
          break;
      }
      ASSERT_EQ(ctx.now() - t0, model.cycles) << where;
      model.cycles = 0;
      ASSERT_EQ(bitmap.free_blocks(), model.free_blocks()) << where;
      if (op % 50 == 0) {
        ASSERT_EQ(bitmap.LargestFreeRun(), model.LargestFreeRun()) << where;
        for (uint64_t b = 0; b < blocks; ++b) {
          ASSERT_EQ(bitmap.IsAllocated(b), model.IsAllocated(b)) << where << " block " << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapPropertyTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace o1mem
