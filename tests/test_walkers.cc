// Direct unit tests for the back-end walker primitives (core/walkers.h):
// RowPtrWalker, IndexStream (including mid-stream restart epochs), and
// ValueFetchQueue ordering into the EmissionQueue.
#include <gtest/gtest.h>

#include "core/walkers.h"
#include "mem/layout.h"

namespace hht::core {
namespace {

/// Minimal Engine shell so the walkers can issue reads.
class ShellEngine : public Engine {
 public:
  using Engine::Engine;
  void tick(Cycle) override {}
  bool done() const override { return true; }
};

struct Fixture {
  Fixture()
      : mem(memConfig()),
        buffers(cfg),
        emit(cfg.emission_queue),
        ctx{cfg, mmr, mem, buffers, emit, stats},
        engine(ctx) {}

  static mem::MemorySystemConfig memConfig() {
    mem::MemorySystemConfig c;
    c.sram_bytes = 4096;
    return c;
  }

  void tick() { mem.tick(now++); }

  HhtConfig cfg;
  MmrFile mmr;
  mem::MemorySystem mem;
  BufferPool buffers;
  EmissionQueue emit;
  sim::StatSet stats;
  EngineContext ctx;
  ShellEngine engine;
  sim::Cycle now = 0;
};

TEST(RowPtrWalker, WalksRowExtentsInOrder) {
  Fixture f;
  const std::vector<sim::Index> row_ptr{0, 3, 3, 7};
  f.mem.sram().pokeArray<sim::Index>(0x100, row_ptr);

  RowPtrWalker walker;
  walker.configure(0x100, 3);
  const std::vector<std::pair<sim::Index, sim::Index>> expected{
      {0, 3}, {3, 3}, {3, 7}};
  for (const auto& [start, end] : expected) {
    for (int guard = 0; guard < 50 && !walker.haveRow(); ++guard) {
      if (walker.wantIssue()) walker.issue(f.engine, f.mem);
      f.tick();
      walker.poll(f.engine);
    }
    ASSERT_TRUE(walker.haveRow());
    EXPECT_EQ(walker.rowStart(), start);
    EXPECT_EQ(walker.rowEnd(), end);
    walker.advance();
  }
  EXPECT_TRUE(walker.finished());
  EXPECT_FALSE(walker.wantIssue());
}

TEST(RowPtrWalker, ReusesRowEndAsNextStart) {
  Fixture f;
  f.mem.sram().pokeArray<sim::Index>(0x100, std::vector<sim::Index>{0, 2, 5});
  RowPtrWalker walker;
  walker.configure(0x100, 2);
  int issues = 0;
  while (!walker.finished()) {
    if (walker.wantIssue()) {
      walker.issue(f.engine, f.mem);
      ++issues;
    }
    f.tick();
    walker.poll(f.engine);
    if (walker.haveRow()) walker.advance();
  }
  // rows+1 = 3 fetches, not 2 per row: the shared boundary is not re-read.
  EXPECT_EQ(issues, 3);
}

TEST(IndexStream, DeliversInOrderWithMetadata) {
  Fixture f;
  const std::vector<sim::Index> data{10, 20, 30, 40, 50};
  f.mem.sram().pokeArray<sim::Index>(0x200, data);

  IndexStream stream(4);
  stream.configure(0x200 + 4, 3, /*first_global=*/7);  // elements 20,30,40
  std::vector<sim::Index> seen;
  while (!stream.exhausted()) {
    if (stream.wantIssue()) stream.issue(f.engine, f.mem);
    f.tick();
    stream.poll(f.engine);
    while (stream.headAvailable()) {
      seen.push_back(stream.head());
      EXPECT_EQ(stream.headGlobal(), 7u + stream.headIndex());
      EXPECT_EQ(stream.headIsLast(), stream.headIndex() == 2);
      stream.pop();
    }
  }
  EXPECT_EQ(seen, (std::vector<sim::Index>{20, 30, 40}));
  EXPECT_FALSE(stream.morePending());
}

TEST(IndexStream, PrefetchDepthBoundsOutstandingWork) {
  Fixture f;
  std::vector<sim::Index> data(32, 1);
  f.mem.sram().pokeArray<sim::Index>(0x200, data);
  IndexStream stream(3);
  stream.configure(0x200, 32, 0);
  int issued_this_round = 0;
  while (stream.wantIssue()) {
    stream.issue(f.engine, f.mem);
    ++issued_this_round;
  }
  EXPECT_EQ(issued_this_round, 3);  // depth-limited
}

TEST(IndexStream, RestartDropsStaleInFlightResponses) {
  Fixture f;
  f.mem.sram().pokeArray<sim::Index>(0x200, std::vector<sim::Index>{1, 2, 3, 4});
  f.mem.sram().pokeArray<sim::Index>(0x300, std::vector<sim::Index>{9, 8, 7, 6});

  IndexStream stream(4);
  stream.configure(0x200, 4, 0);
  while (stream.wantIssue()) stream.issue(f.engine, f.mem);
  // Responses are now in flight; retarget before they land (the per-row
  // vector-index rescan of variant-1).
  stream.configure(0x300, 2, 0);
  while (stream.wantIssue()) stream.issue(f.engine, f.mem);

  std::vector<sim::Index> seen;
  for (int guard = 0; guard < 100 && !stream.exhausted(); ++guard) {
    f.tick();
    stream.poll(f.engine);
    while (stream.headAvailable()) {
      seen.push_back(stream.head());
      stream.pop();
    }
  }
  // Only the new epoch's data arrives, in order; stale 1,2,3,4 discarded.
  EXPECT_EQ(seen, (std::vector<sim::Index>{9, 8}));
  EXPECT_TRUE(f.mem.idle());  // stale responses were fully drained
}

TEST(ValueFetchQueue, FillsReservedTicketsInStreamOrder) {
  Fixture f;
  f.mem.sram().pokeValue<float>(0x400, 1.5f);
  f.mem.sram().pokeValue<float>(0x404, 2.5f);

  ValueFetchQueue q(4);
  ASSERT_TRUE(q.canAccept(2));
  const auto t0 = f.emit.reserve();
  const auto t1 = f.emit.reserve();
  // Enqueue in *reverse* ticket order: emission order must still follow
  // the tickets, not the fetch completions.
  q.enqueue({0x404, t1, true});
  q.enqueue({0x400, t0, false});
  while (q.wantIssue()) q.issue(f.engine, f.mem);
  for (int guard = 0; guard < 50 && !q.drained(); ++guard) {
    f.tick();
    q.poll(f.engine, f.emit);
  }
  ASSERT_TRUE(q.drained());
  f.emit.drainTo(f.buffers, 8);
  f.buffers.finish();
  EXPECT_EQ(f.buffers.pop().bits, std::bit_cast<std::uint32_t>(1.5f));
  const Slot second = f.buffers.pop();
  EXPECT_EQ(second.bits, std::bit_cast<std::uint32_t>(2.5f));
  EXPECT_TRUE(second.publish_after);
}

TEST(ValueFetchQueue, DepthBoundsAcceptance) {
  Fixture f;
  ValueFetchQueue q(2);
  EXPECT_TRUE(q.canAccept(2));
  EXPECT_FALSE(q.canAccept(3));
  q.enqueue({0x400, f.emit.reserve(), false});
  q.enqueue({0x404, f.emit.reserve(), false});
  EXPECT_FALSE(q.canAccept());
}

}  // namespace
}  // namespace hht::core
