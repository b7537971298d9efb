#pragma once

#include <algorithm>
#include <array>
#include <barrier>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "mem/memory_system.h"
#include "sim/calendar.h"
#include "sim/watchdog.h"

namespace hht::harness {

using sim::Cycle;

/// Persistent worker pool for the threaded tile phase (DESIGN.md §11): each
/// epoch, the workers run the loop's tile phase over their own tile ranges
/// while memory submissions park in per-requester staging lanes, which the
/// main thread then drains in the canonical serial arrival order. Tiles
/// share no mutable state in between, so the schedule is bit-identical to
/// the serial one by construction.
class TilePool {
 public:
  /// `work(begin, end, now)` ticks tiles [begin, end) at cycle `now`; the
  /// `tiles` are split into `workers` contiguous ranges.
  TilePool(mem::MemorySystem& mem, std::uint32_t tiles, std::uint32_t workers,
           std::function<void(std::uint32_t, std::uint32_t, Cycle)> work)
      : mem_(mem), work_(std::move(work)), errors_(workers),
        sync_(workers + 1) {
    mem_.beginStagedSubmission();
    for (std::uint32_t w = 0; w < workers; ++w) {
      const std::uint32_t per = tiles / workers;
      const std::uint32_t begin = w * per + std::min(w, tiles % workers);
      const std::uint32_t end = begin + per + (w < tiles % workers ? 1 : 0);
      threads_.emplace_back([this, w, begin, end] {
        for (;;) {
          sync_.arrive_and_wait();  // epoch start (or stop)
          if (stop_) return;
          try {
            work_(begin, end, now_);
          } catch (...) {
            errors_[w] = std::current_exception();
          }
          sync_.arrive_and_wait();  // epoch end
        }
      });
    }
  }
  TilePool(const TilePool&) = delete;
  TilePool& operator=(const TilePool&) = delete;
  ~TilePool() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
    mem_.endStagedSubmission();
  }

  /// One parallel phase at cycle `now`, then the staged submissions are
  /// drained. A worker exception is rethrown here, lowest worker first:
  /// workers own contiguous tile ranges, so that is the lowest faulting
  /// tile, the serial loop's throw order.
  void runEpoch(Cycle now) {
    now_ = now;
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
    for (std::exception_ptr& e : errors_) {
      if (e != nullptr) std::rethrow_exception(std::exchange(e, nullptr));
    }
    mem_.drainStagedSubmissions();
  }

 private:
  mem::MemorySystem& mem_;
  std::function<void(std::uint32_t, std::uint32_t, Cycle)> work_;
  std::vector<std::exception_ptr> errors_;  ///< one slot per worker
  std::barrier<> sync_;
  Cycle now_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

/// Why RunLoop::run returned, and at which cycle: the halt or fault cycle
/// (every component credited through it), or max_cycles on a timeout.
enum class RunStop : std::uint8_t { Halted, Fault, Timeout };
struct LoopOutcome {
  RunStop stop = RunStop::Halted;
  Cycle now = 0;
  std::uint32_t fault_tile = 0;  ///< lowest tile whose device faulted
};

struct LoopOptions {
  /// Tick every component every cycle: the naive reference schedule, and
  /// the one observers and trace sinks need (they see every cycle).
  bool every_cycle = false;
  Cycle watchdog_cycles = 0;  ///< 0 disables the watchdogs
  bool poll_faults = true;    ///< stop at the first device FAULT
};

/// The simulator's one run loop (DESIGN.md §11): N tiles, each a device
/// and a core, over one shared memory system. Per cycle, in fixed order:
/// every device ticks, then every core, then memory; then the fault poll,
/// observers, halt detection and the watchdogs. Outside every-cycle mode a
/// 2N+1-slot calendar (device 2t, core 2t+1, memory 2N) ticks each
/// component only on cycles it declared work for, bulk-crediting the rest
/// through skipCycles() lazily, and jumps when nothing is due — with
/// results bit-identical to every-cycle mode.
///
/// `View` adapts the machine: device(t) and core(t), the watchdog's
/// progress(t), onCycle(now) for observers, dump(now) for diagnostics and
/// beforeMemTick(now). A nonzero `kTiles` fixes the tile count at compile
/// time, so every per-tile loop of that machine folds to straight-line
/// code (the 1-tile machine's busy-cycle cost).
template <typename Device, typename View, std::size_t kTiles = 0>
class RunLoop {
 public:
  RunLoop(View& view, mem::MemorySystem& mem, std::uint32_t num_tiles,
          const LoopOptions& options)
      : view_(view), mem_(mem), options_(options), cal_(2 * num_tiles + 1) {
    if constexpr (kTiles == 0) tiles_.resize(num_tiles);
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      tiles_[t] = Tile{&view.device(t), &view.core(t)};
      // On N > 1 a fired watchdog names its tile (SimError::tile()).
      watchdogs_.emplace_back(options.watchdog_cycles,
                              num_tiles > 1 ? static_cast<int>(t)
                                            : sim::SimError::kNoTile);
    }
  }

  /// Run from `start` until every core has halted and memory has drained,
  /// a device faults, or max_cycles. Jumped cycles are added to `skipped`
  /// as they happen, so the count also covers a run ending in a throw.
  /// With a `pool`, its workers run the tile phase (tickTiles over their
  /// ranges) instead of this thread.
  LoopOutcome run(Cycle start, Cycle max_cycles, std::uint64_t& skipped,
                  TilePool* pool = nullptr) {
    // A gap of at most kShortGap cycles to the next event (the exact
    // 1-2-cycle response waits of a 1-cycle SRAM) counts as busy: it is
    // jumped without resetting the busy streak and burst length below,
    // which resetting on every such gap would starve, and a hook answering
    // it opens a blind window like now+1.
    constexpr Cycle kShortGap = 2;
    // Hook thinning: while a device or memory hook keeps answering "tick me
    // (almost) next cycle", post now+1 blindly for a stride of ticks before
    // asking again. Extra ticks are the naive schedule, and a longer answer
    // opens no window. A hook answering that is usually busy for a while
    // (arbitration queued, an engine issuing or emitting), so the windows
    // cost little. The core hook is consulted every tick: it encodes
    // per-stall skips (LoadWait, gather startup) that fire even while
    // memory is busy.
    constexpr Cycle kHookThinStride = 16;
    const auto thinnedHook = [](const auto& c, Cycle& due, Cycle now) {
      if (now < due) return now + 1;
      const Cycle next = c.nextEventCycle(now);
      if (next <= now + kShortGap) due = now + kHookThinStride;
      return next;
    };
    // Busy-streak burst: when the next cycle is due again and again, the
    // calendar (due checks, hooks, posts) is pure overhead over naive
    // ticking. After kBurstStreak such cycles, tick everything for a burst
    // that doubles up to kBurstCap, re-consulting the calendar between
    // bursts. A burst is the naive schedule, so it never changes results.
    constexpr Cycle kBurstStreak = 8;
    constexpr Cycle kMinBurst = 16;
    constexpr Cycle kBurstCap = 256;
    Cycle burst_len = kMinBurst;
    Cycle busy_streak = 0;
    Cycle mem_hook_due = start;
    // Every-cycle mode is one endless burst: no calendar traffic at all.
    Cycle burst_until = options_.every_cycle ? sim::kNeverCycle : start;

    const auto n = static_cast<std::uint32_t>(tiles_.size());
    for (Tile& tile : tiles_) tile.dev_from = tile.cpu_from = start;
    for (std::size_t slot = 0; slot <= memSlot(); ++slot) {
      cal_.post(slot, start);
    }
    Cycle now = start;
    while (now < max_cycles) {
      if (now == burst_until) {
        // The first cycle after a burst, which ticked every component
        // through now - 1 without moving the cursors.
        for (Tile& tile : tiles_) tile.dev_from = tile.cpu_from = now;
      }
      burst_ = now < burst_until;
      if (pool != nullptr) {
        pool->runEpoch(now);
      } else {
        tickTiles(0, n, now);
      }
      if (burst_) {
        view_.beforeMemTick(now);
        mem_.tick(now);
      } else {
        // pendingArbitration covers this cycle's submits: they are
        // arbitrated this same cycle, which an earlier posting cannot know.
        const bool mem_due =
            cal_.due(memSlot(), now) || mem_.pendingArbitration();
        const bool mmio_tick = mem_due && mem_.mmioPending();
        if (mmio_tick) {
          // MMIO pre-credit: settle each idle device's lazy credit BEFORE
          // the memory tick delivers MMIO. A delivered write can create or
          // start an engine, and a delivered pop can free a stalled one's
          // buffers; credit applied after that would count cycles naive
          // ticked against the old state. Crediting through `now` is
          // sound: the device was not due.
          for (Tile& tile : tiles_) {
            if (!tile.dev_ticked && now + 1 > tile.dev_from) {
              tile.dev->skipCycles(now + 1 - tile.dev_from);
              tile.dev_from = now + 1;
            }
          }
        }
        if (mem_due) {
          view_.beforeMemTick(now);
          mem_.tick(now);
          cal_.post(memSlot(), thinnedHook(mem_, mem_hook_due, now));
        }
        // Refresh after the memory tick: a device's next event consults
        // memory drain state, and a core's load wait needs its response's
        // grant. A core is never woken externally (every wait phase
        // carries its own wake cycle), so it refreshes only when it ticks.
        for (std::uint32_t t = 0; t < n; ++t) {
          Tile& tile = tiles_[t];
          if (tile.dev_ticked) {
            cal_.post(devSlot(t), thinnedHook(*tile.dev, tile.dev_hook_due,
                                              now));
          } else if (mmio_tick) {
            // Delivered MMIO is the one path that wakes a sleeping device:
            // a START write hands it new work, a FIFO pop frees buffers.
            cal_.post(devSlot(t), std::min(cal_.at(devSlot(t)),
                                           tile.dev->nextEventCycle(now)));
          }
          if (tile.cpu_ticked) {
            cal_.post(cpuSlot(t), tile.core->nextEventCycle(now));
          }
        }
      }
      for (std::uint32_t t = 0; options_.poll_faults && t < n; ++t) {
        if (tiles_[t].dev->faultRaised()) return stop(RunStop::Fault, now, t);
      }
      view_.onCycle(now);
      if (std::all_of(tiles_.begin(), tiles_.end(),
                      [](const Tile& x) { return x.core->halted(); }) &&
          mem_.idle()) {
        return stop(RunStop::Halted, now);
      }
      if (!watchdogs_.empty() && watchdogs_[0].due(now)) {
        for (std::uint32_t t = 0; t < n; ++t) {
          if (!watched(t)) continue;
          watchdogs_[t].observe(now, view_.progress(t), [&] {
            settle(now + 1);
            return view_.dump(now);
          });
        }
      }
      if (burst_) {
        ++now;
        continue;
      }
      const Cycle ev = cal_.next();
      if (ev > now + 1) {
        if (ev > now + kShortGap) {
          busy_streak = 0;
          burst_len = kMinBurst;
        }
        // Jump to the next posted event, capped at max_cycles and at each
        // watched tile's next state-changing watchdog sample, so a wedged
        // run fires at the naive cycle with the naive diagnostics.
        Cycle target = std::min(ev, max_cycles);
        for (std::uint32_t t = 0; t < n; ++t) {
          if (!watched(t)) continue;
          target = std::min(target,
                            watchdogs_[t].observeSkip(now, view_.progress(t)));
        }
        if (target > now + 1) {
          skipped += target - (now + 1);
          now = target;
          continue;
        }
      } else if (++busy_streak >= kBurstStreak) {
        // A burst ticks every component, so it starts from fully-credited
        // state. Its ticks post nothing, so work created inside it would
        // leave pre-burst entries stale-high: force every slot due on the
        // first post-burst cycle, where each component reposts afresh.
        creditTo(now + 1);
        busy_streak = 0;
        burst_until = now + 1 + burst_len;
        burst_len = std::min(burst_len * 2, kBurstCap);
        for (std::size_t slot = 0; slot <= memSlot(); ++slot) {
          cal_.post(slot, burst_until);
        }
      }
      ++now;
    }
    return stop(RunStop::Timeout, now);
  }

  /// The tile phase over tiles [begin, end): the due devices (all of them
  /// in a burst) in tile order, then the due cores. The serial loop calls
  /// it over every tile; TilePool workers over their own ranges, touching
  /// only those tiles' components and cursors.
  void tickTiles(std::uint32_t begin, std::uint32_t end, Cycle now) {
    if (burst_) {
      for (std::uint32_t t = begin; t < end; ++t) tiles_[t].dev->tick(now);
      for (std::uint32_t t = begin; t < end; ++t) tiles_[t].core->tick(now);
      return;
    }
    for (std::uint32_t t = begin; t < end; ++t) {
      Tile& tile = tiles_[t];
      tile.dev_ticked = cal_.due(devSlot(t), now);
      if (tile.dev_ticked) {
        if (now > tile.dev_from) tile.dev->skipCycles(now - tile.dev_from);
        tile.dev->tick(now);
        tile.dev_from = now + 1;
      }
    }
    for (std::uint32_t t = begin; t < end; ++t) {
      Tile& tile = tiles_[t];
      tile.cpu_ticked = cal_.due(cpuSlot(t), now);
      if (tile.cpu_ticked) {
        if (now > tile.cpu_from) tile.core->skipCycles(now - tile.cpu_from);
        tile.core->tick(now);
        tile.cpu_from = now + 1;
      }
    }
  }

 private:
  struct Tile {
    Device* dev;
    cpu::Core* core;
    Cycle dev_from = 0;  ///< first cycle not yet ticked or credited
    Cycle cpu_from = 0;
    Cycle dev_hook_due = 0;  ///< next cycle the device hook is consulted
    bool dev_ticked = false;
    bool cpu_ticked = false;
  };

  /// A tile that finished early makes no progress by design, so only the
  /// last running tile's watchdog covers the memory drain.
  bool watched(std::uint32_t t) const {
    return tiles_.size() == 1 || !tiles_[t].core->halted();
  }
  static std::size_t devSlot(std::uint32_t t) { return 2 * t; }
  static std::size_t cpuSlot(std::uint32_t t) { return 2 * t + 1; }
  std::size_t memSlot() const { return 2 * tiles_.size(); }

  /// Settle every lazy credit, then report. A timeout (now == max_cycles)
  /// credits the tail through the last simulated cycle only.
  LoopOutcome stop(RunStop why, Cycle now, std::uint32_t tile = 0) {
    settle(why == RunStop::Timeout ? now : now + 1);
    return LoopOutcome{why, now, tile};
  }

  /// Bring every component up to date through cycle `upto - 1`. A burst
  /// ticked them all through it, so only the cursors move.
  void settle(Cycle upto) {
    if (!burst_) return creditTo(upto);
    for (Tile& tile : tiles_) tile.dev_from = tile.cpu_from = upto;
  }

  /// Credit every lazily-skipped component, and the memory system's
  /// skipped MMIO retries, through cycle `upto - 1`.
  void creditTo(Cycle upto) {
    mem_.creditSkippedRetries(upto);
    for (Tile& tile : tiles_) {
      if (upto > tile.dev_from) tile.dev->skipCycles(upto - tile.dev_from);
      if (upto > tile.cpu_from) tile.core->skipCycles(upto - tile.cpu_from);
      tile.dev_from = std::max(tile.dev_from, upto);
      tile.cpu_from = std::max(tile.cpu_from, upto);
    }
  }

  View& view_;
  mem::MemorySystem& mem_;
  LoopOptions options_;
  sim::EventCalendar cal_;
  std::conditional_t<kTiles == 0, std::vector<Tile>, std::array<Tile, kTiles>>
      tiles_;
  std::vector<sim::Watchdog> watchdogs_;
  bool burst_ = false;  ///< this cycle ticks everything (read by workers)
};

}  // namespace hht::harness
