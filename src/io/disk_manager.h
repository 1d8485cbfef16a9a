// Secondary storage behind the buffer pool. The paper's cost model counts
// I/O operations — block reads/writes of B records each. DiskManager is
// the abstract device contract providing exactly that abstraction: an
// addressable array of fixed-size pages with read/write/allocate/free and
// per-operation counters. Two backends implement it:
//
//   - SimDiskManager (this header): RAM-backed simulation. Backing memory
//     is irrelevant to the measured quantity (page transfers), so every
//     model-level experiment runs here.
//   - io::FileDiskManager (file_disk_manager.h): a real file read and
//     written with synchronous pread/pwrite, O_DIRECT where the filesystem
//     allows it. Same counter semantics, so golden I/O counts are
//     bit-identical across backends.
//
// io::FaultInjectingDiskManager composes over either backend, injecting a
// seeded fault plan above the device.
//
// Concurrency: the read path — ReadPage, PeekPage, the stats snapshot —
// is safe from any number of threads (counters are atomics; page slots
// have stable addresses). The page-set mutators — AllocatePage and
// FreePage — serialize against each other on an internal mutex and may
// run CONCURRENTLY with the read path: the epoch-swap engine (DESIGN.md
// section 18) builds a replacement index — allocating and writing fresh
// pages — while readers drain through the old one, so the device must
// tolerate a single mutator under a live read storm. Per-page content
// races remain the layer above's problem: WritePage/WritePagePrefix
// concurrent with ReadPage of the SAME page is undefined, and the
// BufferPool's per-frame pins prevent it (a page is only ever filled or
// written back by the thread holding its frame).
// ResetStats still requires quiescence.
//
// Lock discipline (DESIGN.md section 12): SimDiskManager's mutex guards
// only allocation metadata (the free list and chunk growth); page BYTES
// are deliberately unguarded, because their single-writer discipline is
// enforced by the BufferPool funnel, not by a lock here. The compile-time
// layer that protects this class is tools/segdb_lint.py:
// ReadPage/WritePage may only be called from src/io/ (the BufferPool),
// which keeps the paper's I/O accounting — pool misses == charged block
// reads — from being bypassed by an index structure talking to the disk
// directly.
#ifndef SEGDB_IO_DISK_MANAGER_H_
#define SEGDB_IO_DISK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t syncs = 0;  // durability barriers (Sync calls)
};

// A page id paired with a full copy of its bytes: the unit the write-ahead
// log captures (pre-writeback dirty page images) and the buffer pool emits
// from CollectDirty. Lives here rather than in wal.h so the pool does not
// depend on the WAL layer.
struct PageImage {
  PageId id = kInvalidPageId;
  std::vector<uint8_t> bytes;
};

// One page of an uncounted bulk read (PeekPagesBatch): `out` (which must
// match the page size) receives the bytes and `status` the outcome.
// segbench is its only user outside tests.
struct PageFill {
  PageId id = kInvalidPageId;
  Page* out = nullptr;
  Status status;
};

// Abstract device. The page operations are virtual so backends can differ
// in storage (RAM vs. a real file) and so io::FaultInjectingDiskManager
// can interpose a seeded fault plan between the pool and any backend.
class DiskManager {
 public:
  // `page_size_bytes` is the device block size; it determines B (records
  // per block) for every structure built on this disk.
  explicit DiskManager(uint32_t page_size_bytes) : page_size_(page_size_bytes) {}
  virtual ~DiskManager() = default;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  uint32_t page_size() const { return page_size_; }

  // Allocates a zeroed page and returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  // Returns a page to the free list. The caller must not use the id again.
  // Free is a metadata operation on the device and is defined to be
  // reliable (never injected with faults): rollback and rebuild paths
  // depend on being able to return pages unconditionally.
  virtual Status FreePage(PageId id) = 0;

  // Copies the page contents into `out` (which must have matching size).
  // Counts one physical read.
  virtual Status ReadPage(PageId id, Page* out) = 0;

  // Like ReadPage but counts nothing — the buffer pool's audit compares
  // resident frames against disk without perturbing the I/O measurement
  // protocol.
  virtual Status PeekPage(PageId id, Page* out) const = 0;

  // Stores the page contents. Counts one physical write.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  // Stores only the first `prefix_bytes` of `page`; the rest of the stored
  // page keeps its old bytes. This is the torn-write hook used by
  // io::FaultInjectingDiskManager — on a real file the write is genuinely
  // truncated. Requires 0 < prefix_bytes < page_size. Counts one physical
  // write (the prefix did reach the device).
  virtual Status WritePagePrefix(PageId id, const Page& page,
                                 uint32_t prefix_bytes) = 0;

  // A PeekPage loop in fill order; segbench is its only caller outside
  // tests.
  virtual void PeekPagesBatch(std::span<PageFill> fills);

  // Does nothing; segbench is its only caller.
  virtual void PrefetchPages(std::span<const PageId> /*ids*/) {}

  // Durability barrier: on return, every previously acknowledged write has
  // reached stable storage. The RAM-backed simulation is trivially durable,
  // so the default just counts the barrier; FileDiskManager issues a real
  // fdatasync, and the fault wrapper makes the barrier fallible (and models
  // power loss by dropping unsynced writes). Counts one sync, never a read
  // or write — barriers are priced separately from the paper's I/O model.
  virtual Status Sync();

  // Number of pages currently allocated (space-usage experiments).
  virtual uint64_t pages_in_use() const = 0;
  virtual uint64_t high_water_pages() const = 0;

  // Snapshot of the atomic counters. Virtual so a delegating wrapper
  // reports its backend's counters instead of its own (never-touched)
  // block.
  virtual DiskStats stats() const;
  virtual void ResetStats();

 protected:
  // The model's op counters, shared by the concrete backends. Atomics:
  // the read path bumps them from any number of threads.
  struct Counters {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> allocations{0};
    std::atomic<uint64_t> frees{0};
    std::atomic<uint64_t> syncs{0};
  };
  Counters counters_;

 private:
  const uint32_t page_size_;
};

// RAM-backed simulated device: the original backend every model-level
// experiment runs on.
class SimDiskManager : public DiskManager {
 public:
  explicit SimDiskManager(uint32_t page_size_bytes);
  ~SimDiskManager() override;

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status PeekPage(PageId id, Page* out) const override;
  Status WritePage(PageId id, const Page& page) override;
  Status WritePagePrefix(PageId id, const Page& page,
                         uint32_t prefix_bytes) override;
  uint64_t pages_in_use() const override {
    return pages_in_use_.load(std::memory_order_relaxed);
  }
  uint64_t high_water_pages() const override {
    return high_water_.load(std::memory_order_relaxed);
  }

  // Every currently allocated page id, ascending. A test hook: the crash
  // harness walks the reference device's live set to bit-compare recovered
  // state page by page.
  std::vector<PageId> LivePages() const;

 private:
  // Page slots live in fixed-size chunks with stable addresses so the
  // read path can run lock-free while AllocatePage grows the page set
  // (the epoch-swap build-aside path allocates under a live read storm).
  // A slot's byte buffer is allocated once and recycled across
  // free/re-allocate cycles; `live` is the atomic existence bit the read
  // path checks. The two-level table is fixed-capacity: an atomic
  // chunk-pointer array sized for kMaxChunks * kChunkPages pages (512 GiB
  // of 4 KiB pages — far past any experiment; beyond it AllocatePage
  // reports ResourceExhausted like page-id exhaustion).
  static constexpr uint32_t kChunkShift = 12;
  static constexpr size_t kChunkPages = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks = size_t{1} << 15;

  struct Slot {
    std::unique_ptr<uint8_t[]> bytes;
    std::atomic<bool> live{false};
  };
  using Chunk = std::array<Slot, kChunkPages>;

  bool IsLive(PageId id) const;
  // Requires id < extent_; the chunk pointer is non-null for every such
  // id (published with release order before extent_ advances past it).
  Slot& SlotRef(PageId id) const;

  // Serializes the mutators (AllocatePage/FreePage) against each other.
  // The read path takes no lock — see the concurrency contract above.
  mutable util::Mutex mu_;
  const std::unique_ptr<std::atomic<Chunk*>[]> chunk_table_;
  // Number of page ids ever allocated (slots 0..extent_-1 exist). The
  // read path's bounds check; advances with release order after the slot
  // and its chunk are fully constructed.
  std::atomic<uint64_t> extent_{0};
  std::vector<PageId> free_list_ SEGDB_GUARDED_BY(mu_);
  std::atomic<uint64_t> pages_in_use_{0};
  std::atomic<uint64_t> high_water_{0};
};

}  // namespace segdb::io

#endif  // SEGDB_IO_DISK_MANAGER_H_
