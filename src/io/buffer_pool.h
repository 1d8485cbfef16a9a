// An LRU buffer pool over the simulated disk. All index structures access
// pages through PageRef pins obtained here, so the pool's miss counter is
// exactly the number of I/O operations in the paper's cost model.
//
// Measurement protocol used by tests and benchmarks:
//   build structure -> pool.FlushAll() -> pool.EvictAll() -> pool.ResetStats()
//   -> run query -> pool.stats().misses  == cold-cache query I/Os.
//
// Concurrency model (DESIGN.md section 10). The read path — Fetch of
// already-written pages, PageRef::page() const access, Release — is safe
// from any number of threads. The page table is sharded (pages hash to
// shards by id; each shard owns a disjoint set of frames and its own
// mutex), pin counts and LRU ticks are atomics, and eviction scans only the
// requesting shard's frames, so readers on different shards never
// serialize. Everything that mutates pages or the page set — NewPage,
// FreePage, MarkDirty plus writes through page(), FlushAll, EvictAll,
// ResetStats, CheckInvariants — requires external synchronization: a single
// writer with no concurrent readers (quiescence). Stats are kept per shard
// and aggregated by stats(), so the miss counter still equals the paper's
// I/O count.
//
// Lock discipline (compile-time checked on Clang, DESIGN.md section 12).
// Each Shard::mu is a capability guarding that shard's page_table, stats,
// and the shard-owned frames' non-atomic metadata (Frame::id). Shard
// mutexes are leaves and are never nested — every public method locks at
// most one shard at a time (the quiescent sweeps lock shards strictly one
// after another). Three fields deliberately live OUTSIDE the capability
// as atomics:
//   - Frame::pin_count: decremented lock-free by PageRef::Release from any
//     thread (taking the shard lock on every unpin would serialize readers
//     that never touch the page table); its release/acquire pairing with
//     the eviction scan is documented at the use sites.
//   - Frame::lru_tick: a monotonic recency stamp written on pin/unpin;
//     eviction reads it only for *unpinned* frames under the shard lock,
//     so a stale value can at worst pick a slightly older victim.
//   - Frame::dirty: set by MarkDirty through a pinned PageRef without the
//     shard lock; the pin itself keeps eviction away, and the unpin
//     release-store publishes it to the next eviction scan.
#ifndef SEGDB_IO_BUFFER_POOL_H_
#define SEGDB_IO_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "io/disk_manager.h"
#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

class BufferPool;

// RAII pin on a buffered page. While a PageRef is live the frame cannot be
// evicted. Move-only; releases the pin on destruction. Self-move-assignment
// is a no-op; a moved-from PageRef is !valid() and may be reassigned or
// Release()d freely.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_), page_id_(other.page_id_) {
    other.pool_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  Page& page();
  const Page& page() const;

  // Marks the frame dirty so eviction/flush writes it back to disk.
  void MarkDirty();

  // Drops the pin early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), page_id_(id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

// Where dirty evictions go when a durability layer owns writeback ordering
// (NO-STEAL): instead of writing an uncommitted page to the device, the pool
// hands the bytes to the sink, re-fills later fetches from it, and defers
// device frees to it. io::DirtyPageSpill (wal.h) is the implementation; the
// pool sees only this interface so it does not depend on the WAL layer.
// Methods are called under a shard mutex — implementations must be
// internally synchronized and must not call back into the pool.
class WritebackSink {
 public:
  virtual ~WritebackSink() = default;

  // A dirty frame is being evicted: take ownership of the page's current
  // bytes (replacing any earlier spill of the same id). Must not fail —
  // the spill is RAM-to-RAM.
  virtual void CaptureEviction(PageId id, const Page& page) = 0;

  // If `id` was spilled, move its bytes into *out (removing the spill
  // entry) and return true. The caller marks the frame dirty: the device
  // copy is stale until commit-time writeback.
  virtual bool TakeSpilled(PageId id, Page* out) = 0;

  // The pool is freeing `id`: drop any spilled bytes and remember the id so
  // the device-level free can be applied after the owning commit (keeping
  // the device free list a function of committed state only).
  virtual void DeferFree(PageId id) = 0;
};

struct BufferPoolStats {
  uint64_t fetches = 0;     // logical page requests
  uint64_t hits = 0;        // served from a resident frame
  uint64_t misses = 0;      // a demand read the paper's model charges
  uint64_t writebacks = 0;  // dirty evictions / flushes
  uint64_t prefetches = 0;  // always 0; segbench is its only reader
  uint64_t spills = 0;      // dirty evictions diverted to a WritebackSink
  // Compressed-tier counters (zero when the tier is disabled). A fetch is
  // exactly one of hit / miss / compressed_hit — a tier promotion avoids
  // the disk read, so it is deliberately NOT a miss in the paper's cost
  // model, and cold-protocol runs (EvictAll drops the tier too) are
  // unaffected by the tier's existence.
  uint64_t compressed_hits = 0;       // fetches served by decompressing
  uint64_t compressed_stores = 0;     // evicted pages stashed compressed
  uint64_t compressed_evictions = 0;  // tier entries dropped for budget
  // Gauges sampled by stats() from the live tier, not reset by ResetStats.
  uint64_t compressed_resident_pages = 0;
  uint64_t compressed_resident_bytes = 0;
};

struct BufferPoolOptions {
  // RAM budget (bytes, across all shards) for the compressed second tier:
  // pages evicted from frames are kept compressed in memory and a later
  // fetch decompresses them back instead of reading disk. 0 disables the
  // tier — the pool is then bit-for-bit the single-tier pool.
  size_t compressed_tier_bytes = 0;
};

class BufferPool {
 public:
  // `frame_count` bounds resident pages; fetching past it evicts LRU
  // unpinned frames. Small pools (< 2048 frames, i.e. every exactness
  // test) get a single shard and behave exactly like the pre-concurrency
  // pool, global LRU included. This two-argument form takes the compressed-
  // tier budget from the SEGDB_COMPRESSED_TIER_BYTES environment variable
  // (absent/0 = disabled) so whole test binaries can be re-run with the
  // tier on without touching every pool construction.
  BufferPool(DiskManager* disk, size_t frame_count);
  BufferPool(DiskManager* disk, size_t frame_count, BufferPoolOptions options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  DiskManager* disk() { return disk_; }
  uint32_t page_size() const { return page_size_; }
  size_t frame_count() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }

  // Pins the page, reading it from disk on a miss. Thread-safe.
  Result<PageRef> Fetch(PageId id);

  // Allocates a fresh zeroed page on disk and pins it (dirty). Writer path.
  Result<PageRef> NewPage();

  // Frees a disk page. The page must not be pinned. Writer path.
  Status FreePage(PageId id);

  // Writes back all dirty frames (pages stay resident). Quiescent only.
  Status FlushAll();

  // Writes back and drops every unpinned frame — simulates a cold cache.
  // Fails if any page is still pinned. Quiescent only.
  Status EvictAll();

  // Attaches (or detaches, with nullptr) the dirty-writeback sink. While a
  // sink is attached, dirty evictions spill to it instead of the device,
  // misses re-fill from it, and FreePage defers the device free to it —
  // the NO-STEAL discipline the WAL's recovery proof needs. FlushAll and
  // EvictAll deliberately still write to the device: they ARE the commit-
  // time writeback the sink exists to order. Quiescent only.
  void set_writeback_sink(WritebackSink* sink) { sink_ = sink; }
  WritebackSink* writeback_sink() const { return sink_; }

  // Copies every dirty resident frame into *out, ascending by page id (a
  // canonical order, so WAL byte streams are reproducible run-to-run).
  // Quiescent only; spilled pages are the sink's to report.
  void CollectDirty(std::vector<PageImage>* out) const;

  // Aggregates the per-shard counters. The sums reproduce exactly the
  // single-threaded counters for any serial trace.
  BufferPoolStats stats() const;
  void ResetStats();

  // Audits the pool: page-table/frame agreement, pin and LRU bookkeeping,
  // stats consistency, and clean resident frames matching their on-disk
  // contents (via DiskManager::PeekPage, so no I/O is counted). Takes each
  // shard's mutex while auditing it, so it may run concurrently with the
  // pure read path (Fetch/Release of clean pages). It must still not
  // overlap writers: the clean-frame-vs-disk byte compare races with
  // writes through a pinned PageRef, which no pool lock can exclude.
  Status CheckInvariants() const;

 private:
  friend class PageRef;

  struct Frame {
    explicit Frame(uint32_t page_size) : page(page_size) {}
    Page page;
    PageId id = kInvalidPageId;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    std::atomic<uint64_t> lru_tick{0};
  };

  struct Shard {
    // mutable: stats() and CheckInvariants() aggregate under it from
    // const context.
    mutable util::Mutex mu;
    // page id -> global frame index; all mapped frames belong to `frames`.
    std::unordered_map<PageId, size_t> page_table SEGDB_GUARDED_BY(mu);
    // Global frame indices owned by the shard. Fixed at construction,
    // read-only afterwards — no guard needed.
    std::vector<size_t> frames;
    BufferPoolStats stats SEGDB_GUARDED_BY(mu);
    // Compressed second tier: evicted pages stashed as CompressPage bytes.
    // Disjoint from page_table by invariant (a promotion removes the entry
    // before the page re-enters a frame). ctier_fifo orders entries for
    // budget eviction, oldest stash first; it may carry stale ids (promoted
    // or freed entries leave their node behind), which eviction skips and a
    // periodic compaction drops.
    std::unordered_map<PageId, std::vector<uint8_t>> ctier
        SEGDB_GUARDED_BY(mu);
    std::deque<PageId> ctier_fifo SEGDB_GUARDED_BY(mu);
    uint64_t ctier_bytes SEGDB_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(PageId id) { return shards_[id % shards_.size()]; }
  uint64_t NextTick() {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void Unpin(size_t frame);
  // Finds a free or evictable frame in `shard`; writes back the victim if
  // dirty, then stashes its bytes in the compressed tier (the stash comes
  // AFTER a successful writeback, so tier entries always equal disk).
  Result<size_t> GrabFrame(Shard& shard) SEGDB_REQUIRES(shard.mu);
  // Compresses `page` into the shard's tier under `id`, evicting oldest
  // entries past the per-shard budget. No-op when the tier is disabled.
  void StashCompressed(Shard& shard, PageId id, const Page& page)
      SEGDB_REQUIRES(shard.mu);
  // Drops `id` from the shard's tier if present (promotion, FreePage).
  void DropCompressed(Shard& shard, PageId id) SEGDB_REQUIRES(shard.mu);

  DiskManager* disk_;
  const uint32_t page_size_;  // hoisted off the disk for the fetch path
  // deque: Frame holds atomics (immovable), and element addresses must be
  // stable while other threads touch them.
  std::deque<Frame> frames_;
  std::vector<Shard> shards_;
  // Per-shard slice of BufferPoolOptions::compressed_tier_bytes (rounded
  // up); 0 disables the tier. Const after construction.
  size_t ctier_shard_budget_ = 0;
  // Set/cleared only while quiescent; read by the concurrent fetch path.
  // Not an atomic on purpose: attaching a sink mid-storm is outside the
  // pool's contract, same as every other writer-path operation.
  WritebackSink* sink_ = nullptr;
  std::atomic<uint64_t> tick_{0};
};

}  // namespace segdb::io

#endif  // SEGDB_IO_BUFFER_POOL_H_
