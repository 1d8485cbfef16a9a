#include "io/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "io/column_codec.h"
#include "util/check.h"

namespace segdb::io {

namespace {

// Sharding only engages for pools large enough that per-shard LRU is
// indistinguishable from global LRU in practice; every pool smaller than
// kMinFramesPerShard keeps one shard and therefore the exact
// pre-concurrency behaviour (the LRU-model test depends on that).
constexpr size_t kMaxShards = 16;
constexpr size_t kMinFramesPerShard = 1024;

size_t PickShardCount(size_t frame_count) {
  const size_t by_size = frame_count / kMinFramesPerShard;
  return std::max<size_t>(1, std::min(kMaxShards, by_size));
}

// Default compressed-tier budget for pools built through the two-argument
// constructor. CI exercises the whole suite tier-on by exporting this.
size_t EnvCompressedTierBytes() {
  const char* env = std::getenv("SEGDB_COMPRESSED_TIER_BYTES");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

Page& PageRef::page() {
  SEGDB_DCHECK(valid());
  return pool_->frames_[frame_].page;
}

const Page& PageRef::page() const {
  SEGDB_DCHECK(valid());
  return pool_->frames_[frame_].page;
}

void PageRef::MarkDirty() {
  SEGDB_DCHECK(valid());
  // The pin's release-store in Unpin orders this (and any raw page writes)
  // before a future evictor's acquire-load of the pin count.
  pool_->frames_[frame_].dirty.store(true, std::memory_order_relaxed);
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t frame_count)
    : BufferPool(disk, frame_count,
                 BufferPoolOptions{EnvCompressedTierBytes()}) {}

BufferPool::BufferPool(DiskManager* disk, size_t frame_count,
                       BufferPoolOptions options)
    : disk_(disk), page_size_(disk->page_size()) {
  SEGDB_DCHECK(frame_count > 0);
  for (size_t i = 0; i < frame_count; ++i) {
    frames_.emplace_back(page_size_);
  }
  shards_ = std::vector<Shard>(PickShardCount(frame_count));
  // Contiguous frame ranges per shard; the remainder goes to the front
  // shards so every shard's capacity differs by at most one frame.
  const size_t per = frame_count / shards_.size();
  const size_t extra = frame_count % shards_.size();
  size_t next = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t take = per + (s < extra ? 1 : 0);
    shards_[s].frames.reserve(take);
    for (size_t i = 0; i < take; ++i) shards_[s].frames.push_back(next++);
  }
  SEGDB_DCHECK(next == frame_count);
  if (options.compressed_tier_bytes > 0) {
    ctier_shard_budget_ =
        (options.compressed_tier_bytes + shards_.size() - 1) / shards_.size();
  }
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  // Tick first: after the release-decrement the frame may be evicted and
  // reused, and this pin must not touch it again.
  f.lru_tick.store(NextTick(), std::memory_order_relaxed);
  const int prev = f.pin_count.fetch_sub(1, std::memory_order_release);
  SEGDB_DCHECK(prev > 0);
}

Result<size_t> BufferPool::GrabFrame(Shard& shard) {
  size_t victim = frames_.size();
  uint64_t best_tick = ~0ULL;
  for (size_t idx : shard.frames) {
    Frame& f = frames_[idx];
    if (f.id == kInvalidPageId) return idx;  // free frame
    // Acquire pairs with the release-decrement in Unpin: a frame seen
    // unpinned here is fully released, including its page bytes and dirty
    // bit. Pins only grow under this shard's mutex, which we hold.
    if (f.pin_count.load(std::memory_order_acquire) == 0) {
      const uint64_t tick = f.lru_tick.load(std::memory_order_relaxed);
      if (tick < best_tick) {
        best_tick = tick;
        victim = idx;
      }
    }
  }
  if (victim == frames_.size()) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  Frame& f = frames_[victim];
  if (f.dirty.load(std::memory_order_relaxed)) {
    if (sink_ != nullptr) {
      // NO-STEAL: an uncommitted dirty page never reaches the device. The
      // sink keeps the bytes in RAM until commit-time writeback (a crash
      // before then correctly discards them). No tier stash either — tier
      // entries must equal disk, which this page does not.
      sink_->CaptureEviction(f.id, f.page);
      ++shard.stats.spills;
      shard.page_table.erase(f.id);
      f.id = kInvalidPageId;
      f.dirty.store(false, std::memory_order_relaxed);
      return victim;
    }
    SEGDB_RETURN_IF_ERROR(disk_->WritePage(f.id, f.page));
    ++shard.stats.writebacks;
  }
  // Stash AFTER the writeback succeeded (and only then): a tier entry must
  // always equal the on-disk bytes, so a dropped or budget-evicted entry is
  // never a data loss and a writeback fault leaves no stale stash behind.
  StashCompressed(shard, f.id, f.page);
  shard.page_table.erase(f.id);
  f.id = kInvalidPageId;
  f.dirty.store(false, std::memory_order_relaxed);
  return victim;
}

void BufferPool::StashCompressed(Shard& shard, PageId id, const Page& page) {
  if (ctier_shard_budget_ == 0) return;
  std::vector<uint8_t> bytes = CompressPage(page.data(), page_size_);
  if (bytes.size() > ctier_shard_budget_) return;  // would never fit
  auto [it, inserted] = shard.ctier.try_emplace(id);
  if (!inserted) shard.ctier_bytes -= it->second.size();
  shard.ctier_bytes += bytes.size();
  it->second = std::move(bytes);
  // A re-stash keeps its original FIFO slot; promoted-and-stashed-again ids
  // get a fresh node while their stale one waits to be skipped.
  if (inserted) shard.ctier_fifo.push_back(id);
  ++shard.stats.compressed_stores;
  while (shard.ctier_bytes > ctier_shard_budget_ && !shard.ctier_fifo.empty()) {
    const PageId oldest = shard.ctier_fifo.front();
    shard.ctier_fifo.pop_front();
    auto vit = shard.ctier.find(oldest);
    if (vit == shard.ctier.end()) continue;  // stale node
    shard.ctier_bytes -= vit->second.size();
    shard.ctier.erase(vit);
    ++shard.stats.compressed_evictions;
  }
  // Stale nodes accumulate one per promote-then-restash cycle; compact the
  // queue before it can grow past a small multiple of the live entry count.
  if (shard.ctier_fifo.size() > 2 * shard.ctier.size() + 64) {
    std::deque<PageId> live;
    for (PageId pid : shard.ctier_fifo) {
      if (shard.ctier.find(pid) != shard.ctier.end()) live.push_back(pid);
    }
    shard.ctier_fifo.swap(live);
  }
}

void BufferPool::DropCompressed(Shard& shard, PageId id) {
  auto it = shard.ctier.find(id);
  if (it == shard.ctier.end()) return;
  shard.ctier_bytes -= it->second.size();
  shard.ctier.erase(it);  // its FIFO node goes stale and is skipped later
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  util::MutexLock lock(&shard.mu);
  ++shard.stats.fetches;
  // Single probe on the hit path: try_emplace either finds the resident
  // frame or leaves a placeholder we fill (or erase) below.
  auto [it, inserted] = shard.page_table.try_emplace(id, 0);
  if (!inserted) {
    Frame& f = frames_[it->second];
    ++shard.stats.hits;
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    f.lru_tick.store(NextTick(), std::memory_order_relaxed);
    return PageRef(this, it->second, id);
  }
  // Compressed-tier probe before the miss is charged: a promotion
  // decompresses RAM-resident bytes instead of reading the device, so it is
  // its own stats bucket, not a miss. The entry is moved out and erased
  // BEFORE GrabFrame — the grab may stash its victim into this same map,
  // and dropping our entry early is harmless because tier bytes are always
  // a copy of disk (a failed grab just means the next fetch reads disk).
  auto ct = shard.ctier.find(id);
  if (ct != shard.ctier.end()) {
    ++shard.stats.compressed_hits;
    const std::vector<uint8_t> bytes = std::move(ct->second);
    shard.ctier_bytes -= bytes.size();
    shard.ctier.erase(ct);
    Result<size_t> frame = GrabFrame(shard);
    if (!frame.ok()) {
      shard.page_table.erase(it);
      return frame.status();
    }
    Frame& f = frames_[frame.value()];
    DecompressPage(bytes, f.page.data(), page_size_);
    f.id = id;
    f.pin_count.store(1, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    f.lru_tick.store(NextTick(), std::memory_order_relaxed);
    it->second = frame.value();
    return PageRef(this, frame.value(), id);
  }
  ++shard.stats.misses;
  Result<size_t> frame = GrabFrame(shard);
  if (!frame.ok()) {
    shard.page_table.erase(it);
    return frame.status();
  }
  Frame& f = frames_[frame.value()];
  if (sink_ != nullptr && sink_->TakeSpilled(id, &f.page)) {
    // A spilled dirty page rejoins the pool. The miss above stays charged —
    // without the sink these bytes would have been written back on eviction
    // and demand-read here, so cold I/O counts are sink-invariant. The
    // frame is dirty: the device copy is stale until commit writeback.
    f.id = id;
    f.pin_count.store(1, std::memory_order_relaxed);
    f.dirty.store(true, std::memory_order_relaxed);
    f.lru_tick.store(NextTick(), std::memory_order_relaxed);
    it->second = frame.value();
    return PageRef(this, frame.value(), id);
  }
  Status read = disk_->ReadPage(id, &f.page);
  if (!read.ok()) {
    // Failed demand read: drop the placeholder and leave the grabbed frame
    // free (its id was never set), so a retry of the same Fetch starts
    // from a clean slate. The miss stays counted — the device was asked.
    shard.page_table.erase(it);
    return read;
  }
  f.id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.lru_tick.store(NextTick(), std::memory_order_relaxed);
  it->second = frame.value();
  return PageRef(this, frame.value(), id);
}

Result<PageRef> BufferPool::NewPage() {
  Result<PageId> id = disk_->AllocatePage();
  if (!id.ok()) return id.status();
  Shard& shard = ShardFor(id.value());
  util::MutexLock lock(&shard.mu);
  Result<size_t> frame = GrabFrame(shard);
  if (!frame.ok()) {
    // Return the just-allocated disk page or it leaks: the id is in no
    // page table and no caller ever learns it. FreePage is a reliable
    // metadata op (never fault-injected), but free of a page we no longer
    // track is best-effort by nature.
    disk_->FreePage(id.value()).IgnoreError();
    return frame.status();
  }
  Frame& f = frames_[frame.value()];
  f.page.Zero();
  f.id = id.value();
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  f.lru_tick.store(NextTick(), std::memory_order_relaxed);
  shard.page_table[id.value()] = frame.value();
  return PageRef(this, frame.value(), id.value());
}

Status BufferPool::FreePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    util::MutexLock lock(&shard.mu);
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      Frame& f = frames_[it->second];
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("FreePage: page is pinned");
      }
      f.id = kInvalidPageId;
      f.dirty.store(false, std::memory_order_relaxed);
      shard.page_table.erase(it);
    }
    // A freed page's id can be re-allocated by NewPage; a stale tier entry
    // would then resurrect the old bytes on the first eviction/fetch cycle.
    DropCompressed(shard, id);
  }
  if (sink_ != nullptr) {
    // Defer the device-level free to the commit that owns this mutation:
    // until it is applied, the device still counts the page as live, so the
    // free list stays a function of committed state only (the recovery
    // bit-identity argument leans on this).
    sink_->DeferFree(id);
    return Status::OK();
  }
  return disk_->FreePage(id);
}

Status BufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.frames) {
      Frame& f = frames_[idx];
      if (f.id != kInvalidPageId && f.dirty.load(std::memory_order_relaxed)) {
        SEGDB_RETURN_IF_ERROR(disk_->WritePage(f.id, f.page));
        f.dirty.store(false, std::memory_order_relaxed);
        ++shard.stats.writebacks;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.frames) {
      Frame& f = frames_[idx];
      if (f.id == kInvalidPageId) continue;
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("EvictAll: page is pinned");
      }
      if (f.dirty.load(std::memory_order_relaxed)) {
        SEGDB_RETURN_IF_ERROR(disk_->WritePage(f.id, f.page));
        ++shard.stats.writebacks;
      }
      shard.page_table.erase(f.id);
      f.id = kInvalidPageId;
      f.dirty.store(false, std::memory_order_relaxed);
    }
    // A cold cache has no second tier either: dropping it here keeps the
    // EvictAll/ResetStats measurement protocol tier-invariant, so the
    // golden cold-miss counts hold with the tier on or off.
    shard.ctier.clear();
    shard.ctier_fifo.clear();
    shard.ctier_bytes = 0;
  }
  return Status::OK();
}

void BufferPool::CollectDirty(std::vector<PageImage>* out) const {
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.frames) {
      const Frame& f = frames_[idx];
      if (f.id == kInvalidPageId) continue;
      if (!f.dirty.load(std::memory_order_relaxed)) continue;
      PageImage image;
      image.id = f.id;
      image.bytes.assign(f.page.data(), f.page.data() + f.page.size());
      out->push_back(std::move(image));
    }
  }
  std::sort(out->begin(), out->end(),
            [](const PageImage& a, const PageImage& b) { return a.id < b.id; });
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    total.fetches += shard.stats.fetches;
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.writebacks += shard.stats.writebacks;
    total.spills += shard.stats.spills;
    total.compressed_hits += shard.stats.compressed_hits;
    total.compressed_stores += shard.stats.compressed_stores;
    total.compressed_evictions += shard.stats.compressed_evictions;
    total.compressed_resident_pages += shard.ctier.size();
    total.compressed_resident_bytes += shard.ctier_bytes;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    shard.stats = BufferPoolStats();
  }
}

Status BufferPool::CheckInvariants() const {
  uint64_t tick_now = tick_.load(std::memory_order_relaxed);
  std::vector<bool> owned(frames_.size(), false);
  size_t resident = 0;
  size_t table_total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    // Hold the shard's mutex while auditing it. The audit is documented
    // quiescent-only (the frame-vs-disk byte compare can race with pinned
    // writers), but the page-table and stats reads are guarded state, and
    // the thread-safety analysis rightly rejected the previous lock-free
    // walk: an audit concurrent with a Fetch storm on another shard is
    // legal and must not tear this shard's map.
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.frames) {
      if (idx >= frames_.size() || owned[idx]) {
        return Status::Corruption("frame owned by no or several shards");
      }
      owned[idx] = true;
      const Frame& f = frames_[idx];
      if (f.pin_count.load(std::memory_order_relaxed) < 0) {
        return Status::Corruption("frame with negative pin count");
      }
      if (f.lru_tick.load(std::memory_order_relaxed) > tick_now) {
        // Unpins stamp frame ticks lock-free, so a concurrent reader can
        // legitimately advance a frame past our clock snapshot; refresh
        // the snapshot (the clock is monotonic) before calling it
        // corruption.
        tick_now = tick_.load(std::memory_order_relaxed);
        if (f.lru_tick.load(std::memory_order_relaxed) > tick_now) {
          return Status::Corruption("frame LRU tick ahead of the pool clock");
        }
      }
      if (f.id == kInvalidPageId) {
        if (f.pin_count.load(std::memory_order_relaxed) != 0) {
          return Status::Corruption("empty frame still pinned");
        }
        if (f.dirty.load(std::memory_order_relaxed)) {
          return Status::Corruption("empty frame marked dirty");
        }
        continue;
      }
      ++resident;
      if (f.id % shards_.size() != s) {
        return Status::Corruption("page resident in the wrong shard");
      }
      auto it = shard.page_table.find(f.id);
      if (it == shard.page_table.end() || it->second != idx) {
        return Status::Corruption("resident frame missing from the page table");
      }
      if (!f.dirty.load(std::memory_order_relaxed)) {
        // A clean frame must agree with disk byte-for-byte; a mismatch
        // means a write skipped MarkDirty and would be lost on eviction.
        Page on_disk(page_size_);
        SEGDB_RETURN_IF_ERROR(disk_->PeekPage(f.id, &on_disk));
        if (std::memcmp(f.page.data(), on_disk.data(), f.page.size()) != 0) {
          return Status::Corruption("clean frame diverges from disk contents");
        }
      }
    }
    table_total += shard.page_table.size();
    for (const auto& [id, idx] : shard.page_table) {
      if (idx >= frames_.size() || frames_[idx].id != id) {
        return Status::Corruption("page-table entry points at a wrong frame");
      }
      if (id % shards_.size() != s) {
        return Status::Corruption("page-table entry in the wrong shard");
      }
    }
    // Compressed tier: byte accounting, budget, shard placement,
    // disjointness from the frame-resident set, and — the core guarantee —
    // every entry decompresses to exactly the page's on-disk bytes.
    uint64_t ctier_bytes = 0;
    for (const auto& [id, bytes] : shard.ctier) {
      ctier_bytes += bytes.size();
      if (id % shards_.size() != s) {
        return Status::Corruption("compressed-tier entry in the wrong shard");
      }
      if (shard.page_table.find(id) != shard.page_table.end()) {
        return Status::Corruption(
            "page resident in both a frame and the compressed tier");
      }
      Page on_disk(page_size_);
      SEGDB_RETURN_IF_ERROR(disk_->PeekPage(id, &on_disk));
      Page decoded(page_size_);
      DecompressPage(bytes, decoded.data(), page_size_);
      if (std::memcmp(decoded.data(), on_disk.data(), page_size_) != 0) {
        return Status::Corruption(
            "compressed-tier entry diverges from disk contents");
      }
    }
    if (ctier_bytes != shard.ctier_bytes) {
      return Status::Corruption("compressed-tier byte accounting mismatch");
    }
    if (ctier_shard_budget_ == 0 && !shard.ctier.empty()) {
      return Status::Corruption("compressed tier populated while disabled");
    }
    if (shard.ctier_bytes > ctier_shard_budget_) {
      return Status::Corruption("compressed tier exceeds its shard budget");
    }
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!owned[i]) return Status::Corruption("frame owned by no shard");
  }
  if (table_total != resident) {
    return Status::Corruption("page table and resident frames disagree");
  }
  const BufferPoolStats s = stats();
  // A fetch resolves as exactly one of: frame hit, demand miss, or
  // compressed-tier promotion. (Failed fetches keep their bucket — the
  // device or tier was asked — matching the single-tier accounting.)
  if (s.hits + s.misses + s.compressed_hits != s.fetches) {
    return Status::Corruption("fetch/hit/miss accounting mismatch");
  }
  return Status::OK();
}

}  // namespace segdb::io
