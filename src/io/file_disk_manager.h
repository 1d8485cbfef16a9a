// The real-file DiskManager backend: fixed-size pages in a single file,
// moved one page per synchronous pread/pwrite through an aligned bounce
// buffer, with O_DIRECT where the filesystem allows it. Counter semantics
// are identical to SimDiskManager — a ReadPage is one charged read,
// PeekPage is uncounted, AllocatePage charges an allocation but not the
// physical zeroing — so the golden cold-I/O tables pin both backends with
// the same numbers; only wall-clock differs.
//
// File layout (all regions page_size-aligned; page_size must be a
// multiple of 4 KiB, the O_DIRECT transfer granule):
//
//   [ superblock page | allocation bitmap | data pages ... ]
//
// The superblock records page_size, capacity (max_pages), the allocation
// frontier and the use/high-water counters; the bitmap marks live pages.
// Both are written back on Close()/Flush() — in-memory state is
// authoritative in between (crash consistency is out of scope; the fault
// story lives in FaultInjectingDiskManager, which composes *above* this
// backend). Newly allocated pages read as zeros without a physical write:
// the file is grown with ftruncate and holes read back as zeros; only
// free-list reuse rewrites the page, since it holds stale bytes.
//
// O_DIRECT is attempted by default and dropped automatically where the
// filesystem rejects it (tmpfs); kOn fails instead of degrading, kOff
// benchmarks the page-cached path.
//
// Concurrency: same contract as the abstract base — the read path is
// safe from any number of threads. The bounce buffer is shared, so an
// internal mutex serializes device access; the atomic counters keep the
// stats snapshot lock-free.
#ifndef SEGDB_IO_FILE_DISK_MANAGER_H_
#define SEGDB_IO_FILE_DISK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/disk_manager.h"
#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

// pread/pwrite with EINTR and short-transfer retry. The function-pointer
// seam lets tests inject syscall behaviors (EINTR storms, short reads)
// without a real flaky device; production callers pass nullptr for the
// real syscalls.
using PreadFn = long (*)(int fd, void* buf, unsigned long count,
                         long offset);
using PwriteFn = long (*)(int fd, const void* buf, unsigned long count,
                          long offset);
Status ReadFullAt(int fd, uint8_t* dst, size_t len, uint64_t offset,
                  PreadFn raw = nullptr);
Status WriteFullAt(int fd, const uint8_t* src, size_t len, uint64_t offset,
                   PwriteFn raw = nullptr);

// Always zero: nothing batches reads. segbench is its only reader.
struct IoSchedulerStats {
  uint64_t pages = 0;
  uint64_t submissions = 0;
  uint64_t merged_pages = 0;
  uint64_t max_inflight = 0;
};

struct FileDiskManagerOptions {
  // Device block size; must be a positive multiple of 4096.
  uint32_t page_size = 4096;
  // Capacity: the bitmap region is sized for this many pages at creation
  // and fixed for the life of the file.
  uint64_t max_pages = uint64_t{1} << 20;
  enum class Direct : uint8_t { kAuto, kOn, kOff };
  Direct direct = Direct::kAuto;
};

class FileDiskManager final : public DiskManager {
 public:
  // Creates the file if absent, otherwise validates the superblock
  // (magic, matching page_size) and restores the allocation state.
  static Result<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path, const FileDiskManagerOptions& options = {});

  // Persists superblock + bitmap and closes the fd. Idempotent; also run
  // by the destructor (which swallows the status).
  Status Close();
  ~FileDiskManager() override;

  // Persists superblock + bitmap without closing.
  Status Flush();

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status PeekPage(PageId id, Page* out) const override;
  Status WritePage(PageId id, const Page& page) override;
  Status WritePagePrefix(PageId id, const Page& page,
                         uint32_t prefix_bytes) override;
  Status Sync() override;
  uint64_t pages_in_use() const override;
  uint64_t high_water_pages() const override;

  // Introspection for tests and bench telemetry.
  bool direct_io() const { return direct_; }
  // Fixed answers; segbench is their only reader.
  const char* engine_name() const { return "pread"; }
  IoSchedulerStats scheduler_stats() const { return {}; }
  void ResetSchedulerStats() {}

 private:
  FileDiskManager(uint32_t page_size, const FileDiskManagerOptions& options);

  Status InitCreate() SEGDB_REQUIRES(mu_);
  Status InitExisting(uint64_t file_size) SEGDB_REQUIRES(mu_);
  Status WriteMeta() SEGDB_REQUIRES(mu_);

  bool IsLive(PageId id) const SEGDB_REQUIRES(mu_);
  uint64_t PageOffset(PageId id) const {
    return data_offset_ + uint64_t{id} * page_size();
  }
  // Reads/writes `page_size` bytes of file at `offset` through the
  // aligned bounce buffer (O_DIRECT cannot touch unaligned caller
  // memory).
  Status ReadBlock(uint64_t offset, uint8_t* dst) const SEGDB_REQUIRES(mu_);
  Status WriteBlock(uint64_t offset, const uint8_t* src) SEGDB_REQUIRES(mu_);
  Status GrowTo(uint64_t file_size) SEGDB_REQUIRES(mu_);

  const FileDiskManagerOptions options_;
  mutable util::Mutex mu_;
  int fd_ SEGDB_GUARDED_BY(mu_) = -1;
  bool direct_ = false;  // set once in Open, read-only afterwards
  uint64_t bitmap_bytes_ = 0;   // fixed at create
  uint64_t data_offset_ = 0;    // fixed at create
  // Aligned bounce for single-block transfers, guarded like the fd.
  std::unique_ptr<uint8_t[], void (*)(void*)> bounce_ SEGDB_GUARDED_BY(mu_);

  std::vector<bool> live_ SEGDB_GUARDED_BY(mu_);
  std::vector<PageId> free_list_ SEGDB_GUARDED_BY(mu_);
  uint64_t frontier_ SEGDB_GUARDED_BY(mu_) = 0;  // never-allocated boundary
  uint64_t file_size_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t pages_in_use_count_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t high_water_ SEGDB_GUARDED_BY(mu_) = 0;
};

}  // namespace segdb::io

#endif  // SEGDB_IO_FILE_DISK_MANAGER_H_
