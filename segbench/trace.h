// Tracing for segbench's traced run: in-memory spans plus the forwarding
// adapters that record them at the layer boundaries, all in the
// benchmark's own files (nothing inside src/ is instrumented).
//
// A span is (name, start, end, parent, request id). Each recording thread
// owns one SpanBuffer, installed with SpanBuffer::Scope; spans nest by a
// per-buffer stack of open spans, so a span's parent is whatever span was
// open on the same thread when it began. A span opened with an empty stack
// is a request root and takes a fresh request id that its descendants
// inherit. With no buffer installed, every ScopedSpan is a no-op, so the
// adapters cost one virtual call per layer crossing when idle.
//
// Adapters:
//   TracedIndex — a core::SegmentIndex forwarding to another one; wraps the
//     DurableEngine handed to QueryEngine::Serve (durable.* spans) and the
//     inner index the IndexFactory returns (index.* spans).
//   TracedDisk  — an io::DiskManager forwarding to the file device, the
//     wrapping pattern of io::FaultInjectingDiskManager; handed to both
//     the BufferPool and DurableEngine::Create, so WAL writes and syncs
//     are spans too.
#ifndef SEGBENCH_TRACE_H_
#define SEGBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/segment_index.h"
#include "io/disk_manager.h"

namespace segbench {

enum class SpanName : uint8_t {
  kServe,  // QueryEngine::Serve as the client calls it
  kDurableQuery,
  kDurableInsert,
  kDurableErase,
  kDurableBulkLoad,
  kIndexQuery,
  kIndexInsert,
  kIndexErase,
  kIndexBulkLoad,
  kDiskRead,
  kDiskPeek,
  kDiskPeekBatch,  // arg = pages in the batch
  kDiskWrite,
  kDiskWritePrefix,
  kDiskSync,
  kDiskAllocate,
  kDiskFree,
  kDiskPrefetch,
};

// The module a span's self time is charged to.
enum class Layer : uint8_t {
  kQueryEngine,
  kDurableEngine,
  kIndex,
  kFileDiskManager,
  kCount,
};

const char* LayerString(Layer layer);
Layer LayerOf(SpanName name);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index into the same buffer; -1 = request root
  SpanName name = SpanName::kServe;
  uint32_t arg = 0;
};

class SpanBuffer {
 public:
  // `id` distinguishes buffers in request ids and in the written trace.
  explicit SpanBuffer(uint32_t id, size_t reserve = 0) : id_(id) {
    spans_.reserve(reserve);
  }

  uint32_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Open(SpanName name, uint32_t arg);
  void Close(int32_t index);

  // The buffer recording on this thread, or null.
  static SpanBuffer* Current();

  // Installs a buffer on the calling thread for the scope's lifetime.
  class Scope {
   public:
    explicit Scope(SpanBuffer* buffer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanBuffer* previous_;
  };

 private:
  uint32_t id_;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint32_t arg = 0)
      : buffer_(SpanBuffer::Current()) {
    if (buffer_ != nullptr) index_ = buffer_->Open(name, arg);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_ = -1;
};

// Writes every span of `buffers` to `path` as fixed 40-byte little-endian
// records (see README.md, "Trace file").
bool WriteSpans(const std::string& path,
                std::span<const std::unique_ptr<SpanBuffer>> buffers);

// Forwards every call to `inner`, recording one span per operation under
// the names of `layer` (kDurableEngine or kIndex).
class TracedIndex final : public segdb::core::SegmentIndex {
 public:
  TracedIndex(segdb::core::SegmentIndex* inner, Layer layer);
  TracedIndex(std::unique_ptr<segdb::core::SegmentIndex> inner, Layer layer);

  segdb::Status BulkLoad(
      std::span<const segdb::geom::Segment> segments) override;
  segdb::Status Insert(const segdb::geom::Segment& segment) override;
  segdb::Status Erase(const segdb::geom::Segment& segment) override;
  segdb::Status Query(const segdb::core::VerticalSegmentQuery& query,
                      std::vector<segdb::geom::Segment>* out) const override;
  uint64_t size() const override { return inner_->size(); }
  uint64_t page_count() const override { return inner_->page_count(); }
  std::string name() const override { return inner_->name(); }
  segdb::Status CheckInvariants() const override {
    return inner_->CheckInvariants();
  }

 private:
  std::unique_ptr<segdb::core::SegmentIndex> owned_;
  segdb::core::SegmentIndex* inner_;
  SpanName query_, insert_, erase_, bulk_load_;
};

// Forwarding device; counters are the base's (stats() delegates, as in
// io::FaultInjectingDiskManager).
class TracedDisk final : public segdb::io::DiskManager {
 public:
  explicit TracedDisk(segdb::io::DiskManager* base)
      : DiskManager(base->page_size()), base_(base) {}

  segdb::Result<segdb::io::PageId> AllocatePage() override;
  segdb::Status FreePage(segdb::io::PageId id) override;
  segdb::Status ReadPage(segdb::io::PageId id, segdb::io::Page* out) override;
  segdb::Status PeekPage(segdb::io::PageId id,
                         segdb::io::Page* out) const override;
  segdb::Status WritePage(segdb::io::PageId id,
                          const segdb::io::Page& page) override;
  segdb::Status WritePagePrefix(segdb::io::PageId id,
                                const segdb::io::Page& page,
                                uint32_t prefix_bytes) override;
  void PeekPagesBatch(std::span<segdb::io::PageFill> fills) override;
  void PrefetchPages(std::span<const segdb::io::PageId> ids) override;
  segdb::Status Sync() override;
  uint64_t pages_in_use() const override { return base_->pages_in_use(); }
  uint64_t high_water_pages() const override {
    return base_->high_water_pages();
  }
  segdb::io::DiskStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  segdb::io::DiskManager* const base_;
};

}  // namespace segbench

#endif  // SEGBENCH_TRACE_H_
