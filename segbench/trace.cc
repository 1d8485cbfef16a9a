#include "trace.h"

#include <cstdio>
#include <cstring>

namespace segbench {
namespace {

thread_local SpanBuffer* t_buffer = nullptr;

constexpr const char* kLayerNames[] = {
    "core.query_engine", "core.durable_engine", "core.index",
    "io.file_disk_manager"};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<size_t>(Layer::kCount));

}  // namespace

const char* LayerString(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

Layer LayerOf(SpanName name) {
  if (name == SpanName::kServe) return Layer::kQueryEngine;
  if (name <= SpanName::kDurableBulkLoad) return Layer::kDurableEngine;
  if (name <= SpanName::kIndexBulkLoad) return Layer::kIndex;
  return Layer::kFileDiskManager;
}

int32_t SpanBuffer::Open(SpanName name, uint32_t arg) {
  Span span;
  span.name = name;
  span.arg = arg;
  if (open_.empty()) {
    span.request = (uint64_t{id_} << 40) | next_request_++;
  } else {
    span.parent = open_.back();
    span.request = spans_[static_cast<size_t>(span.parent)].request;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanBuffer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

SpanBuffer* SpanBuffer::Current() { return t_buffer; }

SpanBuffer::Scope::Scope(SpanBuffer* buffer) : previous_(t_buffer) {
  t_buffer = buffer;
}

SpanBuffer::Scope::~Scope() { t_buffer = previous_; }

bool WriteSpans(const std::string& path,
                std::span<const std::unique_ptr<SpanBuffer>> buffers) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::unique_ptr<SpanBuffer>& buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      // start, end, request, buffer id, parent, name, pad, arg.
      unsigned char record[40] = {};
      const uint32_t buffer_id = buffer->id();
      const uint8_t name = static_cast<uint8_t>(s.name);
      std::memcpy(record + 0, &s.start_ns, 8);
      std::memcpy(record + 8, &s.end_ns, 8);
      std::memcpy(record + 16, &s.request, 8);
      std::memcpy(record + 24, &buffer_id, 4);
      std::memcpy(record + 28, &s.parent, 4);
      std::memcpy(record + 32, &name, 1);
      std::memcpy(record + 36, &s.arg, 4);
      ok = ok && std::fwrite(record, sizeof(record), 1, f) == 1;
    }
  }
  return std::fclose(f) == 0 && ok;
}

TracedIndex::TracedIndex(segdb::core::SegmentIndex* inner, Layer layer)
    : inner_(inner) {
  const bool durable = layer == Layer::kDurableEngine;
  query_ = durable ? SpanName::kDurableQuery : SpanName::kIndexQuery;
  insert_ = durable ? SpanName::kDurableInsert : SpanName::kIndexInsert;
  erase_ = durable ? SpanName::kDurableErase : SpanName::kIndexErase;
  bulk_load_ = durable ? SpanName::kDurableBulkLoad : SpanName::kIndexBulkLoad;
}

TracedIndex::TracedIndex(std::unique_ptr<segdb::core::SegmentIndex> inner,
                         Layer layer)
    : TracedIndex(inner.get(), layer) {
  owned_ = std::move(inner);
}

segdb::Status TracedIndex::BulkLoad(
    std::span<const segdb::geom::Segment> segments) {
  ScopedSpan span(bulk_load_);
  return inner_->BulkLoad(segments);
}

segdb::Status TracedIndex::Insert(const segdb::geom::Segment& segment) {
  ScopedSpan span(insert_);
  return inner_->Insert(segment);
}

segdb::Status TracedIndex::Erase(const segdb::geom::Segment& segment) {
  ScopedSpan span(erase_);
  return inner_->Erase(segment);
}

segdb::Status TracedIndex::Query(const segdb::core::VerticalSegmentQuery& query,
                                 std::vector<segdb::geom::Segment>* out) const {
  ScopedSpan span(query_);
  return inner_->Query(query, out);
}

segdb::Result<segdb::io::PageId> TracedDisk::AllocatePage() {
  ScopedSpan span(SpanName::kDiskAllocate);
  return base_->AllocatePage();
}

segdb::Status TracedDisk::FreePage(segdb::io::PageId id) {
  ScopedSpan span(SpanName::kDiskFree);
  return base_->FreePage(id);
}

segdb::Status TracedDisk::ReadPage(segdb::io::PageId id, segdb::io::Page* out) {
  ScopedSpan span(SpanName::kDiskRead);
  return base_->ReadPage(id, out);
}

segdb::Status TracedDisk::PeekPage(segdb::io::PageId id,
                                   segdb::io::Page* out) const {
  ScopedSpan span(SpanName::kDiskPeek);
  return base_->PeekPage(id, out);
}

segdb::Status TracedDisk::WritePage(segdb::io::PageId id,
                                    const segdb::io::Page& page) {
  ScopedSpan span(SpanName::kDiskWrite);
  return base_->WritePage(id, page);
}

segdb::Status TracedDisk::WritePagePrefix(segdb::io::PageId id,
                                          const segdb::io::Page& page,
                                          uint32_t prefix_bytes) {
  ScopedSpan span(SpanName::kDiskWritePrefix);
  return base_->WritePagePrefix(id, page, prefix_bytes);
}

void TracedDisk::PeekPagesBatch(std::span<segdb::io::PageFill> fills) {
  ScopedSpan span(SpanName::kDiskPeekBatch,
                  static_cast<uint32_t>(fills.size()));
  base_->PeekPagesBatch(fills);
}

void TracedDisk::PrefetchPages(std::span<const segdb::io::PageId> ids) {
  ScopedSpan span(SpanName::kDiskPrefetch);
  base_->PrefetchPages(ids);
}

segdb::Status TracedDisk::Sync() {
  ScopedSpan span(SpanName::kDiskSync);
  return base_->Sync();
}

}  // namespace segbench
