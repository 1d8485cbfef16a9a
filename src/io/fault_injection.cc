#include "io/fault_injection.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace segdb::io {

namespace {

std::string FaultMsg(const char* what, PageId id, uint64_t op_index) {
  std::string msg = "injected ";
  msg += what;
  msg += " (op #";
  msg += std::to_string(op_index);
  if (id != kInvalidPageId) {
    msg += ", page ";
    msg += std::to_string(id);
  }
  msg += ")";
  return msg;
}

}  // namespace

Status FaultInjectingDiskManager::Decide(Op op, PageId id,
                                         uint32_t* torn_prefix_bytes) const {
  if (!enabled_) return Status::OK();
  ++ops_seen_;
  if (scheduled_countdown_.has_value()) {
    if (--*scheduled_countdown_ == 0) {
      scheduled_countdown_.reset();
      ++faults_injected_;
      if (scheduled_torn_ && op == Op::kWrite) {
        scheduled_torn_ = false;
        *torn_prefix_bytes = static_cast<uint32_t>(
            1 + rng_.Uniform(page_size() > 1 ? page_size() - 1 : 1));
        return Status::IoError(
            FaultMsg("scheduled torn write", id, ops_seen_));
      }
      scheduled_torn_ = false;
      return Status::IoError(FaultMsg("scheduled fault", id, ops_seen_));
    }
  }
  switch (op) {
    case Op::kAlloc:
      if (allocs_granted_ >= plan_.alloc_budget) {
        ++faults_injected_;
        return Status::ResourceExhausted(
            FaultMsg("allocation budget exhausted", id, ops_seen_));
      }
      if (plan_.alloc_fault_rate > 0 &&
          rng_.Bernoulli(plan_.alloc_fault_rate)) {
        ++faults_injected_;
        return Status::IoError(FaultMsg("allocation fault", id, ops_seen_));
      }
      break;
    case Op::kRead:
    case Op::kPeek:
      if (plan_.read_fault_rate > 0 && rng_.Bernoulli(plan_.read_fault_rate)) {
        ++faults_injected_;
        return Status::IoError(FaultMsg("read fault", id, ops_seen_));
      }
      break;
    case Op::kWrite:
      if (plan_.torn_write_rate > 0 &&
          rng_.Bernoulli(plan_.torn_write_rate)) {
        // Non-empty strict prefix: at least one byte lands, at least one
        // byte of the old page survives.
        *torn_prefix_bytes = static_cast<uint32_t>(
            1 + rng_.Uniform(page_size() > 1 ? page_size() - 1 : 1));
        ++faults_injected_;
        return Status::IoError(FaultMsg("torn write", id, ops_seen_));
      }
      if (plan_.write_fault_rate > 0 &&
          rng_.Bernoulli(plan_.write_fault_rate)) {
        ++faults_injected_;
        return Status::IoError(FaultMsg("write fault", id, ops_seen_));
      }
      break;
    case Op::kSync:
      if (plan_.sync_fault_rate > 0 && rng_.Bernoulli(plan_.sync_fault_rate)) {
        ++faults_injected_;
        return Status::IoError(FaultMsg("sync fault", id, ops_seen_));
      }
      break;
  }
  return Status::OK();
}

Result<PageId> FaultInjectingDiskManager::AllocatePage() {
  {
    util::MutexLock lock(&mu_);
    uint32_t unused = 0;
    Status fate = Decide(Op::kAlloc, kInvalidPageId, &unused);
    if (!fate.ok()) return fate;
  }
  Result<PageId> id = base_->AllocatePage();
  if (id.ok()) {
    util::MutexLock lock(&mu_);
    if (enabled_) ++allocs_granted_;
  }
  return id;
}

Status FaultInjectingDiskManager::FreePage(PageId id) {
  {
    util::MutexLock lock(&mu_);
    // A freed page cannot be rolled back (the device rejects writes to a
    // dead id); the free itself is reliable metadata by contract.
    unsynced_.erase(id);
  }
  return base_->FreePage(id);
}

void FaultInjectingDiskManager::SnapshotPreImage(PageId id) {
  Page pre(page_size());
  if (!base_->PeekPage(id, &pre).ok()) return;  // dead page: write will fail
  util::MutexLock lock(&mu_);
  unsynced_.emplace(
      id, std::vector<uint8_t>(pre.data(), pre.data() + pre.size()));
}

Status FaultInjectingDiskManager::Sync() {
  {
    util::MutexLock lock(&mu_);
    uint32_t unused = 0;
    Status fate = Decide(Op::kSync, kInvalidPageId, &unused);
    // A faulted barrier syncs nothing: the pre-write snapshots stay armed
    // until a Sync actually succeeds.
    if (!fate.ok()) return fate;
    unsynced_.clear();
  }
  return base_->Sync();
}

void FaultInjectingDiskManager::CrashLoseUnsynced() {
  std::map<PageId, std::vector<uint8_t>> pre;
  {
    util::MutexLock lock(&mu_);
    pre.swap(unsynced_);
  }
  for (const auto& [id, bytes] : pre) {
    Page page(page_size());
    std::memcpy(page.data(), bytes.data(), bytes.size());
    // Pages freed since their snapshot are dead on the device; skip them.
    base_->WritePage(id, page).IgnoreError();
  }
}

Status FaultInjectingDiskManager::ReadPage(PageId id, Page* out) {
  {
    util::MutexLock lock(&mu_);
    uint32_t unused = 0;
    SEGDB_RETURN_IF_ERROR(Decide(Op::kRead, id, &unused));
  }
  return base_->ReadPage(id, out);
}

Status FaultInjectingDiskManager::PeekPage(PageId id, Page* out) const {
  {
    util::MutexLock lock(&mu_);
    uint32_t unused = 0;
    SEGDB_RETURN_IF_ERROR(Decide(Op::kPeek, id, &unused));
  }
  return base_->PeekPage(id, out);
}

Status FaultInjectingDiskManager::WritePage(PageId id, const Page& page) {
  uint32_t torn_prefix = 0;
  Status fate;
  bool snapshot = false;
  {
    util::MutexLock lock(&mu_);
    fate = Decide(Op::kWrite, id, &torn_prefix);
    snapshot = track_unsynced_ && (fate.ok() || torn_prefix != 0) &&
               unsynced_.find(id) == unsynced_.end();
  }
  if (snapshot) SnapshotPreImage(id);
  if (fate.ok()) return base_->WritePage(id, page);
  if (torn_prefix == 0) return fate;  // clean failure: nothing stored
  // Torn write: a prefix of the new page reaches the store (on the file
  // backend the device write is genuinely truncated), and the caller still
  // sees the error. If the page is dead the device rejects the prefix
  // write; report the injected error without touching the store.
  base_->WritePagePrefix(id, page, torn_prefix).IgnoreError();
  return fate;
}

Status FaultInjectingDiskManager::WritePagePrefix(PageId id, const Page& page,
                                                  uint32_t prefix_bytes) {
  uint32_t torn_prefix = 0;
  Status fate;
  bool snapshot = false;
  {
    util::MutexLock lock(&mu_);
    fate = Decide(Op::kWrite, id, &torn_prefix);
    snapshot = track_unsynced_ && (fate.ok() || torn_prefix != 0) &&
               unsynced_.find(id) == unsynced_.end();
  }
  if (snapshot) SnapshotPreImage(id);
  if (fate.ok()) return base_->WritePagePrefix(id, page, prefix_bytes);
  if (torn_prefix == 0) return fate;
  // Tearing a prefix write can only shorten it further.
  base_->WritePagePrefix(id, page, std::min(torn_prefix, prefix_bytes))
      .IgnoreError();
  return fate;
}

}  // namespace segdb::io
