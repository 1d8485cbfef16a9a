// A DiskManager that injects deterministic, seeded faults between the
// buffer pool and the backing store. The paper's cost model counts I/Os; a
// production-scale segment store must also survive I/Os that *fail*. This
// wrapper simulates the transient failure modes of a real device —
//   - transient read errors (ReadPage / PeekPage return kIoError),
//   - clean write failures (WritePage returns kIoError, no bytes stored),
//   - torn writes (a random prefix of the page reaches the platter, then
//     kIoError),
//   - allocation failures and device exhaustion (AllocatePage returns
//     kIoError / kResourceExhausted)
// — all drawn from a seeded util Rng, so any failing run replays
// bit-identically from its seed. FreePage is deliberately NOT faultable:
// it is a metadata operation on the device, and rollback / rebuild paths
// depend on returning pages unconditionally.
//
// The wrapper composes over any DiskManager backend. The historical
// one-argument form owns a SimDiskManager; the composing form takes a
// non-owned base — pointing it at a FileDiskManager injects the same
// seeded fault stream above the real file, and a torn write genuinely
// truncates the file write (via DiskManager::WritePagePrefix). Because
// faults are decided *above* the device, a sim-backed and a file-backed
// run with the same plan and op sequence observe identical fault streams
// (ops_seen / faults_injected match bit-for-bit).
//
// The fault plan is probabilistic (per-op rates) plus a one-shot scheduled
// fault (`ScheduleFailAtOp`) for pinpointing "what if exactly the K-th disk
// op fails" in targeted tests. `set_enabled(false)` pauses all injection —
// harnesses use this to audit structures and retry failed ops over a
// temporarily reliable device without disturbing the fault stream's
// determinism (paused ops are not counted and draw nothing from the Rng).
//
// Thread-safety: all faultable entry points serialize on an internal mutex
// guarding the Rng and counters, so the wrapper is safe wherever the base
// DiskManager is. In a serial run the fault sequence is a pure function of
// (plan, op sequence).
#ifndef SEGDB_IO_FAULT_INJECTION_H_
#define SEGDB_IO_FAULT_INJECTION_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "io/disk_manager.h"
#include "io/page.h"
#include "util/random.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

// Knobs for FaultInjectingDiskManager. All rates are per-operation
// probabilities in [0, 1]; the default plan injects nothing.
struct FaultPlan {
  // Seeds the fault stream. Two wrappers with the same plan observing the
  // same operation sequence inject identical faults.
  uint64_t seed = 0;
  // ReadPage / PeekPage fail with kIoError (no bytes copied out).
  double read_fault_rate = 0.0;
  // WritePage fails with kIoError before any byte reaches the store.
  double write_fault_rate = 0.0;
  // WritePage stores a random non-empty strict prefix of the page (the rest
  // of the stored page keeps its old bytes), then fails with kIoError.
  double torn_write_rate = 0.0;
  // AllocatePage fails with kIoError (transient; a retry may succeed).
  double alloc_fault_rate = 0.0;
  // Sync fails with kIoError: the durability barrier did not happen, so
  // writes issued since the last successful Sync stay vulnerable to
  // CrashLoseUnsynced(). The base device is NOT synced on a faulted
  // barrier.
  double sync_fault_rate = 0.0;
  // Hard cap on successful allocations while injection is enabled; once
  // spent, AllocatePage returns kResourceExhausted until faults are
  // disabled or the budget is raised. Models a full device.
  uint64_t alloc_budget = std::numeric_limits<uint64_t>::max();
};

class FaultInjectingDiskManager : public DiskManager {
 public:
  // Owns a fresh SimDiskManager of the given page size (the historical
  // form: a faulty simulated device).
  FaultInjectingDiskManager(uint32_t page_size_bytes, const FaultPlan& plan)
      : FaultInjectingDiskManager(
            std::make_unique<SimDiskManager>(page_size_bytes), plan) {}

  // Composes over a caller-owned backend (sim or file). `base` must
  // outlive the wrapper.
  FaultInjectingDiskManager(DiskManager* base, const FaultPlan& plan)
      : DiskManager(base->page_size()), base_(base), plan_(plan),
        rng_(plan.seed) {}

  // Composes over an owned backend.
  FaultInjectingDiskManager(std::unique_ptr<DiskManager> base,
                            const FaultPlan& plan)
      : DiskManager(base->page_size()), owned_(std::move(base)),
        base_(owned_.get()), plan_(plan), rng_(plan.seed) {}

  // The backend the faults sit above (audit and repair paths in harnesses
  // may want uninjected access; prefer set_enabled(false) so the op stream
  // stays visible to ops_seen()).
  DiskManager* base() { return base_; }

  // Pauses / resumes injection. While disabled, operations pass straight
  // through: they are not counted in ops_seen() and consume no randomness.
  void set_enabled(bool enabled) {
    util::MutexLock lock(&mu_);
    enabled_ = enabled;
  }
  bool enabled() const {
    util::MutexLock lock(&mu_);
    return enabled_;
  }

  // One-shot: the k-th faultable operation observed from now (k=1 means the
  // very next one) fails with kIoError, regardless of the probabilistic
  // rates. Requires k >= 1. Only ticks down while injection is enabled;
  // scheduling replaces any earlier unexpired schedule.
  void ScheduleFailAtOp(uint64_t k) {
    SEGDB_CHECK(k >= 1) << "ScheduleFailAtOp is 1-based";
    util::MutexLock lock(&mu_);
    scheduled_countdown_ = k;
    scheduled_torn_ = false;
  }

  // Like ScheduleFailAtOp, but if the k-th faultable op is a page write it
  // tears: a random non-empty strict prefix reaches the store before the
  // kIoError. Non-write ops at k fail cleanly. The crash-recovery sweeps
  // use this to land a torn write on whatever the device happens to be
  // writing at op k (WAL tail pages included).
  void ScheduleTornFailAtOp(uint64_t k) {
    SEGDB_CHECK(k >= 1) << "ScheduleTornFailAtOp is 1-based";
    util::MutexLock lock(&mu_);
    scheduled_countdown_ = k;
    scheduled_torn_ = true;
  }

  // Power-loss modeling. While tracking is on, the wrapper snapshots each
  // page's pre-write bytes on the first write since the last successful
  // Sync; CrashLoseUnsynced() rolls every such page back to its snapshot —
  // i.e. drops ALL unsynced writes, the multi-page analogue of a torn
  // single-page write. Snapshots bypass Decide (no ops counted, no Rng
  // draws), so arming tracking does not perturb the fault stream.
  void set_track_unsynced(bool on) {
    util::MutexLock lock(&mu_);
    track_unsynced_ = on;
    if (!on) unsynced_.clear();
  }
  uint64_t unsynced_pages() const {
    util::MutexLock lock(&mu_);
    return unsynced_.size();
  }
  void CrashLoseUnsynced();

  // Faultable operations observed while enabled (alloc/read/peek/write;
  // FreePage is never counted).
  uint64_t ops_seen() const {
    util::MutexLock lock(&mu_);
    return ops_seen_;
  }
  uint64_t faults_injected() const {
    util::MutexLock lock(&mu_);
    return faults_injected_;
  }

  // Replaces the plan and reseeds the fault stream. Counters are kept.
  void ResetPlan(const FaultPlan& plan) {
    util::MutexLock lock(&mu_);
    plan_ = plan;
    rng_ = Rng(plan.seed);
    allocs_granted_ = 0;
    scheduled_countdown_.reset();
  }

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;  // reliable by contract: delegates
  Status ReadPage(PageId id, Page* out) override;
  Status PeekPage(PageId id, Page* out) const override;
  Status WritePage(PageId id, const Page& page) override;
  Status WritePagePrefix(PageId id, const Page& page,
                         uint32_t prefix_bytes) override;
  Status Sync() override;
  uint64_t pages_in_use() const override { return base_->pages_in_use(); }
  uint64_t high_water_pages() const override {
    return base_->high_water_pages();
  }
  // The wrapper's own counter block is never touched; the model's I/O
  // accounting lives in the backend.
  DiskStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  enum class Op { kAlloc, kRead, kPeek, kWrite, kSync };

  // Decides the fate of one faultable op. Returns OK to pass through; a
  // non-OK status to inject. For writes, sets *torn_prefix_bytes > 0 when a
  // prefix of the page should reach the store before the failure.
  Status Decide(Op op, PageId id, uint32_t* torn_prefix_bytes) const
      SEGDB_REQUIRES(mu_);

  // Records the page's current base-device bytes as its pre-write snapshot
  // (first write since the last successful Sync). Reads the base without a
  // Decide — tracking is invisible to the fault stream and the counters.
  void SnapshotPreImage(PageId id);

  std::unique_ptr<DiskManager> owned_;
  DiskManager* const base_;
  mutable util::Mutex mu_;
  FaultPlan plan_ SEGDB_GUARDED_BY(mu_);
  // mutable: PeekPage is const but draws from the fault stream.
  mutable Rng rng_ SEGDB_GUARDED_BY(mu_);
  bool enabled_ SEGDB_GUARDED_BY(mu_) = true;
  mutable uint64_t ops_seen_ SEGDB_GUARDED_BY(mu_) = 0;
  mutable uint64_t faults_injected_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t allocs_granted_ SEGDB_GUARDED_BY(mu_) = 0;
  mutable std::optional<uint64_t> scheduled_countdown_ SEGDB_GUARDED_BY(mu_);
  mutable bool scheduled_torn_ SEGDB_GUARDED_BY(mu_) = false;
  bool track_unsynced_ SEGDB_GUARDED_BY(mu_) = false;
  // Pre-write snapshots of pages written since the last successful Sync
  // (ordered map: CrashLoseUnsynced restores in deterministic id order).
  std::map<PageId, std::vector<uint8_t>> unsynced_ SEGDB_GUARDED_BY(mu_);
};

}  // namespace segdb::io

#endif  // SEGDB_IO_FAULT_INJECTION_H_
