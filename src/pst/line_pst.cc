#include "pst/line_pst.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <string>

#include "geom/filter_kernel.h"
#include "geom/predicates.h"
#include "io/columnar_page_view.h"
#include "util/math.h"
#include "util/check.h"

namespace segdb::pst {

namespace {

// Reach of a canonical (right-extending) segment: how far from the base
// line it attains. This is the PST heap key.
int64_t Reach(const geom::Segment& s) { return s.x2; }

}  // namespace

LinePst::LinePst(io::BufferPool* pool, int64_t base_x, Direction direction,
                 LinePstOptions options)
    : pool_(pool), base_x_(base_x), direction_(direction) {
  const uint32_t page = pool_->page_size();
  if (options.fanout != 0) {
    fanout_ = std::max<uint32_t>(2, options.fanout);
  } else {
    // Auto: about one child per 172 page bytes, 23 at 4 KiB. A child costs
    // 60 directory bytes (id, size, reach, separator), so at 4 KiB the
    // directory takes a third of the page and a node holds 107 records.
    fanout_ = std::max<uint32_t>(2, (page + 24) / 172);
  }
  const uint32_t overhead = RegionOff();
  SEGDB_DCHECK(overhead < page) << "page too small for LinePst fanout";
  cap_ = io::ColumnarRegionCapacity(page - overhead);
  SEGDB_DCHECK(cap_ >= 2) << "page too small for LinePst node";
  slack_ = std::min(kInsertSlack, cap_ / 4);
}

LinePst::~LinePst() { Clear().IgnoreError(); }

geom::Segment LinePst::Canonical(const geom::Segment& s) const {
  return direction_ == Direction::kRight ? s : geom::MirrorX(s, base_x_);
}

geom::Segment LinePst::Original(const geom::Segment& s) const {
  return direction_ == Direction::kRight ? s : geom::MirrorX(s, base_x_);
}

int LinePst::BaseCompare(const geom::Segment& a,
                         const geom::Segment& b) const {
  return geom::CompareCrossingOrder(a, b, base_x_);
}

Status LinePst::ValidateInput(const geom::Segment& s) const {
  if (s.is_vertical()) {
    return Status::InvalidArgument(
        "segment " + std::to_string(s.id) +
        " lies on / parallel to the base line; store it in the C structure");
  }
  if (!(s.x1 <= base_x_ && base_x_ < s.x2)) {
    return Status::InvalidArgument(
        "segment " + std::to_string(s.id) +
        " does not cross the base line into the stored half-plane");
  }
  return Status::OK();
}

Status LinePst::Clear() {
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
    root_ = io::kInvalidPageId;
  }
  size_ = 0;
  page_count_ = 0;
  return Status::OK();
}

Status LinePst::FreeSubtree(io::PageId id) {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    for (uint32_t i = 0; i < hdr.num_children; ++i) {
      children.push_back(p.ReadAt<io::PageId>(ChildOff(i)));
    }
  }
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(FreeSubtree(c));
  SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  --page_count_;
  return Status::OK();
}

Status LinePst::CollectSubtree(io::PageId id,
                               std::vector<geom::Segment>* out) const {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    const io::ConstColumnarPageView view(p, RegionOff(), cap_);
    for (uint32_t i = 0; i < hdr.count; ++i) {
      out->push_back(view.Get(i));
    }
    for (uint32_t i = 0; i < hdr.num_children; ++i) {
      children.push_back(p.ReadAt<io::PageId>(ChildOff(i)));
    }
  }
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(CollectSubtree(c, out));
  return Status::OK();
}

Status LinePst::CollectAll(std::vector<geom::Segment>* out) const {
  if (root_ == io::kInvalidPageId) return Status::OK();
  std::vector<geom::Segment> canonical;
  SEGDB_RETURN_IF_ERROR(CollectSubtree(root_, &canonical));
  out->reserve(out->size() + canonical.size());
  for (const geom::Segment& s : canonical) out->push_back(Original(s));
  return Status::OK();
}

Result<io::PageId> LinePst::BuildSubtree(std::span<const geom::Segment> segs,
                                         int64_t* max_reach) {
  SEGDB_DCHECK(!segs.empty());
  const size_t n = segs.size();
  const uint32_t fill = cap_ - slack_;
  const uint32_t take = static_cast<uint32_t>(std::min<size_t>(fill, n));

  // Pick the `take` segments with the largest reach.
  std::vector<uint32_t> by_reach(n);
  std::iota(by_reach.begin(), by_reach.end(), 0);
  std::nth_element(by_reach.begin(), by_reach.begin() + take - 1,
                   by_reach.end(), [&](uint32_t a, uint32_t b) {
                     if (Reach(segs[a]) != Reach(segs[b])) {
                       return Reach(segs[a]) > Reach(segs[b]);
                     }
                     return a < b;
                   });
  std::vector<bool> stored(n, false);
  for (uint32_t i = 0; i < take; ++i) stored[by_reach[i]] = true;

  std::vector<geom::Segment> node_segs;
  std::vector<geom::Segment> rest;
  node_segs.reserve(take);
  rest.reserve(n - take);
  for (size_t i = 0; i < n; ++i) {
    if (stored[i]) {
      node_segs.push_back(segs[i]);
    } else {
      rest.push_back(segs[i]);
    }
  }
  // The maximum reach lives in this node by construction.
  *max_reach = Reach(*std::max_element(
      node_segs.begin(), node_segs.end(),
      [](const geom::Segment& a, const geom::Segment& b) {
        return Reach(a) < Reach(b);
      }));

  auto ref = pool_->NewPage();
  if (!ref.ok()) return ref.status();
  ++page_count_;
  const io::PageId id = ref.value().page_id();
  io::Page& p = ref.value().page();

  // Page allotment: the rest needs `pages` full nodes. Each of the k
  // children gets floor or ceil(pages / k) nodes' worth of records and the
  // last child the remainder, so every node below is full to `fill` except
  // on the rightmost path.
  const uint64_t pages = CeilDiv(rest.size(), fill);
  const uint32_t k =
      static_cast<uint32_t>(std::min<uint64_t>(fanout_, pages));

  // The header goes to disk with num_children == 0 until every child has
  // been built: a build that faults mid-way unwinds by freeing the
  // children it completed (their ids are still local) plus this page, and
  // no on-disk state ever points at a half-attached child.
  NodeHeader hdr;
  hdr.count = take;
  hdr.num_children = 0;
  hdr.subtree_size = n;
  p.WriteAt<NodeHeader>(0, hdr);
  io::ColumnarPageView(&p, RegionOff(), cap_)
      .WriteRange(0, node_segs.data(), take);
  ref.value().MarkDirty();
  // Children allocate pages below; drop the pin at scope exit first.
  { io::PageRef done = std::move(ref.value()); }

  if (k > 0) {
    std::vector<io::PageId> child_ids;
    std::vector<uint64_t> child_sizes(k);
    std::vector<int64_t> reaches(k);
    child_ids.reserve(k);
    const auto unwind = [&](const Status& cause) {
      for (io::PageId c : child_ids) FreeSubtree(c).IgnoreError();
      pool_->FreePage(id).IgnoreError();
      --page_count_;
      return cause;
    };
    size_t begin = 0;
    for (uint32_t i = 0; i < k; ++i) {
      const uint64_t child_pages = pages / k + (i < pages % k ? 1 : 0);
      const size_t len = i + 1 == k ? rest.size() - begin
                                    : static_cast<size_t>(child_pages * fill);
      Result<io::PageId> child = BuildSubtree(
          std::span<const geom::Segment>(rest).subspan(begin, len),
          &reaches[i]);
      if (!child.ok()) return unwind(child.status());
      child_ids.push_back(child.value());
      child_sizes[i] = len;
      begin += len;
    }
    auto wref = pool_->Fetch(id);
    if (!wref.ok()) return unwind(wref.status());
    io::Page& wp = wref.value().page();
    begin = 0;
    for (uint32_t i = 0; i < k; ++i) {
      wp.WriteAt<io::PageId>(ChildOff(i), child_ids[i]);
      wp.WriteAt<uint64_t>(ChildSizeOff(i), child_sizes[i]);
      wp.WriteAt<int64_t>(ReachOff(i), reaches[i]);
      if (i > 0) wp.WriteAt<geom::Segment>(SepOff(i - 1), rest[begin]);
      begin += child_sizes[i];
    }
    hdr.num_children = k;
    wp.WriteAt<NodeHeader>(0, hdr);
    wref.value().MarkDirty();
  }
  return id;
}

Status LinePst::BulkLoad(std::span<const geom::Segment> segments) {
  SEGDB_IO_BOUND("scan");
  // Validate and build the replacement tree before freeing the old one: a
  // faulted load unwinds its partial build and leaves the previous
  // contents untouched, so a failed BulkLoad is a no-op.
  std::vector<geom::Segment> canonical;
  canonical.reserve(segments.size());
  for (const geom::Segment& s : segments) {
    const geom::Segment c = Canonical(s);
    SEGDB_RETURN_IF_ERROR(ValidateInput(c));
    canonical.push_back(c);
  }
  std::sort(canonical.begin(), canonical.end(),
            [&](const geom::Segment& a, const geom::Segment& b) {
              return BaseCompare(a, b) < 0;
            });
  io::PageId new_root = io::kInvalidPageId;
  if (!canonical.empty()) {
    int64_t reach = 0;
    Result<io::PageId> root = BuildSubtree(canonical, &reach);
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ != io::kInvalidPageId) {
    // FreeSubtree (not Clear) so page_count_ keeps counting the new tree.
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  }
  root_ = new_root;
  size_ = segments.size();
  packed_size_ = segments.size();
  return Status::OK();
}

Status LinePst::Insert(const geom::Segment& segment) {
  // Amortized O(log_B n): the descent is height-bounded, but an insert
  // that trips the density trigger rebuilds the overgrown subtree.
  SEGDB_IO_BOUND("scan");
  geom::Segment g = Canonical(segment);
  SEGDB_RETURN_IF_ERROR(ValidateInput(g));
  return InsertCanonical(g);
}

Status LinePst::RebuildAll() {
  // Repack by building the packed replacement first; the old tree is freed
  // only once the build has fully succeeded, so a faulted repack leaves
  // the (valid, merely unpacked) tree in place.
  std::vector<geom::Segment> all;
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(CollectSubtree(root_, &all));
  }
  const uint64_t n = all.size();
  io::PageId new_root = io::kInvalidPageId;
  if (!all.empty()) {
    std::sort(all.begin(), all.end(),
              [&](const geom::Segment& a, const geom::Segment& b) {
                return BaseCompare(a, b) < 0;
              });
    int64_t reach = 0;
    Result<io::PageId> root = BuildSubtree(all, &reach);
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  }
  root_ = new_root;
  size_ = n;
  packed_size_ = n;
  return Status::OK();
}

Status LinePst::Erase(const geom::Segment& segment) {
  // Amortized O(log_B n): the locate/rewrite passes are height-bounded,
  // but the half-empty density trigger repacks the whole tree.
  SEGDB_IO_BOUND("scan");
  const geom::Segment g = Canonical(segment);
  SEGDB_RETURN_IF_ERROR(ValidateInput(g));
  if (root_ == io::kInvalidPageId) return Status::NotFound("empty PST");

  // Pass 1: locate the owning node without mutating anything. The target
  // can sit in any node on the base-order routing path (ancestors hold
  // their subtree's far-reaching segments).
  struct Step {
    io::PageId node;
    uint32_t child_slot;  // slot taken to continue (undefined for last)
  };
  std::vector<Step> path;
  io::PageId found_node = io::kInvalidPageId;
  uint32_t found_slot = 0;
  io::PageId cur = root_;
  while (cur != io::kInvalidPageId) {
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    const io::ConstColumnarPageView view(p, RegionOff(), cap_);
    // Binary search the node's base-ordered array for the exact segment.
    uint32_t lo = 0, hi = hdr.count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      const geom::Segment s = view.Get(mid);
      const int c = BaseCompare(s, g);
      if (c < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < hdr.count && BaseCompare(view.Get(lo), g) == 0) {
      found_node = cur;
      found_slot = lo;
      path.push_back(Step{cur, 0});
      break;
    }
    if (hdr.num_children == 0) break;
    uint32_t j = 0;
    for (uint32_t i = 1; i < hdr.num_children; ++i) {
      const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      if (BaseCompare(g, sep) >= 0) {
        j = i;
      } else {
        break;
      }
    }
    path.push_back(Step{cur, j});
    cur = p.ReadAt<io::PageId>(ChildOff(j));
  }
  if (found_node == io::kInvalidPageId) {
    return Status::NotFound("segment not stored");
  }

  // Pass 2: remove the record and fix the bookkeeping along the path.
  for (size_t i = 0; i < path.size(); ++i) {
    auto ref = pool_->Fetch(path[i].node);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    --hdr.subtree_size;
    if (path[i].node == found_node) {
      std::vector<geom::Segment> segs(hdr.count);
      io::ColumnarPageView view(&p, RegionOff(), cap_);
      view.ReadRange(0, segs.data(), hdr.count);
      segs.erase(segs.begin() + found_slot);
      --hdr.count;
      view.WriteRange(0, segs.data(), hdr.count);
      p.WriteAt<NodeHeader>(0, hdr);
      ref.value().MarkDirty();
      break;
    }
    p.WriteAt<NodeHeader>(0, hdr);
    p.WriteAt<uint64_t>(ChildSizeOff(path[i].child_slot),
                        p.ReadAt<uint64_t>(ChildSizeOff(path[i].child_slot)) -
                            1);
    ref.value().MarkDirty();
  }
  --size_;

  // Repack once half the packed content is gone (amortized O(1) page
  // writes per deletion); an empty tree releases everything. A faulted
  // repack is absorbed, not surfaced: the removal above already succeeded
  // and the tree is still valid (RebuildAll keeps the old tree on
  // failure), so the erase reports success and the still-true density
  // trigger re-runs the repack on a later erase.
  if (size_ == 0 || (packed_size_ >= 2 && size_ * 2 < packed_size_)) {
    RebuildAll().IgnoreError();
  }
  return Status::OK();
}

Status LinePst::InsertCanonical(geom::Segment g) {
  // Two-phase insert, for fault atomicity. Phase 1 walks the tree
  // READ-ONLY and decides the terminal action: insert into a non-full
  // node, open a fresh child page, or rebuild an overgrown subtree. Every
  // operation that can fail on the simulated device — the child-page
  // allocation, the replacement-subtree build — then runs BEFORE phase 2
  // re-walks the same (unchanged) path applying header increments, heap
  // push-down swaps and child bookkeeping. A failure therefore surfaces
  // while the index is still byte-for-byte in its pre-insert state, so a
  // faulted insert is audit-clean and simply retryable.
  if (root_ == io::kInvalidPageId) {
    auto ref = pool_->NewPage();
    if (!ref.ok()) return ref.status();
    ++page_count_;
    io::Page& p = ref.value().page();
    NodeHeader hdr;
    hdr.count = 1;
    hdr.num_children = 0;
    hdr.subtree_size = 1;
    p.WriteAt<NodeHeader>(0, hdr);
    io::ColumnarPageView(&p, RegionOff(), cap_).Set(0, g);
    ref.value().MarkDirty();
    root_ = ref.value().page_id();
    ++size_;
    return Status::OK();
  }

  const auto base_less = [&](const geom::Segment& a, const geom::Segment& b) {
    return BaseCompare(a, b) < 0;
  };
  // Heap push-down at a full node: if *carry out-reaches the weakest
  // stored segment it takes its slot and the weakest continues down.
  const auto apply_swap = [&](io::Page* p, const NodeHeader& hdr,
                              geom::Segment* carry) {
    std::vector<geom::Segment> segs(hdr.count);
    io::ColumnarPageView view(p, RegionOff(), cap_);
    view.ReadRange(0, segs.data(), hdr.count);
    uint32_t min_idx = 0;
    for (uint32_t i = 1; i < hdr.count; ++i) {
      if (Reach(segs[i]) < Reach(segs[min_idx])) min_idx = i;
    }
    if (Reach(*carry) > Reach(segs[min_idx])) {
      const geom::Segment evicted = segs[min_idx];
      segs.erase(segs.begin() + min_idx);
      segs.insert(std::lower_bound(segs.begin(), segs.end(), *carry,
                                   base_less),
                  *carry);
      view.WriteRange(0, segs.data(), hdr.count);
      *carry = evicted;
    }
  };

  // --- Phase 1: read-only probe. ------------------------------------------
  enum class Action { kInsertHere, kOpenChild, kRebuild };
  Action action = Action::kInsertHere;
  std::vector<io::PageId> path;  // root ... terminal node
  std::vector<uint32_t> slots;   // child slot taken from path[i]
  geom::Segment probe = g;       // value carried down (after swaps)
  geom::Segment arrival = g;     // value as it arrives at the terminal node
  {
    io::PageId cur = root_;
    for (;;) {
      arrival = probe;
      path.push_back(cur);
      auto ref = pool_->Fetch(cur);
      if (!ref.ok()) return ref.status();
      const io::Page& p = ref.value().page();
      const NodeHeader hdr = p.ReadAt<NodeHeader>(0);

      // BB[alpha]-style partial rebuilding: when one child subtree has
      // grown past its tolerated share, rebuild this whole subtree packed.
      // The trigger depends only on this node's child sizes, which phase 2
      // has not touched yet, so both phases agree on the decision.
      if (hdr.num_children > 0) {
        uint64_t below = 0;
        uint64_t max_child = 0;
        for (uint32_t i = 0; i < hdr.num_children; ++i) {
          const uint64_t cs = p.ReadAt<uint64_t>(ChildSizeOff(i));
          below += cs;
          max_child = std::max(max_child, cs);
        }
        const double share =
            static_cast<double>(below) / static_cast<double>(hdr.num_children);
        const double limit = cap_ + kImbalance * share;
        if (below >= 2 * static_cast<uint64_t>(cap_) &&
            static_cast<double>(max_child) > limit) {
          action = Action::kRebuild;
          break;
        }
      }
      if (hdr.count < cap_) {
        action = Action::kInsertHere;
        break;
      }
      // Full node: compute the displaced value without writing it.
      std::vector<geom::Segment> segs(hdr.count);
      io::ConstColumnarPageView(p, RegionOff(), cap_)
          .ReadRange(0, segs.data(), hdr.count);
      uint32_t min_idx = 0;
      for (uint32_t i = 1; i < hdr.count; ++i) {
        if (Reach(segs[i]) < Reach(segs[min_idx])) min_idx = i;
      }
      if (Reach(probe) > Reach(segs[min_idx])) probe = segs[min_idx];
      if (hdr.num_children == 0) {
        action = Action::kOpenChild;
        break;
      }
      uint32_t j = 0;
      for (uint32_t i = 1; i < hdr.num_children; ++i) {
        const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
        if (BaseCompare(probe, sep) >= 0) {
          j = i;
        } else {
          break;
        }
      }
      slots.push_back(j);
      cur = p.ReadAt<io::PageId>(ChildOff(j));
    }
  }
  SEGDB_DCHECK(slots.size() + 1 == path.size());

  // --- Phase 2a: subtree rebuild. -----------------------------------------
  if (action == Action::kRebuild) {
    const io::PageId target = path.back();
    std::vector<geom::Segment> all;
    SEGDB_RETURN_IF_ERROR(CollectSubtree(target, &all));
    all.push_back(arrival);
    std::sort(all.begin(), all.end(), base_less);
    // Build the replacement before freeing the old subtree or touching any
    // ancestor: a faulted build unwinds itself and the insert is a no-op.
    int64_t reach = 0;
    Result<io::PageId> rebuilt = BuildSubtree(all, &reach);
    if (!rebuilt.ok()) return rebuilt.status();
    SEGDB_RETURN_IF_ERROR(FreeSubtree(target));
    // Ancestor bookkeeping and displacement swaps, root to parent. Every
    // ancestor is a full routed node (the descent only passes full nodes).
    geom::Segment carry = g;
    for (size_t d = 0; d + 1 < path.size(); ++d) {
      auto ref = pool_->Fetch(path[d]);
      if (!ref.ok()) return ref.status();
      io::Page& p = ref.value().page();
      NodeHeader hdr = p.ReadAt<NodeHeader>(0);
      ++hdr.subtree_size;
      p.WriteAt<NodeHeader>(0, hdr);
      apply_swap(&p, hdr, &carry);
      const uint32_t j = slots[d];
      p.WriteAt<uint64_t>(ChildSizeOff(j),
                          p.ReadAt<uint64_t>(ChildSizeOff(j)) + 1);
      if (Reach(carry) > p.ReadAt<int64_t>(ReachOff(j))) {
        p.WriteAt<int64_t>(ReachOff(j), Reach(carry));
      }
      ref.value().MarkDirty();
    }
    if (path.size() == 1) {
      root_ = rebuilt.value();
    } else {
      auto pref = pool_->Fetch(path[path.size() - 2]);
      if (!pref.ok()) return pref.status();
      io::Page& pp = pref.value().page();
      const uint32_t pslot = slots[path.size() - 2];
      pp.WriteAt<io::PageId>(ChildOff(pslot), rebuilt.value());
      pp.WriteAt<int64_t>(ReachOff(pslot), reach);
      pref.value().MarkDirty();
    }
    ++size_;
    return Status::OK();
  }

  // --- Phase 2b: pre-allocate, then apply. --------------------------------
  io::PageId fresh_child = io::kInvalidPageId;
  if (action == Action::kOpenChild) {
    // The only page this insert can need, allocated before any mutation;
    // `probe` is the final displaced value the new child will hold.
    auto cref = pool_->NewPage();
    if (!cref.ok()) return cref.status();
    ++page_count_;
    io::Page& cp = cref.value().page();
    NodeHeader chdr;
    chdr.count = 1;
    chdr.num_children = 0;
    chdr.subtree_size = 1;
    cp.WriteAt<NodeHeader>(0, chdr);
    io::ColumnarPageView(&cp, RegionOff(), cap_).Set(0, probe);
    cref.value().MarkDirty();
    fresh_child = cref.value().page_id();
  }

  geom::Segment carry = g;
  for (size_t d = 0; d < path.size(); ++d) {
    auto ref = pool_->Fetch(path[d]);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    ++hdr.subtree_size;
    p.WriteAt<NodeHeader>(0, hdr);
    ref.value().MarkDirty();

    if (d + 1 == path.size()) {
      if (action == Action::kInsertHere) {
        SEGDB_DCHECK(hdr.count < cap_);
        std::vector<geom::Segment> segs(hdr.count);
        io::ColumnarPageView view(&p, RegionOff(), cap_);
        view.ReadRange(0, segs.data(), hdr.count);
        segs.insert(
            std::lower_bound(segs.begin(), segs.end(), carry, base_less),
            carry);
        hdr.count += 1;
        p.WriteAt<NodeHeader>(0, hdr);
        view.WriteRange(0, segs.data(), hdr.count);
      } else {
        // Open the first child with the displaced segment.
        apply_swap(&p, hdr, &carry);
        hdr.num_children = 1;
        p.WriteAt<NodeHeader>(0, hdr);
        p.WriteAt<io::PageId>(ChildOff(0), fresh_child);
        p.WriteAt<uint64_t>(ChildSizeOff(0), 1);
        p.WriteAt<int64_t>(ReachOff(0), Reach(carry));
      }
      ++size_;
      return Status::OK();
    }

    // Interior step: full node that routes `carry` onward.
    apply_swap(&p, hdr, &carry);
    const uint32_t j = slots[d];
    p.WriteAt<uint64_t>(ChildSizeOff(j),
                        p.ReadAt<uint64_t>(ChildSizeOff(j)) + 1);
    if (Reach(carry) > p.ReadAt<int64_t>(ReachOff(j))) {
      p.WriteAt<int64_t>(ReachOff(j), Reach(carry));
    }
  }
  return Status::Internal("InsertCanonical: fell off the apply walk");
}

namespace {

// Mutable query state shared by the Find walks and the Report traversal:
// the fences are witness segments proven to pass strictly below / above
// the query range; any subtree base-order-dominated by a fence is pruned.
struct QueryState {
  bool have_lf = false, have_rf = false;
  geom::Segment lf{}, rf{};
};

// A node the Find walks scanned, and where its in-range hits sit in the
// walks' hit buffer.
struct WalkScan {
  io::PageId id;
  uint32_t begin, end;
};

// Two root-to-leaf walks scan at most 2 * height nodes. In a deeper tree
// Report re-scans the walk nodes past this many.
constexpr uint32_t kMaxWalkScans = 64;

}  // namespace

Status LinePst::Query(int64_t qx, int64_t ylo, int64_t yhi,
                      std::vector<geom::Segment>* out) const {
  SEGDB_IO_BOUND("log", "t/B");  // the external PST bound (Section 2)
  if (ylo > yhi) return Status::InvalidArgument("ylo > yhi");
  if (direction_ == Direction::kRight ? qx < base_x_ : qx > base_x_) {
    return Status::InvalidArgument(
        "query abscissa lies outside the stored half-plane");
  }
  if (root_ == io::kInvalidPageId) return Status::OK();
  const int64_t cqx =
      direction_ == Direction::kRight ? qx : 2 * base_x_ - qx;

  QueryState st;
  // One branchless kernel pass classifies every stored segment of a node
  // against (cqx, [ylo, yhi]). Stored segments satisfy x1 <= base_x <= cqx,
  // so the kernel's span test x1 <= cqx <= x2 is exactly the old
  // "Reach(s) < cqx" skip; below/in-range/above reproduce the CompareYAtX
  // signs (filter_kernel.h). Below/above lanes tighten the fences with the
  // same BaseCompare max/min as before; in-range lanes are bulk-gathered
  // into *hits (when given) instead of being push_back-ed one at a time.
  auto scan_node = [&](const io::Page& p, const NodeHeader& hdr,
                       std::vector<geom::Segment>* hits) {
    const io::ConstColumnarPageView view(p, RegionOff(), cap_);
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    uint8_t* cls = scratch.ReserveClasses(hdr.count);
    geom::ActiveFilterKernel().classify_vs(view.strips(), hdr.count, cqx,
                                           ylo, yhi, cls);
    uint32_t* idx = hits != nullptr ? scratch.ReserveIndices(hdr.count)
                                    : nullptr;
    uint32_t num_hits = 0;
    for (uint32_t i = 0; i < hdr.count; ++i) {
      switch (cls[i]) {
        case geom::kLaneBelow: {
          const geom::Segment s = view.Get(i);
          if (!st.have_lf || BaseCompare(s, st.lf) > 0) {
            st.lf = s;
            st.have_lf = true;
          }
          break;
        }
        case geom::kLaneAbove: {
          const geom::Segment s = view.Get(i);
          if (!st.have_rf || BaseCompare(s, st.rf) < 0) {
            st.rf = s;
            st.have_rf = true;
          }
          break;
        }
        case geom::kLaneInRange:
          if (hits != nullptr) idx[num_hits++] = i;
          break;
        default:
          break;
      }
    }
    if (num_hits > 0) {
      const size_t first = hits->size();
      view.AppendMatches(idx, num_hits, hits);
      if (direction_ == Direction::kLeft) {
        for (size_t j = first; j < hits->size(); ++j) {
          (*hits)[j] = Original((*hits)[j]);
        }
      }
    }
  };
  // Each node is scanned once per query. The walks keep the in-range hits
  // of every node they scan; the second walk skips the nodes the first one
  // scanned, and Report appends the kept hits. Fence updates are monotone
  // max/min, so skipping a repeat scan changes no fence, answer, order or
  // fetch.
  std::array<WalkScan, kMaxWalkScans> walk_scans{};
  uint32_t num_walk_scans = 0;
  std::vector<geom::Segment> walk_hits;
  auto find_walk_scan = [&](io::PageId id) -> const WalkScan* {
    for (uint32_t i = 0; i < num_walk_scans; ++i) {
      if (walk_scans[i].id == id) return &walk_scans[i];
    }
    return nullptr;
  };
  // Prune test shared by every traversal: may child i of this page hold a
  // segment that is neither fence-dominated nor unreachable?
  auto child_admissible = [&](const io::Page& p, const NodeHeader& hdr,
                              uint32_t i) {
    // Nothing below reaches the query.
    if (p.ReadAt<int64_t>(ReachOff(i)) < cqx) return false;
    if (st.have_lf && i + 1 < hdr.num_children) {
      // Child i's contents precede sep[i] in base order; at or before the
      // left fence means everything reaching passes below the range.
      const geom::Segment hi_sep = p.ReadAt<geom::Segment>(SepOff(i));
      if (BaseCompare(hi_sep, st.lf) <= 0) return false;
    }
    if (st.have_rf && i >= 1) {
      const geom::Segment lo_sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      if (BaseCompare(lo_sep, st.rf) >= 0) return false;
    }
    return true;
  };

  // --- Find (paper's Find function, fence-walk form) ---------------------
  // Two root-to-leaf walks chase the answer run's two base-order
  // boundaries, scanning only the nodes on the walk. Each scanned node
  // tightens a fence; afterwards the fences bracket the answer run to
  // within one walk-path, so the Report traversal below prunes everything
  // else. `toward_left` walks at the left (below->in-range) boundary by
  // following the child containing the current left fence; the right walk
  // is symmetric.
  auto fence_walk = [&](bool toward_left) -> Status {
    io::PageId cur = root_;
    while (cur != io::kInvalidPageId) {
      auto ref = pool_->Fetch(cur);
      if (!ref.ok()) return ref.status();
      const io::Page& p = ref.value().page();
      const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
      if (find_walk_scan(cur) == nullptr) {
        if (num_walk_scans < kMaxWalkScans) {
          const auto begin = static_cast<uint32_t>(walk_hits.size());
          scan_node(p, hdr, &walk_hits);
          walk_scans[num_walk_scans++] = WalkScan{
              cur, begin, static_cast<uint32_t>(walk_hits.size())};
        } else {
          scan_node(p, hdr, nullptr);
        }
      }
      // Descend toward the answer run's boundary. Separators are real
      // segments: whenever one reaches the query abscissa its side of the
      // range is decidable exactly; otherwise the current fence decides.
      io::PageId next = io::kInvalidPageId;
      if (hdr.num_children > 0) {
        uint32_t j;
        if (toward_left) {
          // Last child whose lower separator is still below the range
          // (or fence-dominated); the below->in transition lies there.
          j = 0;
          for (uint32_t i = 1; i < hdr.num_children; ++i) {
            const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
            if (Reach(sep) >= cqx) {
              if (geom::CompareYAtX(sep, cqx, ylo) < 0) {
                j = i;
              } else {
                break;
              }
            } else if (st.have_lf && BaseCompare(st.lf, sep) >= 0) {
              j = i;
            }
          }
        } else {
          // First child whose upper separator is already above the range
          // (or fence-dominated); the in->above transition lies there.
          j = hdr.num_children - 1;
          for (uint32_t i = 0; i + 1 < hdr.num_children; ++i) {
            const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i));
            if (Reach(sep) >= cqx) {
              if (geom::CompareYAtX(sep, cqx, yhi) > 0) {
                j = i;
                break;
              }
            } else if (st.have_rf && BaseCompare(st.rf, sep) <= 0) {
              j = i;
              break;
            }
          }
        }
        if (child_admissible(p, hdr, j)) {
          next = p.ReadAt<io::PageId>(ChildOff(j));
        }
      }
      cur = next;
    }
    return Status::OK();
  };
  SEGDB_RETURN_IF_ERROR(fence_walk(/*toward_left=*/true));
  SEGDB_RETURN_IF_ERROR(fence_walk(/*toward_left=*/false));

  // --- Report (fence-pruned traversal, left-to-right) --------------------
  std::vector<io::PageId> stack = {root_};
  while (!stack.empty()) {
    const io::PageId id = stack.back();
    stack.pop_back();
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    if (const WalkScan* w = find_walk_scan(id)) {
      out->insert(out->end(), walk_hits.begin() + w->begin,
                  walk_hits.begin() + w->end);
    } else {
      scan_node(p, hdr, out);
    }
    for (uint32_t i = hdr.num_children; i > 0; --i) {
      if (child_admissible(p, hdr, i - 1)) {
        stack.push_back(p.ReadAt<io::PageId>(ChildOff(i - 1)));
      }
    }
  }
  return Status::OK();
}

Status LinePst::CheckSubtree(io::PageId id, const geom::Segment* lo,
                             const geom::Segment* hi, int64_t max_reach,
                             uint64_t* subtree_size) const {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
  // count == 0 is legal after deletions (repack reclaims such nodes).
  if (hdr.count > cap_) return Status::Corruption("PST node overflow");
  if (hdr.num_children > fanout_) {
    return Status::Corruption("PST node child overflow");
  }

  std::vector<geom::Segment> segs(hdr.count);
  io::ConstColumnarPageView(p, RegionOff(), cap_)
      .ReadRange(0, segs.data(), hdr.count);
  for (uint32_t i = 0; i < hdr.count; ++i) {
    if (i > 0 && BaseCompare(segs[i - 1], segs[i]) > 0) {
      return Status::Corruption("PST node segments out of base order");
    }
    if (Reach(segs[i]) > max_reach) {
      return Status::Corruption("segment out-reaches its parent's child reach");
    }
    if (lo != nullptr && BaseCompare(segs[i], *lo) < 0) {
      return Status::Corruption("segment below subtree separator bound");
    }
    if (hi != nullptr && BaseCompare(segs[i], *hi) >= 0) {
      return Status::Corruption("segment above subtree separator bound");
    }
  }

  uint64_t total = hdr.count;
  for (uint32_t i = 0; i < hdr.num_children; ++i) {
    const io::PageId child = p.ReadAt<io::PageId>(ChildOff(i));
    geom::Segment lo_sep, hi_sep;
    const geom::Segment* clo = lo;
    const geom::Segment* chi = hi;
    if (i >= 1) {
      lo_sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      clo = &lo_sep;
    }
    if (i + 1 < hdr.num_children) {
      hi_sep = p.ReadAt<geom::Segment>(SepOff(i));
      chi = &hi_sep;
    }
    uint64_t child_total = 0;
    SEGDB_RETURN_IF_ERROR(
        CheckSubtree(child, clo, chi, p.ReadAt<int64_t>(ReachOff(i)),
                     &child_total));
    if (child_total != p.ReadAt<uint64_t>(ChildSizeOff(i))) {
      return Status::Corruption("stale child_size bookkeeping");
    }
    total += child_total;
  }
  if (total != hdr.subtree_size) {
    return Status::Corruption("stale subtree_size bookkeeping");
  }
  *subtree_size = total;
  return Status::OK();
}

Status LinePst::CheckInvariants() const {
  if (root_ == io::kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("size_ nonzero with empty tree");
  }
  uint64_t total = 0;
  SEGDB_RETURN_IF_ERROR(CheckSubtree(root_, nullptr, nullptr,
                                     std::numeric_limits<int64_t>::max(),
                                     &total));
  if (total != size_) return Status::Corruption("size_ mismatch");
  return Status::OK();
}

}  // namespace segdb::pst
