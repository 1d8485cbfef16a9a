#include "core/two_level_index.h"

#include <algorithm>
#include <unordered_set>

#include "geom/filter_kernel.h"
#include "io/columnar_page_view.h"
#include "util/check.h"

namespace segdb::core {

namespace {

using geom::Segment;

// Leaf page layout: [u32 count][columnar strips of `count` segments].
constexpr uint32_t kLeafHeader = 8;

// First (lowest-index) and last boundary touched by s; false when s
// touches none.
bool TouchedRange(const std::vector<int64_t>& boundaries, const Segment& s,
                  uint32_t* first, uint32_t* last) {
  auto lo = std::lower_bound(boundaries.begin(), boundaries.end(), s.x1);
  auto hi = std::upper_bound(boundaries.begin(), boundaries.end(), s.x2);
  if (lo >= hi) return false;
  *first = static_cast<uint32_t>(lo - boundaries.begin());
  *last = static_cast<uint32_t>(hi - boundaries.begin()) - 1;
  return true;
}

// The slab holding x strictly inside (for a segment that touches no
// boundary, the slab of either endpoint).
uint32_t SlabOf(const std::vector<int64_t>& boundaries, int64_t x) {
  return static_cast<uint32_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), x) -
      boundaries.begin());
}

bool OnBoundary(const std::vector<int64_t>& boundaries, int64_t x) {
  return std::binary_search(boundaries.begin(), boundaries.end(), x);
}

// Puts the order statistics of xs[lo, hi) at the (sorted, distinct)
// ranks[rlo, rhi) in place, as a full sort would: one std::nth_element
// per rank on a range that halves with the rank count, O(|xs| log b).
void SelectRanks(std::vector<int64_t>* xs, size_t lo, size_t hi,
                 const std::vector<size_t>& ranks, size_t rlo, size_t rhi) {
  if (rlo >= rhi) return;
  const size_t mid = rlo + (rhi - rlo) / 2;
  std::nth_element(xs->begin() + lo, xs->begin() + ranks[mid],
                   xs->begin() + hi);
  SelectRanks(xs, lo, ranks[mid], ranks, rlo, mid);
  SelectRanks(xs, ranks[mid] + 1, hi, ranks, mid + 1, rhi);
}

// The node's b boundaries: the distinct endpoint x-coordinates at ranks
// |xs|·i/(b+1), i = 1..b. Each slab then holds strictly inside it at most
// half the endpoints, so no child receives more than half the segments.
// For b = 1 this is Section 3's median base line.
std::vector<int64_t> SplitBoundaries(const std::vector<Segment>& segments,
                                     uint32_t b) {
  std::vector<int64_t> xs;
  xs.reserve(2 * segments.size());
  for (const Segment& s : segments) {
    xs.push_back(s.x1);
    xs.push_back(s.x2);
  }
  std::vector<size_t> ranks;
  for (uint32_t i = 1; i <= b; ++i) {
    const size_t pos =
        static_cast<size_t>(static_cast<uint64_t>(xs.size()) * i / (b + 1));
    if (ranks.empty() || ranks.back() != pos) ranks.push_back(pos);
  }
  SelectRanks(&xs, 0, xs.size(), ranks, 0, ranks.size());
  std::vector<int64_t> boundaries;
  for (size_t pos : ranks) {
    if (boundaries.empty() || boundaries.back() < xs[pos]) {
      boundaries.push_back(xs[pos]);
    }
  }
  return boundaries;
}

}  // namespace

TwoLevelIndex::TwoLevelIndex(io::BufferPool* pool, Config config)
    : pool_(pool), config_(config) {
  SEGDB_DCHECK(config_.fanout >= 1);
}

TwoLevelIndex::~TwoLevelIndex() {
  if (root_ >= 0) FreeSubtree(root_).IgnoreError();
}

uint32_t TwoLevelIndex::LeafCapacity() const {
  if (config_.leaf_capacity != 0) return config_.leaf_capacity;
  return io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
}

pst::LinePstOptions TwoLevelIndex::PstOptions() const {
  pst::LinePstOptions o;
  o.fanout = config_.pst_fanout;
  return o;
}

segtree::MultislabOptions TwoLevelIndex::GOptions() const {
  segtree::MultislabOptions o;
  o.fractional_cascading = config_.fractional_cascading;
  return o;
}

Status TwoLevelIndex::WriteLeafPages(Node* node) {
  // Allocate-then-swap: the replacement pages are fully materialized before
  // the old ones are freed, so a failed allocation mid-way (e.g. an
  // injected fault) releases the partial batch and leaves the node's pages
  // — and hence every query — exactly as they were. The old free-first
  // order silently truncated query results after a mid-write failure.
  const uint32_t per_page =
      io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
  std::vector<io::PageId> fresh;
  size_t i = 0;
  while (i < node->leaf_segments.size()) {
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(per_page, node->leaf_segments.size() - i));
    auto ref = pool_->NewPage();
    if (!ref.ok()) {
      for (io::PageId id : fresh) pool_->FreePage(id).IgnoreError();
      return ref.status();
    }
    io::Page& p = ref.value().page();
    p.WriteAt<uint32_t>(0, take);
    // Columnar strips sized to the record count; large runs bit-pack below
    // the row-major footprint, which is where the higher per_page comes from.
    io::ColumnarPageView(&p, kLeafHeader, take)
        .WriteRange(0, node->leaf_segments.data() + i, take);
    ref.value().MarkDirty();
    fresh.push_back(ref.value().page_id());
    i += take;
  }
  for (io::PageId id : node->leaf_pages) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));  // reliable metadata op
  }
  node->leaf_pages = std::move(fresh);
  return Status::OK();
}

int32_t TwoLevelIndex::AllocNode() {
  if (!free_nodes_.empty()) {
    const int32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[idx] = Node{};
    return idx;
  }
  const int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  return idx;
}

Result<int32_t> TwoLevelIndex::BuildSubtree(std::vector<Segment> segments) {
  SEGDB_DCHECK(!segments.empty());
  const int32_t idx = AllocNode();
  Status built = BuildSubtreeAt(idx, std::move(segments));
  if (!built.ok()) {
    // Unwind the partial build: FreeSubtree releases exactly what was
    // attached before the failure (children recurse, unset fields are
    // skipped). FreePage is reliable, and the PSTs keep their shape in
    // memory, so the unwind itself cannot fault on the simulated device.
    FreeSubtree(idx).IgnoreError();
    return built;
  }
  return idx;
}

Status TwoLevelIndex::BuildSubtreeAt(int32_t idx,
                                     std::vector<Segment> segments) {
  {
    auto meta = pool_->NewPage();
    if (!meta.ok()) return meta.status();
    meta.value().MarkDirty();
    nodes_[idx].meta_page = meta.value().page_id();
  }
  nodes_[idx].subtree_size = segments.size();

  if (segments.size() <= LeafCapacity()) {
    nodes_[idx].is_leaf = true;
    nodes_[idx].leaf_segments = std::move(segments);
    return WriteLeafPages(&nodes_[idx]);
  }

  const std::vector<int64_t> boundaries =
      SplitBoundaries(segments, config_.fanout);
  const size_t b = boundaries.size();
  nodes_[idx].boundaries = boundaries;
  nodes_[idx].per_boundary.resize(b);
  nodes_[idx].children.assign(b + 1, -1);

  // Route every segment.
  std::vector<std::vector<Segment>> per_slab(b + 1);
  std::vector<std::vector<pst::PointRecord>> c_points(b);
  std::vector<std::vector<Segment>> l_sets(b);
  std::vector<std::vector<Segment>> r_sets(b);
  std::vector<Segment> long_set;
  for (const Segment& s : segments) {
    uint32_t first, last;
    if (!TouchedRange(boundaries, s, &first, &last)) {
      per_slab[SlabOf(boundaries, s.x1)].push_back(s);
      continue;
    }
    if (s.is_vertical()) {
      // On the boundary line (a vertical segment touches a boundary only
      // when x1 == boundaries[first]).
      c_points[first].push_back(pst::PointRecord{s.y1, s.y2, s.id});
      continue;
    }
    if (s.x1 < boundaries[first]) l_sets[first].push_back(s);
    if (s.x2 > boundaries[last]) r_sets[last].push_back(s);
    if (last > first) long_set.push_back(s);
  }
  segments.clear();

  // Second-level structures are attached to the node before loading, so
  // if a load faults mid-way, FreeSubtree's unwind reaches the structure
  // and Clear()s whatever it managed to build.
  for (size_t i = 0; i < b; ++i) {
    BoundaryStructs& bs = nodes_[idx].per_boundary[i];
    if (!c_points[i].empty()) {
      bs.c = std::make_unique<pst::PointPst>(pool_, PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.c->BulkLoad(c_points[i]));
    }
    if (!l_sets[i].empty()) {
      bs.l = std::make_unique<pst::LinePst>(pool_, boundaries[i],
                                            pst::Direction::kLeft,
                                            PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.l->BulkLoad(l_sets[i]));
    }
    if (!r_sets[i].empty()) {
      bs.r = std::make_unique<pst::LinePst>(pool_, boundaries[i],
                                            pst::Direction::kRight,
                                            PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.r->BulkLoad(r_sets[i]));
    }
  }
  if (!long_set.empty()) {
    nodes_[idx].g = std::make_unique<segtree::MultislabSegmentTree>(
        pool_, boundaries, GOptions());
    SEGDB_RETURN_IF_ERROR(nodes_[idx].g->Build(long_set));
  }
  for (size_t k = 0; k <= b; ++k) {
    if (per_slab[k].empty()) continue;
    SEGDB_DCHECK(per_slab[k].size() < nodes_[idx].subtree_size);
    // Recursive builds self-clean on failure; finished children hang off
    // nodes_[idx].children and are released by the caller's unwind.
    Result<int32_t> child = BuildSubtree(std::move(per_slab[k]));
    if (!child.ok()) return child.status();
    nodes_[idx].children[k] = child.value();
  }
  return Status::OK();
}

Status TwoLevelIndex::FreeSubtree(int32_t idx) {
  Node& node = nodes_[idx];
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(FreeSubtree(child));
  }
  for (BoundaryStructs& bs : node.per_boundary) {
    if (bs.c) SEGDB_RETURN_IF_ERROR(bs.c->Clear());
    if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Clear());
    if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->Clear());
  }
  if (node.g) SEGDB_RETURN_IF_ERROR(node.g->Clear());
  for (io::PageId id : node.leaf_pages) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  }
  if (node.meta_page != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(node.meta_page));
  }
  nodes_[idx] = Node{};
  free_nodes_.push_back(idx);
  return Status::OK();
}

Status TwoLevelIndex::CollectSubtree(int32_t idx,
                                     std::vector<Segment>* out) const {
  const Node& node = nodes_[idx];
  if (node.is_leaf) {
    out->insert(out->end(), node.leaf_segments.begin(),
                node.leaf_segments.end());
    return Status::OK();
  }
  // A crossing segment may live in an L, an R and G; each is collected
  // from the first of them it is in: all of L_i, the R_i members whose
  // left end is on a boundary (no L holds them), and the G members with
  // both ends on boundaries (neither an L nor an R holds them).
  for (size_t i = 0; i < node.per_boundary.size(); ++i) {
    const BoundaryStructs& bs = node.per_boundary[i];
    if (bs.c) {
      std::vector<pst::PointRecord> points;
      SEGDB_RETURN_IF_ERROR(bs.c->CollectAll(&points));
      for (const auto& p : points) {
        out->push_back(Segment::Make({node.boundaries[i], p.x},
                                     {node.boundaries[i], p.y}, p.id));
      }
    }
    if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->CollectAll(out));
    if (bs.r) {
      std::vector<Segment> rs;
      SEGDB_RETURN_IF_ERROR(bs.r->CollectAll(&rs));
      for (const Segment& s : rs) {
        if (OnBoundary(node.boundaries, s.x1)) out->push_back(s);
      }
    }
  }
  if (node.g) {
    std::vector<Segment> gs;
    SEGDB_RETURN_IF_ERROR(node.g->CollectAll(&gs));
    for (const Segment& s : gs) {
      if (OnBoundary(node.boundaries, s.x1) &&
          OnBoundary(node.boundaries, s.x2)) {
        out->push_back(s);
      }
    }
  }
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(CollectSubtree(child, out));
  }
  return Status::OK();
}

Status TwoLevelIndex::BulkLoad(std::span<const Segment> segments) {
  SEGDB_IO_BOUND("scan");
  // Build the replacement tree before freeing the old one: a load that
  // faults mid-build leaves the previous contents fully intact (the
  // partial build unwinds itself), so a failed BulkLoad is a no-op.
  int32_t new_root = -1;
  if (!segments.empty()) {
    Result<int32_t> root =
        BuildSubtree(std::vector<Segment>(segments.begin(), segments.end()));
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ >= 0) SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  root_ = new_root;
  size_ = segments.size();
  return Status::OK();
}

Status TwoLevelIndex::InsertAtNode(int32_t idx, const Segment& s) {
  Node& node = nodes_[idx];
  uint32_t first, last;
  if (!TouchedRange(node.boundaries, s, &first, &last)) {
    return Status::Internal("InsertAtNode: segment touches no boundary");
  }
  if (s.is_vertical()) {
    BoundaryStructs& bs = node.per_boundary[first];
    if (!bs.c) bs.c = std::make_unique<pst::PointPst>(pool_, PstOptions());
    return bs.c->Insert(pst::PointRecord{s.y1, s.y2, s.id});
  }
  // A crossing segment enters up to three structures (L, R, G) together or
  // not at all — the audit matches them by id. On a failure partway
  // through, the halves already applied are rolled back; the rollbacks are
  // pure removals of the just-inserted record, so they cannot themselves
  // hit an injected allocation fault.
  const bool into_l = s.x1 < node.boundaries[first];
  const bool into_r = s.x2 > node.boundaries[last];
  if (into_l) {
    BoundaryStructs& bs = node.per_boundary[first];
    if (!bs.l) {
      bs.l = std::make_unique<pst::LinePst>(
          pool_, node.boundaries[first], pst::Direction::kLeft, PstOptions());
    }
    SEGDB_RETURN_IF_ERROR(bs.l->Insert(s));
  }
  if (into_r) {
    BoundaryStructs& bs = node.per_boundary[last];
    if (!bs.r) {
      bs.r = std::make_unique<pst::LinePst>(
          pool_, node.boundaries[last], pst::Direction::kRight, PstOptions());
    }
    const Status right = bs.r->Insert(s);
    if (!right.ok()) {
      if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
      return right;
    }
  }
  if (last > first) {
    if (!node.g) {
      node.g = std::make_unique<segtree::MultislabSegmentTree>(
          pool_, node.boundaries, GOptions());
      const Status built = node.g->Build({});
      if (!built.ok()) {
        node.g.reset();
        if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
        if (into_r) node.per_boundary[last].r->Erase(s).IgnoreError();
        return built;
      }
    }
    const Status in_g = node.g->Insert(s);
    if (!in_g.ok()) {
      if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
      if (into_r) node.per_boundary[last].r->Erase(s).IgnoreError();
      return in_g;
    }
    if (node.g->NeedsRebuild()) {
      // Amortized repack after the insert committed. Rebuild is atomic
      // (build-aside), so a failure here is absorbed: the delta trigger
      // persists and the next update re-runs it.
      node.g->Rebuild().IgnoreError();
    }
  }
  return Status::OK();
}

Status TwoLevelIndex::ReplaceSubtree(const std::vector<int32_t>& path,
                                     size_t slot,
                                     std::vector<Segment> segments) {
  Result<int32_t> rebuilt = BuildSubtree(std::move(segments));
  if (!rebuilt.ok()) return rebuilt.status();
  SEGDB_RETURN_IF_ERROR(FreeSubtree(path.back()));
  if (path.size() == 1) {
    root_ = rebuilt.value();
  } else {
    nodes_[path[path.size() - 2]].children[slot] = rebuilt.value();
  }
  return Status::OK();
}

Status TwoLevelIndex::Insert(const Segment& segment) {
  // Amortized O(log_B n) (the update bounds of Theorems 1 and 2): a
  // height-bounded descent into per-node structures, plus an occasional
  // subtree rebuild.
  SEGDB_IO_BOUND("scan");
  if (root_ < 0) {
    Result<int32_t> root = BuildSubtree({segment});
    if (!root.ok()) return root.status();
    root_ = root.value();
    ++size_;
    return Status::OK();
  }
  // Bookkeeping is deferred: size_ and the per-node subtree_size /
  // updates_since_rebuild counters along the descent path are committed
  // only once the structural work has succeeded. A faulted insert thus
  // leaves the index exactly as it was — audit-clean and retryable —
  // instead of stranding phantom counts the audit would flag.
  std::vector<int32_t> path;  // nodes whose subtree gains the segment
  // Commits the deferred counters for the first `count` path nodes.
  const auto commit = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Node& n = nodes_[path[i]];
      ++n.subtree_size;
      ++n.updates_since_rebuild;
    }
    ++size_;
  };
  int32_t cur = root_;
  size_t parent_slot = 0;
  for (;;) {
    path.push_back(cur);
    Node& node = nodes_[cur];

    if (node.is_leaf) {
      if (node.leaf_segments.size() + 1 > 2 * LeafCapacity()) {
        // Split the leaf by rebuilding it as a (small) subtree; the leaf is
        // untouched until the build has succeeded.
        std::vector<Segment> all = node.leaf_segments;
        all.push_back(segment);
        SEGDB_RETURN_IF_ERROR(
            ReplaceSubtree(path, parent_slot, std::move(all)));
        commit(path.size() - 1);  // cur was replaced; its count is built in
        return Status::OK();
      }
      node.leaf_segments.push_back(segment);
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        node.leaf_segments.pop_back();
        return written;
      }
      commit(path.size());
      return Status::OK();
    }

    // Weight balance by partial rebuilding, checked top-down: a child may
    // hold at most rebuild_factor times the mean child plus a leaf. The
    // updates_since_rebuild guard lets a subtree rebuild only after
    // absorbing a constant fraction of its size in updates, which pays for
    // the rebuild even when balance cannot improve. Counters are compared
    // as if this insert were already counted (the deferred bookkeeping
    // keeps the rebuild cadence of eager counting).
    uint64_t below = 0, max_child = 0;
    for (int32_t child : node.children) {
      const uint64_t cs = child >= 0 ? nodes_[child].subtree_size : 0;
      below += cs;
      max_child = std::max(max_child, cs);
    }
    const double share =
        static_cast<double>(below) / static_cast<double>(node.children.size());
    if (below > 2 * static_cast<uint64_t>(LeafCapacity()) &&
        (node.updates_since_rebuild + 1) * 8 > node.subtree_size + 1 &&
        static_cast<double>(max_child) >
            config_.rebuild_factor * share + LeafCapacity()) {
      std::vector<Segment> all;
      all.reserve(node.subtree_size + 1);
      SEGDB_RETURN_IF_ERROR(CollectSubtree(cur, &all));
      all.push_back(segment);
      SEGDB_RETURN_IF_ERROR(ReplaceSubtree(path, parent_slot, std::move(all)));
      commit(path.size() - 1);  // the rebuilt node restarts its counters
      return Status::OK();
    }

    uint32_t first, last;
    if (TouchedRange(node.boundaries, segment, &first, &last)) {
      SEGDB_RETURN_IF_ERROR(InsertAtNode(cur, segment));
      commit(path.size());
      return Status::OK();
    }
    const uint32_t k = SlabOf(node.boundaries, segment.x1);
    if (node.children[k] < 0) {
      Result<int32_t> fresh = BuildSubtree({segment});
      if (!fresh.ok()) return fresh.status();
      nodes_[cur].children[k] = fresh.value();
      commit(path.size());
      return Status::OK();
    }
    parent_slot = k;
    cur = node.children[k];
  }
}

Status TwoLevelIndex::Erase(const Segment& segment) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); substructures repack
  // Locate and remove from the owning structures first; bookkeeping
  // follows only on success, so a NotFound leaves the index untouched.
  std::vector<int32_t> path;
  int32_t cur = root_;
  Status removed = Status::NotFound("segment not stored");
  while (cur >= 0) {
    path.push_back(cur);
    Node& node = nodes_[cur];
    {
      auto meta = pool_->Fetch(node.meta_page);
      if (!meta.ok()) return meta.status();
    }
    if (node.is_leaf) {
      auto it = std::find(node.leaf_segments.begin(),
                          node.leaf_segments.end(), segment);
      if (it == node.leaf_segments.end()) return removed;
      node.leaf_segments.erase(it);
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        // Pages are untouched on failure; restore the mirror (leaf order
        // is immaterial) so the failed erase is a no-op.
        node.leaf_segments.push_back(segment);
        return written;
      }
      removed = Status::OK();
      break;
    }
    uint32_t first, last;
    if (!TouchedRange(node.boundaries, segment, &first, &last)) {
      cur = node.children[SlabOf(node.boundaries, segment.x1)];
      continue;
    }
    if (segment.is_vertical()) {
      if (node.per_boundary[first].c == nullptr) return removed;
      SEGDB_RETURN_IF_ERROR(node.per_boundary[first].c->Erase(
          pst::PointRecord{segment.y1, segment.y2, segment.id}));
      removed = Status::OK();
      break;
    }
    // A crossing segment may live in up to three structures (L, R, G). G
    // goes first: its erase is the only one that can allocate (a
    // fractional-cascading tombstone), so once it succeeds the remaining
    // steps' rollbacks are plain LinePst erases that cannot re-fault.
    // Rollbacks reinsert what was already removed, so a faulted erase
    // leaves the segment fully stored and retryable, with L, R and G still
    // mirrored for the audit.
    bool from_l = false, from_g = false;
    if (last > first) {
      if (node.g == nullptr) return removed;
      SEGDB_RETURN_IF_ERROR(node.g->Erase(segment));
      removed = Status::OK();
      from_g = true;
    }
    if (segment.x1 < node.boundaries[first]) {
      if (node.per_boundary[first].l == nullptr) {
        return removed.ok() ? Status::Corruption("missing L entry") : removed;
      }
      const Status left = node.per_boundary[first].l->Erase(segment);
      if (!left.ok()) {
        if (from_g) node.g->Insert(segment).IgnoreError();
        return left;
      }
      removed = Status::OK();
      from_l = true;
    }
    if (segment.x2 > node.boundaries[last]) {
      if (node.per_boundary[last].r == nullptr) {
        return removed.ok() ? Status::Corruption("missing R entry") : removed;
      }
      const Status right = node.per_boundary[last].r->Erase(segment);
      if (!right.ok()) {
        if (from_l) node.per_boundary[first].l->Insert(segment).IgnoreError();
        if (from_g) node.g->Insert(segment).IgnoreError();
        return right;
      }
      removed = Status::OK();
    }
    // Amortized repack of G: absorb a failure here — the erase itself has
    // committed, and the rebuild trigger persists until a later op retries.
    if (from_g && node.g->NeedsRebuild()) node.g->Rebuild().IgnoreError();
    break;
  }
  if (!removed.ok()) return removed;
  for (int32_t idx : path) {
    --nodes_[idx].subtree_size;
    // Erases count toward the rebuild amortization too: they loosen the
    // audited balance bound by exactly the slack they add here.
    ++nodes_[idx].updates_since_rebuild;
  }
  --size_;
  return Status::OK();
}

Status TwoLevelIndex::ScanLeafPages(const Node& leaf,
                                    const VerticalSegmentQuery& q,
                                    std::vector<Segment>* out) const {
  for (io::PageId id : leaf.leaf_pages) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    // Branchless kernel over the whole page, then one bulk gather of the
    // matches — no per-segment predicate branch or push_back.
    const io::ConstColumnarPageView view(p, kLeafHeader, count);
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    uint32_t* idx = scratch.ReserveIndices(count);
    const uint32_t hits = geom::ActiveFilterKernel().filter_vs(
        view.strips(), count, q.x0, q.ylo, q.yhi, idx);
    view.AppendMatches(idx, hits, out);
  }
  return Status::OK();
}

uint64_t TwoLevelIndex::page_count() const {
  uint64_t total = 0;
  // Walk live nodes only.
  std::vector<int32_t> stack;
  if (root_ >= 0) stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    total += 1 + node.leaf_pages.size();
    for (const BoundaryStructs& bs : node.per_boundary) {
      if (bs.c) total += bs.c->page_count();
      if (bs.l) total += bs.l->page_count();
      if (bs.r) total += bs.r->page_count();
    }
    if (node.g) total += node.g->page_count();
    for (int32_t child : node.children) {
      if (child >= 0) stack.push_back(child);
    }
  }
  return total;
}

uint32_t TwoLevelIndex::SubtreeHeight(int32_t idx) const {
  if (idx < 0) return 0;
  uint32_t h = 0;
  for (int32_t child : nodes_[idx].children) {
    h = std::max(h, SubtreeHeight(child));
  }
  return 1 + h;
}

uint32_t TwoLevelIndex::height() const { return SubtreeHeight(root_); }

Status TwoLevelIndex::CheckSubtree(int32_t idx, const int64_t* lo,
                                   const int64_t* hi, uint64_t* total) const {
  const Node& node = nodes_[idx];
  const auto escapes = [&](const Segment& s) {
    return (lo != nullptr && s.x1 <= *lo) || (hi != nullptr && s.x2 >= *hi);
  };
  uint64_t count = 0;
  if (node.is_leaf) {
    count = node.leaf_segments.size();
    for (const Segment& s : node.leaf_segments) {
      if (escapes(s)) {
        return Status::Corruption("leaf segment escapes its slab");
      }
    }
  } else {
    // Slab coverage: 1..b strictly increasing boundaries inside the
    // ancestor slab, one C/L/R triple per boundary and one child per slab.
    const std::vector<int64_t>& bl = node.boundaries;
    if (bl.empty() || bl.size() > config_.fanout) {
      return Status::Corruption("boundary count outside [1, b]");
    }
    if (node.per_boundary.size() != bl.size() ||
        node.children.size() != bl.size() + 1) {
      return Status::Corruption("per-boundary structures misaligned");
    }
    for (size_t i = 0; i < bl.size(); ++i) {
      if (i > 0 && bl[i - 1] >= bl[i]) {
        return Status::Corruption("boundaries not strictly increasing");
      }
      if ((lo != nullptr && bl[i] <= *lo) || (hi != nullptr && bl[i] >= *hi)) {
        return Status::Corruption("boundary outside ancestor slab");
      }
    }
    // Re-derive every stored segment's routing and confirm it sits in
    // exactly the collections InsertAtNode would choose. A segment with
    // parts on both sides of its boundaries is in both L_first and R_last,
    // and one crossing >= 2 boundaries is in G as well: those copies are
    // matched by id. Each segment is counted once, in the first of its
    // collections (the CollectSubtree order).
    std::unordered_set<uint64_t> both_from_l, both_from_r;
    std::unordered_set<uint64_t> long_from_lr, long_in_g;
    uint32_t first, last;
    for (size_t i = 0; i < bl.size(); ++i) {
      const BoundaryStructs& bs = node.per_boundary[i];
      if (bs.c) {
        SEGDB_RETURN_IF_ERROR(bs.c->CheckInvariants());
        std::vector<pst::PointRecord> points;
        SEGDB_RETURN_IF_ERROR(bs.c->CollectAll(&points));
        for (const auto& p : points) {
          if (p.x > p.y) {
            return Status::Corruption("C_i interval with lo > hi");
          }
        }
        count += bs.c->size();
      }
      if (bs.l) {
        SEGDB_RETURN_IF_ERROR(bs.l->CheckInvariants());
        std::vector<Segment> ls;
        SEGDB_RETURN_IF_ERROR(bs.l->CollectAll(&ls));
        for (const Segment& s : ls) {
          if (!TouchedRange(bl, s, &first, &last) || first != i ||
              s.x1 >= bl[i]) {
            return Status::Corruption(
                "L_i member whose first crossed boundary is not s_i");
          }
          if (escapes(s)) {
            return Status::Corruption("L_i member escapes the ancestor slab");
          }
          if (s.x2 > bl[last]) both_from_l.insert(s.id);
          if (last > first) long_from_lr.insert(s.id);
          ++count;
        }
      }
      if (bs.r) {
        SEGDB_RETURN_IF_ERROR(bs.r->CheckInvariants());
        std::vector<Segment> rs;
        SEGDB_RETURN_IF_ERROR(bs.r->CollectAll(&rs));
        for (const Segment& s : rs) {
          if (!TouchedRange(bl, s, &first, &last) || last != i ||
              s.x2 <= bl[i]) {
            return Status::Corruption(
                "R_i member whose last crossed boundary is not s_i");
          }
          if (escapes(s)) {
            return Status::Corruption("R_i member escapes the ancestor slab");
          }
          if (s.x1 < bl[first]) {
            both_from_r.insert(s.id);
          } else {
            ++count;  // in no L
          }
          if (last > first) long_from_lr.insert(s.id);
        }
      }
    }
    if (node.g) {
      SEGDB_RETURN_IF_ERROR(node.g->CheckInvariants());
      std::vector<Segment> gs;
      SEGDB_RETURN_IF_ERROR(node.g->CollectAll(&gs));
      for (const Segment& s : gs) {
        if (!TouchedRange(bl, s, &first, &last) || last <= first) {
          return Status::Corruption(
              "G member crossing fewer than two boundaries");
        }
        if (escapes(s)) {
          return Status::Corruption("G member escapes the ancestor slab");
        }
        if (s.x1 < bl[first] || s.x2 > bl[last]) {
          long_in_g.insert(s.id);
        } else {
          ++count;  // in no L or R
        }
      }
    }
    if (both_from_l != both_from_r) {
      return Status::Corruption(
          "segments crossing on both sides not mirrored in L and R");
    }
    if (long_from_lr != long_in_g) {
      return Status::Corruption(
          "segments crossing >= 2 boundaries not mirrored in L/R and G");
    }
    // BB[alpha] balance: exact at build time (the quantile split gives each
    // child at most half), each counted update adds one unit of slack.
    uint64_t max_child = 0;
    for (int32_t child : node.children) {
      if (child >= 0) {
        max_child = std::max(max_child, nodes_[child].subtree_size);
      }
    }
    if (2 * max_child > node.subtree_size + node.updates_since_rebuild) {
      return Status::Corruption("BB[alpha] balance bound violated");
    }
    for (size_t k = 0; k < node.children.size(); ++k) {
      if (node.children[k] < 0) continue;
      const int64_t* clo = k == 0 ? lo : &bl[k - 1];
      const int64_t* chi = k == bl.size() ? hi : &bl[k];
      uint64_t sub = 0;
      SEGDB_RETURN_IF_ERROR(CheckSubtree(node.children[k], clo, chi, &sub));
      count += sub;
    }
  }
  if (count != node.subtree_size) {
    return Status::Corruption("subtree_size bookkeeping mismatch");
  }
  *total = count;
  return Status::OK();
}

Status TwoLevelIndex::CheckInvariants() const {
  if (root_ < 0) {
    return size_ == 0 ? Status::OK() : Status::Corruption("size_ mismatch");
  }
  uint64_t total = 0;
  SEGDB_RETURN_IF_ERROR(CheckSubtree(root_, nullptr, nullptr, &total));
  if (total != size_) return Status::Corruption("size_ mismatch");
  return Status::OK();
}

}  // namespace segdb::core
