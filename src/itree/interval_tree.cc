#include "itree/interval_tree.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "geom/filter_kernel.h"
#include "io/columnar_page_view.h"
#include "util/check.h"

namespace segdb::itree {

namespace {
using geom::Segment;
constexpr uint32_t kLeafHeader = 8;
// A child may hold twice the mean child plus a leaf before its node's
// subtree is rebuilt — Solution B's constant, for the same reason: the
// quantile split starts each slab near 1/(b+1) of the node, so a child
// must about double (Theta(size) updates) before a rebuild, and with
// b >= 2 a child stays under 2/3 of its node, keeping the height
// O(log_b n).
constexpr double kRebuildFactor = 2.0;
}  // namespace

IntervalTree::IntervalTree(io::BufferPool* pool, IntervalTreeOptions options)
    : pool_(pool), options_(options) {
  if (options_.fanout != 0) {
    fanout_ = std::max<uint32_t>(2, options_.fanout);
  } else {
    const uint32_t records =
        pool_->page_size() / static_cast<uint32_t>(sizeof(Segment));
    fanout_ = std::max<uint32_t>(2, records / 4);
  }
}

IntervalTree::~IntervalTree() {
  if (root_ >= 0) FreeSubtree(root_).IgnoreError();
}

uint32_t IntervalTree::LeafCapacity() const {
  if (options_.leaf_capacity != 0) return options_.leaf_capacity;
  return io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
}

bool IntervalTree::TouchedRange(const std::vector<int64_t>& boundaries,
                                const Segment& s, uint32_t* first,
                                uint32_t* last) {
  auto lo = std::lower_bound(boundaries.begin(), boundaries.end(), s.x1);
  auto hi = std::upper_bound(boundaries.begin(), boundaries.end(), s.x2);
  if (lo >= hi) return false;
  *first = static_cast<uint32_t>(lo - boundaries.begin());
  *last = static_cast<uint32_t>(hi - boundaries.begin()) - 1;
  return true;
}

int32_t IntervalTree::BuildMultislabDirectory(Node* node, uint32_t lo,
                                              uint32_t hi) {
  MultislabNode m;
  m.slab_lo = lo;
  m.slab_hi = hi;
  if (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    m.left = BuildMultislabDirectory(node, lo, mid);
    m.right = BuildMultislabDirectory(node, mid + 1, hi);
  }
  m.list = std::make_unique<IdTree>(pool_, ById{});
  node->mtree.push_back(std::move(m));
  return static_cast<int32_t>(node->mtree.size()) - 1;
}

void IntervalTree::AllocateMultislab(const Node& node, int32_t mnode,
                                     uint32_t lo, uint32_t hi,
                                     std::vector<int32_t>* out) const {
  const MultislabNode& m = node.mtree[mnode];
  if (lo <= m.slab_lo && m.slab_hi <= hi) {
    out->push_back(mnode);
    return;
  }
  if (m.left < 0) return;
  const uint32_t mid = (m.slab_lo + m.slab_hi) / 2;
  if (lo <= mid) AllocateMultislab(node, m.left, lo, hi, out);
  if (hi > mid) AllocateMultislab(node, m.right, lo, hi, out);
}

Status IntervalTree::WriteLeafPages(Node* node) {
  // Allocate the new pages first, then free the old ones: a failed
  // allocation mid-rewrite must leave the leaf's stored pages intact.
  std::vector<io::PageId> fresh;
  const uint32_t per_page =
      io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
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
    // Columnar strips sized to the record count (see columnar_page_view.h).
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

Status IntervalTree::InsertAtNode(Node* node, const Segment& s) {
  uint32_t first, last;
  if (!TouchedRange(node->boundaries, s, &first, &last)) {
    return Status::Internal("InsertAtNode: touches no boundary");
  }
  if (s.x1 == s.x2) {  // point extent exactly on a boundary
    BoundaryLists& bl = node->per_boundary[first];
    if (!bl.c) bl.c = std::make_unique<IdTree>(pool_, ById{});
    return bl.c->Insert(s);
  }
  // A segment lands in up to L + R + several multislab lists; a failed
  // later insert rolls back the earlier ones. B+-tree erases never
  // allocate pages, so the rollbacks themselves cannot fault.
  bool in_l = false, in_r = false;
  if (s.x1 < node->boundaries[first]) {
    BoundaryLists& bl = node->per_boundary[first];
    if (!bl.l) bl.l = std::make_unique<LoTree>(pool_, ByLoAsc{});
    SEGDB_RETURN_IF_ERROR(bl.l->Insert(s));
    in_l = true;
  }
  if (s.x2 > node->boundaries[last]) {
    BoundaryLists& bl = node->per_boundary[last];
    if (!bl.r) bl.r = std::make_unique<HiTree>(pool_, ByHiDesc{});
    const Status st = bl.r->Insert(s);
    if (!st.ok()) {
      if (in_l) node->per_boundary[first].l->Erase(s).IgnoreError();
      return st;
    }
    in_r = true;
  }
  if (last > first && node->mroot >= 0) {
    std::vector<int32_t> alloc;
    AllocateMultislab(*node, node->mroot, first + 1, last, &alloc);
    for (size_t i = 0; i < alloc.size(); ++i) {
      const Status st = node->mtree[alloc[i]].list->Insert(s);
      if (!st.ok()) {
        for (size_t j = 0; j < i; ++j) {
          node->mtree[alloc[j]].list->Erase(s).IgnoreError();
        }
        if (in_r) node->per_boundary[last].r->Erase(s).IgnoreError();
        if (in_l) node->per_boundary[first].l->Erase(s).IgnoreError();
        return st;
      }
    }
  }
  return Status::OK();
}

Status IntervalTree::EraseAtNode(Node* node, const Segment& s) {
  uint32_t first, last;
  if (!TouchedRange(node->boundaries, s, &first, &last)) {
    return Status::Internal("EraseAtNode: touches no boundary");
  }
  if (s.x1 == s.x2) {
    BoundaryLists& bl = node->per_boundary[first];
    if (!bl.c) return Status::NotFound("segment not stored");
    return bl.c->Erase(s);
  }
  Status removed = Status::NotFound("segment not stored");
  if (s.x1 < node->boundaries[first]) {
    BoundaryLists& bl = node->per_boundary[first];
    if (!bl.l) return removed;
    SEGDB_RETURN_IF_ERROR(bl.l->Erase(s));
    removed = Status::OK();
  }
  if (s.x2 > node->boundaries[last]) {
    BoundaryLists& bl = node->per_boundary[last];
    if (!bl.r) {
      return removed.ok() ? Status::Corruption("missing R entry") : removed;
    }
    SEGDB_RETURN_IF_ERROR(bl.r->Erase(s));
    removed = Status::OK();
  }
  if (last > first && node->mroot >= 0) {
    std::vector<int32_t> alloc;
    AllocateMultislab(*node, node->mroot, first + 1, last, &alloc);
    // SEMA-LOOP: height (alloc holds the O(log #slabs) allocation nodes)
    for (int32_t mi : alloc) {
      const Status st = node->mtree[mi].list->Erase(s);
      if (!st.ok()) {
        return removed.ok() ? Status::Corruption("partial multislab entry")
                            : st;
      }
      removed = Status::OK();
    }
  }
  return removed;
}

int32_t IntervalTree::AllocNode() {
  if (!free_nodes_.empty()) {
    const int32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[idx] = Node{};
    return idx;
  }
  nodes_.emplace_back();
  return static_cast<int32_t>(nodes_.size()) - 1;
}

Result<int32_t> IntervalTree::BuildSubtree(std::vector<Segment> segments) {
  const int32_t idx = AllocNode();
  Status built = BuildSubtreeAt(idx, std::move(segments));
  if (!built.ok()) {
    // The partial node is structurally consistent (children default to
    // -1, lists may be empty), so FreeSubtree unwinds whatever the build
    // managed to claim and returns the slot to the free list.
    FreeSubtree(idx).IgnoreError();
    return built;
  }
  return idx;
}

Status IntervalTree::BuildSubtreeAt(int32_t idx,
                                    std::vector<Segment> segments) {
  SEGDB_DCHECK(!segments.empty());
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

  std::vector<int64_t> xs;
  xs.reserve(2 * segments.size());
  for (const Segment& s : segments) {
    xs.push_back(s.x1);
    xs.push_back(s.x2);
  }
  std::sort(xs.begin(), xs.end());
  std::vector<int64_t> boundaries;
  for (uint32_t i = 1; i <= fanout_; ++i) {
    const size_t pos = static_cast<size_t>(
        static_cast<uint64_t>(xs.size()) * i / (fanout_ + 1));
    const int64_t v = xs[std::min(pos, xs.size() - 1)];
    if (boundaries.empty() || boundaries.back() < v) boundaries.push_back(v);
  }
  if (boundaries.empty()) boundaries.push_back(xs[xs.size() / 2]);

  Node& node = nodes_[idx];
  node.is_leaf = false;
  node.boundaries = boundaries;
  node.per_boundary.resize(boundaries.size());
  node.children.assign(boundaries.size() + 1, -1);
  if (boundaries.size() >= 2) {
    node.mroot = BuildMultislabDirectory(
        &node, 1, static_cast<uint32_t>(boundaries.size()) - 1);
  }

  std::vector<std::vector<Segment>> per_slab(boundaries.size() + 1);
  for (const Segment& s : segments) {
    uint32_t first, last;
    if (!TouchedRange(node.boundaries, s, &first, &last)) {
      const uint32_t k = static_cast<uint32_t>(
          std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                           s.x1) -
          node.boundaries.begin());
      per_slab[k].push_back(s);
      continue;
    }
    SEGDB_RETURN_IF_ERROR(InsertAtNode(&node, s));
  }
  segments.clear();
  for (size_t k = 0; k < per_slab.size(); ++k) {
    if (per_slab[k].empty()) continue;
    SEGDB_DCHECK(per_slab[k].size() < nodes_[idx].subtree_size);
    Result<int32_t> child = BuildSubtree(std::move(per_slab[k]));
    if (!child.ok()) return child.status();
    nodes_[idx].children[k] = child.value();
  }
  return Status::OK();
}

Status IntervalTree::FreeSubtree(int32_t idx) {
  Node& node = nodes_[idx];
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(FreeSubtree(child));
  }
  for (BoundaryLists& bl : node.per_boundary) {
    if (bl.c) SEGDB_RETURN_IF_ERROR(bl.c->Clear());
    if (bl.l) SEGDB_RETURN_IF_ERROR(bl.l->Clear());
    if (bl.r) SEGDB_RETURN_IF_ERROR(bl.r->Clear());
  }
  for (MultislabNode& m : node.mtree) {
    if (m.list) SEGDB_RETURN_IF_ERROR(m.list->Clear());
  }
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

Status IntervalTree::CollectSubtree(int32_t idx,
                                    std::vector<Segment>* out) const {
  const Node& node = nodes_[idx];
  if (node.is_leaf) {
    out->insert(out->end(), node.leaf_segments.begin(),
                node.leaf_segments.end());
    return Status::OK();
  }
  std::unordered_set<uint64_t> seen;
  auto add = [&](const Segment& s) {
    if (seen.insert(s.id).second) out->push_back(s);
    return true;
  };
  for (const BoundaryLists& bl : node.per_boundary) {
    if (bl.c) SEGDB_RETURN_IF_ERROR(bl.c->ScanAll(add));
    if (bl.l) SEGDB_RETURN_IF_ERROR(bl.l->ScanAll(add));
    if (bl.r) SEGDB_RETURN_IF_ERROR(bl.r->ScanAll(add));
  }
  for (const MultislabNode& m : node.mtree) {
    if (m.list) SEGDB_RETURN_IF_ERROR(m.list->ScanAll(add));
  }
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(CollectSubtree(child, out));
  }
  return Status::OK();
}

Status IntervalTree::BulkLoad(std::span<const Segment> segments) {
  SEGDB_IO_BOUND("scan");
  // Build the replacement tree aside, then swap: a failed allocation
  // mid-build must leave the previous contents intact and queryable.
  int32_t fresh = -1;
  if (!segments.empty()) {
    Result<int32_t> built =
        BuildSubtree(std::vector<Segment>(segments.begin(), segments.end()));
    if (!built.ok()) return built.status();
    fresh = built.value();
  }
  if (root_ >= 0) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));  // reliable metadata ops
  }
  root_ = fresh;
  size_ = segments.size();
  return Status::OK();
}

Status IntervalTree::Insert(const Segment& segment) {
  // Amortized O(log_B n): the descent is height-bounded, but an insert
  // that trips the rebuild trigger rescans the overgrown subtree.
  SEGDB_IO_BOUND("scan");
  if (root_ < 0) {
    Result<int32_t> root = BuildSubtree({segment});
    if (!root.ok()) return root.status();
    root_ = root.value();
    ++size_;
    return Status::OK();
  }
  // Path bookkeeping (subtree_size / inserts_since_rebuild / size_) is
  // deferred until the structural mutation has fully succeeded: a failed
  // allocation mid-insert must leave every counter exactly as it was.
  std::vector<int32_t> path;
  const auto commit = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      ++nodes_[path[i]].subtree_size;
      ++nodes_[path[i]].inserts_since_rebuild;
    }
    ++size_;
  };
  // Reattaches a rebuilt subtree where path.back() used to hang.
  size_t parent_slot = 0;
  const auto attach = [&](int32_t rebuilt) {
    if (path.size() == 1) {
      root_ = rebuilt;
    } else {
      nodes_[path[path.size() - 2]].children[parent_slot] = rebuilt;
    }
  };
  int32_t cur = root_;
  for (;;) {
    path.push_back(cur);
    Node& node = nodes_[cur];
    if (!node.is_leaf) {
      uint64_t below = 0, max_child = 0;
      for (int32_t child : node.children) {
        const uint64_t cs = child >= 0 ? nodes_[child].subtree_size : 0;
        below += cs;
        max_child = std::max(max_child, cs);
      }
      const double share = static_cast<double>(below) /
                           static_cast<double>(node.children.size());
      // Counters are as-if-incremented (+1) since the path bookkeeping
      // has not been committed yet.
      if (below > 2 * static_cast<uint64_t>(LeafCapacity()) &&
          (node.inserts_since_rebuild + 1) * 8 > node.subtree_size + 1 &&
          static_cast<double>(max_child) >
              kRebuildFactor * share + LeafCapacity()) {
        std::vector<Segment> all;
        all.reserve(node.subtree_size + 1);
        SEGDB_RETURN_IF_ERROR(CollectSubtree(cur, &all));
        all.push_back(segment);
        // Build the replacement first; the old subtree stays live until
        // the build has succeeded, so failure leaves the tree untouched.
        Result<int32_t> rebuilt = BuildSubtree(std::move(all));
        if (!rebuilt.ok()) return rebuilt.status();
        SEGDB_RETURN_IF_ERROR(FreeSubtree(cur));  // reliable metadata ops
        attach(rebuilt.value());
        commit(path.size() - 1);  // the rebuilt node has fresh counters
        return Status::OK();
      }
    }
    if (node.is_leaf) {
      node.leaf_segments.push_back(segment);
      if (node.leaf_segments.size() > 2 * LeafCapacity()) {
        // Copy (not move) so a failed rebuild only needs a pop_back.
        std::vector<Segment> all = node.leaf_segments;
        Result<int32_t> rebuilt = BuildSubtree(std::move(all));
        if (!rebuilt.ok()) {
          nodes_[cur].leaf_segments.pop_back();  // arena may have grown
          return rebuilt.status();
        }
        SEGDB_RETURN_IF_ERROR(FreeSubtree(cur));
        attach(rebuilt.value());
        commit(path.size() - 1);
        return Status::OK();
      }
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        node.leaf_segments.pop_back();
        return written;
      }
      commit(path.size());
      return Status::OK();
    }
    uint32_t first, last;
    if (TouchedRange(node.boundaries, segment, &first, &last)) {
      SEGDB_RETURN_IF_ERROR(InsertAtNode(&node, segment));
      commit(path.size());
      return Status::OK();
    }
    const uint32_t k = static_cast<uint32_t>(
        std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                         segment.x1) -
        node.boundaries.begin());
    if (node.children[k] < 0) {
      Result<int32_t> fresh = BuildSubtree({segment});
      if (!fresh.ok()) return fresh.status();
      nodes_[cur].children[k] = fresh.value();  // arena may have grown
      commit(path.size());
      return Status::OK();
    }
    parent_slot = k;
    cur = node.children[k];
  }
}

Status IntervalTree::Erase(const Segment& segment) {
  SEGDB_IO_BOUND("log", "t/B");
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
      const size_t at = static_cast<size_t>(it - node.leaf_segments.begin());
      node.leaf_segments.erase(it);
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        // The old pages are still intact (allocate-then-swap), so restore
        // the in-memory mirror to match them.
        node.leaf_segments.insert(
            node.leaf_segments.begin() + static_cast<ptrdiff_t>(at), segment);
        return written;
      }
      removed = Status::OK();
      break;
    }
    uint32_t first, last;
    if (TouchedRange(node.boundaries, segment, &first, &last)) {
      removed = EraseAtNode(&node, segment);
      if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
        return removed;
      }
      break;
    }
    const uint32_t k = static_cast<uint32_t>(
        std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                         segment.x1) -
        node.boundaries.begin());
    cur = node.children[k];
  }
  if (!removed.ok()) return removed;
  for (int32_t idx : path) --nodes_[idx].subtree_size;
  --size_;
  return Status::OK();
}

Status IntervalTree::Stab(int64_t x0, std::vector<Segment>* out) const {
  // O(log_B n + sqrt(n/B) + t/B): each node on the stabbing path scans
  // its multislab lists, the Section-4 bound (Theorem 2's inner tree).
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  int32_t cur = root_;
  while (cur >= 0) {
    const Node& node = nodes_[cur];
    {
      auto meta = pool_->Fetch(node.meta_page);
      if (!meta.ok()) return meta.status();
    }
    if (node.is_leaf) {
      for (io::PageId id : node.leaf_pages) {
        auto ref = pool_->Fetch(id);
        if (!ref.ok()) return ref.status();
        const io::Page& p = ref.value().page();
        const uint32_t count = p.ReadAt<uint32_t>(0);
        // Stab kernel over the page's x-strips, then one bulk gather.
        const io::ConstColumnarPageView view(p, kLeafHeader, count);
        geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
        uint32_t* idx = scratch.ReserveIndices(count);
        const uint32_t hits = geom::ActiveFilterKernel().filter_stab(
            view.strips(), count, x0, idx);
        view.AppendMatches(idx, hits, out);
      }
      return Status::OK();
    }

    auto it = std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                               x0);
    const bool on_boundary = it != node.boundaries.end() && *it == x0;
    const uint32_t k = static_cast<uint32_t>(it - node.boundaries.begin());
    const uint32_t inner_max =
        static_cast<uint32_t>(node.boundaries.size()) - 1;

    auto report_multislab_path = [&](uint32_t slab,
                                     std::unordered_set<uint64_t>* dedup)
        -> Status {
      if (node.mroot < 0 || slab < 1 || slab > inner_max) return Status::OK();
      int32_t mi = node.mroot;
      while (mi >= 0) {
        const MultislabNode& m = node.mtree[mi];
        SEGDB_RETURN_IF_ERROR(m.list->ScanAll([&](const Segment& s) {
          if (dedup == nullptr || dedup->insert(s.id).second) {
            out->push_back(s);
          }
          return true;
        }));
        if (m.left < 0) break;
        const uint32_t mid = (m.slab_lo + m.slab_hi) / 2;
        mi = slab <= mid ? m.left : m.right;
      }
      return Status::OK();
    };

    if (on_boundary) {
      // x0 == s_k: C_k wholesale, the non-overlapping slices of L_k and
      // R_k, and the multislab paths of both adjacent slabs.
      const BoundaryLists& bl = node.per_boundary[k];
      if (bl.c) {
        SEGDB_RETURN_IF_ERROR(bl.c->ScanAll([&](const Segment& s) {
          out->push_back(s);
          return true;
        }));
      }
      if (bl.l) {
        // Members crossing the next boundary too live in the multislab
        // lists; keep only the short ones.
        const bool has_next = k + 1 < node.boundaries.size();
        const int64_t next_b = has_next ? node.boundaries[k + 1] : 0;
        SEGDB_RETURN_IF_ERROR(bl.l->ScanAll([&](const Segment& s) {
          if (!has_next || s.x2 < next_b) out->push_back(s);
          return true;
        }));
      }
      if (bl.r) {
        SEGDB_RETURN_IF_ERROR(bl.r->ScanAll([&](const Segment& s) {
          if (s.x1 == x0) out->push_back(s);
          return true;
        }));
      }
      std::unordered_set<uint64_t> dedup;
      SEGDB_RETURN_IF_ERROR(report_multislab_path(k, &dedup));
      SEGDB_RETURN_IF_ERROR(report_multislab_path(k + 1, &dedup));
      return Status::OK();
    }

    // x0 strictly inside slab k: prefix of R_{k-1} by hi, prefix of L_k by
    // lo, full multislab path.
    if (k >= 1 && node.per_boundary[k - 1].r) {
      SEGDB_RETURN_IF_ERROR(node.per_boundary[k - 1].r->ScanAll(
          [&](const Segment& s) {
            if (s.x2 < x0) return false;  // hi-descending: prefix ends
            out->push_back(s);
            return true;
          }));
    }
    if (k < node.boundaries.size() && node.per_boundary[k].l) {
      SEGDB_RETURN_IF_ERROR(
          node.per_boundary[k].l->ScanAll([&](const Segment& s) {
            if (s.x1 > x0) return false;  // lo-ascending: prefix ends
            out->push_back(s);
            return true;
          }));
    }
    SEGDB_RETURN_IF_ERROR(report_multislab_path(k, nullptr));
    cur = node.children[k];
  }
  return Status::OK();
}

uint64_t IntervalTree::page_count() const {
  uint64_t total = 0;
  std::vector<int32_t> stack;
  if (root_ >= 0) stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    total += 1 + node.leaf_pages.size();
    for (const BoundaryLists& bl : node.per_boundary) {
      if (bl.c) total += bl.c->page_count();
      if (bl.l) total += bl.l->page_count();
      if (bl.r) total += bl.r->page_count();
    }
    for (const MultislabNode& m : node.mtree) {
      if (m.list) total += m.list->page_count();
    }
    for (int32_t child : node.children) {
      if (child >= 0) stack.push_back(child);
    }
  }
  return total;
}

uint32_t IntervalTree::SubtreeHeight(int32_t idx) const {
  if (idx < 0) return 0;
  uint32_t h = 0;
  for (int32_t child : nodes_[idx].children) {
    h = std::max(h, SubtreeHeight(child));
  }
  return 1 + h;
}

Status IntervalTree::CheckInvariants() const {
  // Light structural audit: every stored segment must be re-collectable
  // exactly once and sizes must agree.
  if (root_ < 0) {
    return size_ == 0 ? Status::OK() : Status::Corruption("size_ mismatch");
  }
  std::vector<Segment> all;
  SEGDB_RETURN_IF_ERROR(CollectSubtree(root_, &all));
  if (all.size() != size_) return Status::Corruption("size_ mismatch");
  std::unordered_set<uint64_t> ids;
  for (const Segment& s : all) {
    if (!ids.insert(s.id).second) {
      return Status::Corruption("segment collected twice");
    }
  }
  return Status::OK();
}

}  // namespace segdb::itree
