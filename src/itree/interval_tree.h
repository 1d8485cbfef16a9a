// External interval tree over segment x-extents — the stabbing structure
// the paper builds on (its reference [3], Arge & Vitter) and the literal
// left-hand side of its Figure 1. Reports every stored segment whose
// x-extent contains a query abscissa ("which segments does this vertical
// LINE cross"); combined with a client-side y-filter it becomes the
// stab-and-filter VS baseline of experiment E8.
//
// Shape (mirroring the paper's own Section 4.1 description of [3]): a
// fan-out-b tree over endpoint quantiles; a segment lives at the highest
// node where its x-extent touches a slab boundary. Within a node:
//   C_i — segments with a point x-extent exactly on boundary s_i;
//   L_i — first touched boundary s_i with x1 < s_i, ordered by x1
//         ascending: for a query in the slab left of s_i the answers are
//         a prefix (every member reaches s_i, hence past the query);
//   R_i — last touched boundary s_i with x2 > s_i, ordered by x2
//         descending: symmetric;
//   M   — multislab lists: segments whose extent spans >= 2 boundaries,
//         allocated on an in-node binary tree over the inner slabs; every
//         list on the root-to-slab path is reported wholesale.
// Stabbing costs O(log_B n (1 + log2 b)) page reads plus the output — the
// same per-node budget Solution B spends — with O(n) blocks for C/L/R and
// O(n log2 B) worst case for M.
//
// Updates use the same discipline as the rest of segdb: routed inserts /
// deletes into the per-boundary B+-trees plus weight-balanced partial
// rebuilding of first-level subtrees.
#ifndef SEGDB_ITREE_INTERVAL_TREE_H_
#define SEGDB_ITREE_INTERVAL_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "btree/bplus_tree.h"
#include "geom/segment.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::itree {

struct IntervalTreeOptions {
  uint32_t fanout = 0;         // boundaries per node; 0 = B/4
  uint32_t leaf_capacity = 0;  // 0 = one page's worth
};

class IntervalTree {
 public:
  IntervalTree(io::BufferPool* pool, IntervalTreeOptions options = {});
  ~IntervalTree();

  IntervalTree(const IntervalTree&) = delete;
  IntervalTree& operator=(const IntervalTree&) = delete;

  uint64_t size() const { return size_; }
  uint64_t page_count() const;
  uint32_t height() const { return SubtreeHeight(root_); }

  Status BulkLoad(std::span<const geom::Segment> segments);
  Status Insert(const geom::Segment& segment);
  Status Erase(const geom::Segment& segment);

  // Appends every stored segment s with s.x1 <= x0 <= s.x2.
  Status Stab(int64_t x0, std::vector<geom::Segment>* out) const;

  Status CheckInvariants() const;

 private:
  struct ByLoAsc {
    int operator()(const geom::Segment& a, const geom::Segment& b) const {
      if (a.x1 != b.x1) return a.x1 < b.x1 ? -1 : 1;
      if (a.id != b.id) return a.id < b.id ? -1 : 1;
      return 0;
    }
  };
  struct ByHiDesc {
    int operator()(const geom::Segment& a, const geom::Segment& b) const {
      if (a.x2 != b.x2) return a.x2 > b.x2 ? -1 : 1;
      if (a.id != b.id) return a.id < b.id ? -1 : 1;
      return 0;
    }
  };
  struct ById {
    int operator()(const geom::Segment& a, const geom::Segment& b) const {
      if (a.id != b.id) return a.id < b.id ? -1 : 1;
      return 0;
    }
  };
  using LoTree = btree::BPlusTree<geom::Segment, ByLoAsc>;
  using HiTree = btree::BPlusTree<geom::Segment, ByHiDesc>;
  using IdTree = btree::BPlusTree<geom::Segment, ById>;

  struct BoundaryLists {
    std::unique_ptr<IdTree> c;  // point-extent segments on the boundary
    std::unique_ptr<LoTree> l;
    std::unique_ptr<HiTree> r;
  };
  struct MultislabNode {
    uint32_t slab_lo = 0, slab_hi = 0;
    int32_t left = -1, right = -1;
    std::unique_ptr<IdTree> list;
  };
  struct Node {
    bool is_leaf = false;
    std::vector<int64_t> boundaries;
    std::vector<BoundaryLists> per_boundary;
    std::vector<MultislabNode> mtree;  // in-node binary tree, index 0 unused
    int32_t mroot = -1;
    std::vector<int32_t> children;
    uint64_t subtree_size = 0;
    uint64_t inserts_since_rebuild = 0;  // amortization guard
    io::PageId meta_page = io::kInvalidPageId;
    std::vector<io::PageId> leaf_pages;
    std::vector<geom::Segment> leaf_segments;
  };

  uint32_t LeafCapacity() const;
  static bool TouchedRange(const std::vector<int64_t>& boundaries,
                           const geom::Segment& s, uint32_t* first,
                           uint32_t* last);

  int32_t BuildMultislabDirectory(Node* node, uint32_t lo, uint32_t hi);
  void AllocateMultislab(const Node& node, int32_t mnode, uint32_t lo,
                         uint32_t hi, std::vector<int32_t>* out) const;

  // Takes a node slot from the free list (or grows the arena).
  int32_t AllocNode();
  // Fault-atomic: on failure every page and arena slot the partial build
  // claimed is released before the error returns (no-op on the tree).
  Result<int32_t> BuildSubtree(std::vector<geom::Segment> segments);
  Status BuildSubtreeAt(int32_t idx, std::vector<geom::Segment> segments);
  Status FreeSubtree(int32_t idx);
  Status CollectSubtree(int32_t idx, std::vector<geom::Segment>* out) const;
  Status WriteLeafPages(Node* node);
  Status InsertAtNode(Node* node, const geom::Segment& s);
  Status EraseAtNode(Node* node, const geom::Segment& s);
  uint32_t SubtreeHeight(int32_t idx) const;

  io::BufferPool* pool_;
  IntervalTreeOptions options_;
  uint32_t fanout_ = 0;
  std::vector<Node> nodes_;
  std::vector<int32_t> free_nodes_;
  int32_t root_ = -1;
  uint64_t size_ = 0;
};

}  // namespace segdb::itree

#endif  // SEGDB_ITREE_INTERVAL_TREE_H_
