// The first level shared by Solutions A and B (Sections 3 and 4 of the
// paper): an interval tree with fan-out b in the style of Arge and Vitter.
//
// Each internal node picks b slab-boundary lines s_0 < ... < s_{b-1}, the
// endpoint-x order statistics of its segment set. A segment stays at the
// highest node where it touches or crosses a boundary; otherwise it falls
// into the child of the slab that strictly contains it. Leaves hold <= B
// segments in raw pages. Per boundary s_i the node keeps:
//   C_i  — segments lying ON s_i: a PointPst over their y-extents;
//   L_i  — segments whose first crossed boundary is s_i, with x1 < s_i:
//          a left-extending LinePst based at s_i (stored whole, uncut);
//   R_i  — symmetric: last crossed boundary s_i, x2 > s_i;
// and, for the node, G: the segments crossing >= 2 boundaries, in a
// multislab segment tree (Section 4.3). G is created only when such a
// segment arrives.
//
// Solution A (TwoLevelBinaryIndex) is the b = 1 instance: one boundary is
// the median base line bl(v), C_0/L_0/R_0 are Section 3's C(v)/L(v)/R(v),
// the two slabs are the left and right children, and G never exists
// because no segment can cross two boundaries. Solution B
// (TwoLevelIntervalIndex) uses b = B/4.
//
// This class owns everything but the query: the node arena, the split,
// routing, the fault-atomic BulkLoad/Insert/Erase, the weight-balanced
// partial rebuilds and the audit. Query stays in each subclass because the
// static checker (tools/segdb_sema) derives the I/O class per function
// definition: Solution A's Query never reaches G, so it derives Theorem 1's
// ("log", "t/B"), and Solution B's derives Theorem 2's ("log", "sqrt",
// "t/B"). A shared Query would give both the union.
//
// First-level nodes are mirrored to one disk page each and that page is
// fetched on every query visit, so buffer-pool misses equal the paper's
// I/O count even though the directory also lives in memory.
#ifndef SEGDB_CORE_TWO_LEVEL_INDEX_H_
#define SEGDB_CORE_TWO_LEVEL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "pst/line_pst.h"
#include "pst/point_pst.h"
#include "segtree/multislab_segment_tree.h"
#include "util/status.h"

namespace segdb::core {

class TwoLevelIndex : public SegmentIndex {
 public:
  ~TwoLevelIndex() override;

  TwoLevelIndex(const TwoLevelIndex&) = delete;
  TwoLevelIndex& operator=(const TwoLevelIndex&) = delete;

  Status BulkLoad(std::span<const geom::Segment> segments) override;
  Status Insert(const geom::Segment& segment) override;
  Status Erase(const geom::Segment& segment) override;
  uint64_t size() const override { return size_; }
  uint64_t page_count() const override;

  // Boundaries per internal node (1 for Solution A).
  uint32_t fanout() const { return config_.fanout; }
  // First-level height (experiment instrumentation).
  uint32_t height() const;

  // Structural self-check (tests): per node, at most b strictly increasing
  // boundaries inside the ancestor slab; every stored segment in exactly
  // the C_i/L_i/R_i/G collections routing picks, with each segment stored
  // in both an L and an R (or in G) mirrored by id; the BB[alpha] bound
  // 2*max(child) <= size + updates_since_rebuild; size bookkeeping; and
  // every second-level structure's own invariants.
  Status CheckInvariants() const override;

 protected:
  struct Config {
    uint32_t fanout;        // boundaries per internal node, >= 1
    // Partial-rebuild trigger: a child subtree may hold at most this many
    // times the mean child size (plus one leaf) before the subtree is
    // rebuilt.
    double rebuild_factor;
    uint32_t pst_fanout;     // second-level PST fan-out, 0 = packed/auto
    uint32_t leaf_capacity;  // segments per leaf, 0 = one page's worth
    bool fractional_cascading;  // in G (Section 4.3); off = Lemma 4
  };

  struct BoundaryStructs {
    std::unique_ptr<pst::PointPst> c;
    std::unique_ptr<pst::LinePst> l;
    std::unique_ptr<pst::LinePst> r;
  };

  struct Node {
    bool is_leaf = false;
    std::vector<int64_t> boundaries;  // internal nodes
    std::vector<BoundaryStructs> per_boundary;
    std::unique_ptr<segtree::MultislabSegmentTree> g;
    std::vector<int32_t> children;  // children[k] = slab k, -1 none
    uint64_t subtree_size = 0;
    // Inserts + erases absorbed since the subtree was last (re)built: the
    // amortization guard for partial rebuilding (a rebuild is allowed only
    // after enough updates to pay for it, even when re-split boundaries
    // cannot improve balance on duplicate-heavy x distributions), and the
    // slack term of the audited bound 2*max(child) <= size + updates.
    uint64_t updates_since_rebuild = 0;
    io::PageId meta_page = io::kInvalidPageId;
    std::vector<io::PageId> leaf_pages;
    std::vector<geom::Segment> leaf_segments;  // mirror of leaf pages
  };

  TwoLevelIndex(io::BufferPool* pool, Config config);

  // Query steps shared by both solutions' Query: the filtered scan of a
  // leaf's pages, and the read-ahead hint for the child the descent moves
  // to next (staged pages are charged on first Fetch, so I/O counts stay
  // exact). `ahead` is scratch reused across the descent.
  Status ScanLeafPages(const Node& leaf, const VerticalSegmentQuery& q,
                       std::vector<geom::Segment>* out) const;
  void HintChild(int32_t child, std::vector<io::PageId>* ahead) const;

  io::BufferPool* pool_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;

 private:
  uint32_t LeafCapacity() const;
  pst::LinePstOptions PstOptions() const;
  segtree::MultislabOptions GOptions() const;

  // Takes a node slot from the free list (or grows the arena).
  int32_t AllocNode();
  // Builds a subtree for `segments`. Fault-atomic: on failure every page
  // and arena slot the partial build claimed is released before the error
  // returns, so a failed build is a no-op on the index.
  Result<int32_t> BuildSubtree(std::vector<geom::Segment> segments);
  Status BuildSubtreeAt(int32_t idx, std::vector<geom::Segment> segments);
  Status FreeSubtree(int32_t idx);
  Status CollectSubtree(int32_t idx, std::vector<geom::Segment>* out) const;
  Status WriteLeafPages(Node* node);
  // Inserts into the second-level structures of internal node `idx`; the
  // segment must touch one of the node's boundaries.
  Status InsertAtNode(int32_t idx, const geom::Segment& s);
  // Replaces the subtree at `path.back()` (the child in slot `slot` of the
  // node before it, or the root) by a fresh build of `segments`. The
  // replacement is built before the old subtree is freed, so a failed
  // build leaves the index untouched.
  Status ReplaceSubtree(const std::vector<int32_t>& path, size_t slot,
                        std::vector<geom::Segment> segments);
  Status CheckSubtree(int32_t idx, const int64_t* lo, const int64_t* hi,
                      uint64_t* total) const;
  uint32_t SubtreeHeight(int32_t idx) const;

  Config config_;
  std::vector<int32_t> free_nodes_;
  uint64_t size_ = 0;
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_TWO_LEVEL_INDEX_H_
