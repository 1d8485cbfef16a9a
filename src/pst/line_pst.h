// External priority search tree for line-based segments — Section 2 of
// Bertino, Catania & Shidlovsky (EDBT 1998).
//
// A set of segments is *line-based* w.r.t. a vertical base line x = c when
// every segment crosses or touches the line and extends into one fixed
// half-plane. (The paper draws the base line horizontal; the index's two
// use sites — L(v)/R(v) sets of both two-level structures — have vertical
// base lines, so that is our canonical frame. Horizontal constructions are
// served by geom::Transpose at the call site.)
//
// The structure answers the paper's query: report every stored segment
// intersected by a query segment *parallel to the base line*, i.e. the
// vertical segment x = qx, ylo <= y <= yhi with qx in the stored
// half-plane.
//
// Shape: each node (one disk page) stores up to `cap` segments of its
// subtree with the largest reach (max |x|-extent from the base line, the
// PST heap key) ordered by their intersection with the base line, plus up
// to `fanout` children that partition the remaining segments by base
// order. With fanout == 2 this is exactly the paper's binary external PST
// (Lemma 2: O(n) blocks, O(log2 n + t) query I/Os). With the default
// B-proportional fanout the root-to-leaf depth drops to O(log_B n), which
// realizes the query bound the paper obtains via P-range trees (Lemma 3) —
// see DESIGN.md for the substitution note.
//
// Space: the bulk build fills every node to cap - insert_slack() records
// except the last node of the rightmost path, so a loaded tree of n
// segments takes exactly ceil(n / (cap - insert_slack())) pages (Lemma 2's
// O(n/B) blocks at fill >= (cap - slack) / cap). The slack is the room the
// semi-dynamic push-down inserts into before it opens a page.
//
// Query algorithm (reconstruction of the paper's Find/Report; the appendix
// text is OCR-garbled — see DESIGN.md §8): NCT segments that both reach
// abscissa qx keep their base-line order at qx, so the answer is contiguous
// in base order among reaching segments. The traversal prunes a subtree
// when (a) its maximum reach (kept in the parent's directory) does not
// attain qx, or (b) a *fence* — a scanned segment proven to pass
// entirely below/above the query range — base-order-dominates the
// subtree's separator interval. At most the two boundary subtrees per
// level stay undecided, matching the paper's two-nodes-per-level queue.
// Every node is classified once per query: the Report traversal reuses the
// in-range hits of the nodes the two walks already scanned.
//
// Insertions (semi-dynamic case, Lemma 3(iii)): heap push-down with
// BB[alpha]-style partial rebuilding of unbalanced subtrees, amortizing to
// the paper's O(log_B n + log^2_B n / B) bound; measured in bench E7.
#ifndef SEGDB_PST_LINE_PST_H_
#define SEGDB_PST_LINE_PST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/segment.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::pst {

// Which half-plane of the base line the segments occupy.
enum class Direction { kRight, kLeft };

struct LinePstOptions {
  // Children per node. 0 = auto: proportional to the page capacity
  // (the "packed" mode, Lemma 3). Use 2 for the paper's binary PST
  // (Lemma 2).
  uint32_t fanout = 0;
};

class LinePst {
 public:
  // Segments inserted later must satisfy x1 <= base_x < x2 after mirroring
  // (kRight: the segment crosses/touches the base line and extends right;
  // kLeft: symmetric).
  LinePst(io::BufferPool* pool, int64_t base_x, Direction direction,
          LinePstOptions options = {});
  ~LinePst();

  LinePst(const LinePst&) = delete;
  LinePst& operator=(const LinePst&) = delete;

  int64_t base_x() const { return base_x_; }
  Direction direction() const { return direction_; }
  uint64_t size() const { return size_; }
  uint64_t page_count() const { return page_count_; }
  uint32_t fanout() const { return fanout_; }
  uint32_t node_capacity() const { return cap_; }
  // Records per node the bulk build leaves free for inserts.
  uint32_t insert_slack() const { return slack_; }

  // Replaces the contents. O(n) pages, packed nodes.
  Status BulkLoad(std::span<const geom::Segment> segments);

  // Semi-dynamic insertion (push-down + amortized partial rebuild).
  Status Insert(const geom::Segment& segment);

  // Deletion (the other half of the paper's update operation). Removing a
  // record never invalidates the pruning metadata — child reaches
  // remain upper bounds and separators remain order pivots — so deletion
  // is a descent plus local removal; a whole-tree repack triggers once
  // half the records are gone, amortizing to the insert bound.
  // NotFound when no such segment is stored.
  Status Erase(const geom::Segment& segment);

  // Appends to *out every stored segment intersecting the vertical query
  // segment x = qx, ylo <= y <= yhi. qx must lie in the stored half-plane
  // (qx >= base_x for kRight, qx <= base_x for kLeft); querying the other
  // half-plane is InvalidArgument (the paper's footnote 3: no segment can
  // intersect there).
  Status Query(int64_t qx, int64_t ylo, int64_t yhi,
               std::vector<geom::Segment>* out) const;

  // Frees all pages; the structure becomes empty.
  Status Clear();

  // Appends every stored segment (verification helper).
  Status CollectAll(std::vector<geom::Segment>* out) const;

  // Validates structural invariants (heap order, base order, separator
  // containment, subtree sizes). Test hook; O(n) I/Os.
  Status CheckInvariants() const;

 private:
  struct NodeHeader {
    uint32_t count = 0;         // segments stored in this node
    uint32_t num_children = 0;  // children actually present
    uint64_t subtree_size = 0;  // segments in the whole subtree
  };
  static constexpr uint32_t kHeaderBytes = 16;
  static_assert(sizeof(NodeHeader) == kHeaderBytes);

  // Free records per bulk-built node (at most a quarter of the node on
  // small pages). On segbench read_cold seed 501 (4 KiB pages, 107 records
  // a node), building without slack made 1,440 of the run's 4,118 PST
  // inserts open a fresh page and raised write_bytes_per_mutation from
  // 29,058 to 34,984 (+20 %); with a slack of 8 no insert opened a page.
  static constexpr uint32_t kInsertSlack = 8;
  // Partial-rebuild trigger: a child subtree may grow to
  // (kImbalance * its even share + one node) before its parent subtree is
  // repacked. At 2, a repacked subtree of m records takes at least
  // m / fanout inserts before it trips again, and repacking writes about
  // m / cap pages: O(1) page writes per insert per level at fanout ~ cap.
  static constexpr double kImbalance = 2.0;

  // Page layout: [NodeHeader][PageId child x fanout][u64 child_size x fanout]
  //              [i64 child_reach x fanout][Segment sep x (fanout-1)]
  //              [columnar seg strips x cap]
  // child_size mirrors each child's subtree_size so the insert path can
  // detect imbalance top-down without fetching children; child_reach is an
  // upper bound on the reach of every segment in the child's subtree, the
  // only thing query, insert and audit need of the child's top segment.
  //
  // The separators stay row-major — they are individually random-accessed
  // while routing. The stored-segment region at RegionOff() holds
  // io::ColumnarPageView strips (x1/x2/y1/y2/id lanes of cap each) so the
  // query's node scan runs as one branchless kernel pass; always access it
  // through a view constructed with capacity cap_.
  uint32_t ChildOff(uint32_t i) const {
    return kHeaderBytes + i * sizeof(io::PageId);
  }
  uint32_t ChildSizeOff(uint32_t i) const {
    return ChildOff(fanout_) + i * sizeof(uint64_t);
  }
  uint32_t ReachOff(uint32_t i) const {
    return ChildSizeOff(fanout_) + i * sizeof(int64_t);
  }
  uint32_t SepOff(uint32_t i) const {
    return ReachOff(fanout_) + i * static_cast<uint32_t>(sizeof(geom::Segment));
  }
  uint32_t RegionOff() const { return SepOff(fanout_ - 1); }

  // Canonical-frame helpers (segments are stored mirrored for kLeft so the
  // whole structure reasons about right-extending segments only).
  geom::Segment Canonical(const geom::Segment& s) const;
  geom::Segment Original(const geom::Segment& s) const;

  // Total base order: intersection with the base line, slope, reach, id.
  int BaseCompare(const geom::Segment& a, const geom::Segment& b) const;

  Status ValidateInput(const geom::Segment& canonical) const;

  // Recursive packed build over `segs` (base-ordered). Returns the new
  // subtree root and writes the subtree's maximum reach to *max_reach.
  Result<io::PageId> BuildSubtree(std::span<const geom::Segment> segs,
                                  int64_t* max_reach);

  Status FreeSubtree(io::PageId id);
  Status CollectSubtree(io::PageId id, std::vector<geom::Segment>* out) const;

  Status InsertCanonical(geom::Segment s);
  Status RebuildAll();

  Status CheckSubtree(io::PageId id, const geom::Segment* lo,
                      const geom::Segment* hi, int64_t max_reach,
                      uint64_t* subtree_size) const;

  io::BufferPool* pool_;
  const int64_t base_x_;
  const Direction direction_;
  uint32_t fanout_ = 0;
  uint32_t cap_ = 0;
  uint32_t slack_ = 0;
  io::PageId root_ = io::kInvalidPageId;
  uint64_t size_ = 0;
  uint64_t page_count_ = 0;
  uint64_t packed_size_ = 0;  // size at the last bulk build / repack
};

}  // namespace segdb::pst

#endif  // SEGDB_PST_LINE_PST_H_
