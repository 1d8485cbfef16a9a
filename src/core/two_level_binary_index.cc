#include "core/two_level_binary_index.h"

#include "geom/segment.h"

namespace segdb::core {

namespace {

using geom::Segment;

// BB[alpha] with alpha = 0.3: a child may keep up to 70 % of the segments
// below its node (plus a leaf) before the subtree is rebuilt, i.e. 1.4
// times the mean of the two children. A median split starts each child at
// <= 1/2 — exactly the audited bound 2*max(child) <= size + updates with
// no slack — so the 0.2 headroom is what lets Theta(size) updates pass
// between rebuilds, while 70 % per level keeps the height at most
// log_{1/0.7} n, about 1.94 log2 n: Theorem 1's O(log2 n) levels.
constexpr double kRebuildFactor = 1.4;

}  // namespace

TwoLevelBinaryIndex::TwoLevelBinaryIndex(io::BufferPool* pool,
                                         TwoLevelBinaryOptions options)
    : TwoLevelIndex(pool, Config{.fanout = 1,
                                 .rebuild_factor = kRebuildFactor,
                                 .pst_fanout = options.pst_fanout,
                                 .leaf_capacity = options.leaf_capacity,
                                 .fractional_cascading = true}) {}

Status TwoLevelBinaryIndex::Query(const VerticalSegmentQuery& q,
                                  std::vector<Segment>* out) const {
  // Theorem 1: O(log_B n + t/B) I/Os — a height-bounded descent with
  // O(1 + t_v/B) PST queries per visited node.
  SEGDB_IO_BOUND("log", "t/B");
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  int32_t cur = root_;
  std::vector<io::PageId> ahead;  // read-ahead hint for the next descent step
  while (cur >= 0) {
    const Node& node = nodes_[cur];
    {
      // One I/O per visited first-level node (its metadata block).
      auto meta = pool_->Fetch(node.meta_page);
      if (!meta.ok()) return meta.status();
    }
    if (node.is_leaf) return ScanLeafPages(node, q, out);
    const int64_t blx = node.boundaries[0];
    const BoundaryStructs& bs = node.per_boundary[0];
    if (q.x0 == blx) {
      // x0 on bl(v): C(v) plus both PSTs, then stop (nothing deeper
      // touches bl(v)).
      if (bs.c) {
        std::vector<pst::PointRecord> points;
        SEGDB_RETURN_IF_ERROR(bs.c->Query3Sided(-(geom::kMaxCoord + 1),
                                                q.yhi, q.ylo, &points));
        for (const auto& p : points) {
          out->push_back(Segment::Make({blx, p.x}, {blx, p.y}, p.id));
        }
      }
      if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, out));
      if (bs.r) {
        // L already reported every segment with x1 < bl(v); R adds only the
        // ones whose left part is degenerate.
        std::vector<Segment> rs;
        SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, &rs));
        for (const Segment& s : rs) {
          if (s.x1 == blx) out->push_back(s);
        }
      }
      return Status::OK();
    }
    if (q.x0 < blx) {
      if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, out));
      cur = node.children[0];
    } else {
      if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, out));
      cur = node.children[1];
    }
    if (cur >= 0) HintChild(cur, &ahead);
  }
  return Status::OK();
}

}  // namespace segdb::core
