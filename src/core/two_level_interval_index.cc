#include "core/two_level_interval_index.h"

#include <algorithm>

#include "geom/segment.h"

namespace segdb::core {

namespace {

using geom::Segment;

// A child may hold twice its fair share — the mean child — plus a leaf
// before the subtree is rebuilt. The quantile split starts every slab at
// about 1/(b+1) of the node, so a child must roughly double before it
// triggers, which leaves room for Theta(size) updates between rebuilds;
// and with b >= 2 twice the mean is at most 2/3 of the node, so each
// level shrinks by a constant factor and the height stays O(log_b n).
constexpr double kRebuildFactor = 2.0;

uint32_t Fanout(io::BufferPool* pool, const TwoLevelIntervalOptions& o) {
  if (o.fanout != 0) return std::max<uint32_t>(2, o.fanout);
  const uint32_t records_per_page =
      pool->page_size() / static_cast<uint32_t>(sizeof(Segment));
  return std::max<uint32_t>(2, records_per_page / 4);  // b = B/4
}

}  // namespace

TwoLevelIntervalIndex::TwoLevelIntervalIndex(io::BufferPool* pool,
                                             TwoLevelIntervalOptions options)
    : TwoLevelIndex(
          pool, Config{.fanout = Fanout(pool, options),
                       .rebuild_factor = kRebuildFactor,
                       .pst_fanout = options.pst_fanout,
                       .leaf_capacity = options.leaf_capacity,
                       .fractional_cascading = options.fractional_cascading}) {}

Status TwoLevelIntervalIndex::Query(const VerticalSegmentQuery& q,
                                    std::vector<Segment>* out) const {
  // Theorem 2: O(log_B n + sqrt(n/B) + t/B) I/Os — the sqrt term is the
  // multislab sweep at each visited interval-tree node.
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  int32_t cur = root_;
  while (cur >= 0) {
    const Node& node = nodes_[cur];
    {
      auto meta = pool_->Fetch(node.meta_page);
      if (!meta.ok()) return meta.status();
    }
    if (node.is_leaf) return ScanLeafPages(node, q, out);

    auto it = std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                               q.x0);
    const bool on_boundary =
        it != node.boundaries.end() && *it == q.x0;
    const uint32_t k =
        static_cast<uint32_t>(it - node.boundaries.begin());

    if (on_boundary) {
      // x0 == s_k: C_k, L_k, R_k and G, then stop (nothing deeper can
      // touch a boundary line).
      const BoundaryStructs& bs = node.per_boundary[k];
      if (bs.c) {
        std::vector<pst::PointRecord> points;
        SEGDB_RETURN_IF_ERROR(bs.c->Query3Sided(-(geom::kMaxCoord + 1),
                                                q.yhi, q.ylo, &points));
        for (const auto& p : points) {
          out->push_back(Segment::Make({q.x0, p.x}, {q.x0, p.y}, p.id));
        }
      }
      if (bs.l) {
        // L_k members have first crossed boundary s_k; those that also
        // cross s_{k+1} have a long part covering s_k and are reported by
        // G — keep only the ones G cannot see.
        std::vector<Segment> ls;
        SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, &ls));
        for (const Segment& s : ls) {
          if (k + 1 >= node.boundaries.size() ||
              s.x2 < node.boundaries[k + 1]) {
            out->push_back(s);
          }
        }
      }
      if (bs.r) {
        // R_k members have last crossed boundary s_k. Keep only those
        // whose first crossed boundary is also s_k (x1 == s_k): members
        // with an earlier crossing have a long part covering s_k (G
        // reports them), and x1 < s_k overlaps L_k's answers.
        std::vector<Segment> rs;
        SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, &rs));
        for (const Segment& s : rs) {
          if (s.x1 == q.x0) out->push_back(s);
        }
      }
      if (node.g) SEGDB_RETURN_IF_ERROR(node.g->Query(q.x0, q.ylo, q.yhi, out));
      return Status::OK();
    }

    // x0 inside slab k: R_{k-1}, L_k and G cover the node's segments
    // disjointly (see header).
    if (k >= 1) {
      const BoundaryStructs& bs = node.per_boundary[k - 1];
      if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, out));
    }
    if (k < node.boundaries.size()) {
      const BoundaryStructs& bs = node.per_boundary[k];
      if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, out));
    }
    if (node.g) SEGDB_RETURN_IF_ERROR(node.g->Query(q.x0, q.ylo, q.yhi, out));
    cur = node.children[k];
  }
  return Status::OK();
}

}  // namespace segdb::core
