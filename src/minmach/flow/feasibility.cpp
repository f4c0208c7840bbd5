#include "minmach/flow/feasibility.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "minmach/algos/pack_ub.hpp"
#include "minmach/core/bounds.hpp"
#include "minmach/core/canonical.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/load_sweep_simd.hpp"
#include "minmach/flow/dinic.hpp"
#include "minmach/util/simd.hpp"
#include "minmach/obs/histogram.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/util/opt_cache.hpp"

namespace minmach {

namespace {

// ---- integer fast path -------------------------------------------------
//
// When every time parameter fits a common small grid (LCM of denominators
// times values fits in int64 with headroom for m * length sums), the Horn
// network runs over __int128 capacities instead of BigInt rationals --
// typically 50-100x faster. Adversarial instances with unbounded
// denominators fall back to the exact rational network.

struct IntegerGrid {
  bool usable = false;
  std::vector<std::int64_t> release;
  std::vector<std::int64_t> deadline;
  std::vector<std::int64_t> processing;
  // Multiplier taking original Rat values onto the grid (the denominator
  // lcm; 1 for the small-integer fast path). The dynamic oracle keeps it so
  // later insert_job() calls can scale new jobs onto the SAME grid -- or
  // detect that they do not fit and fall back to the rational network.
  Rat scale{1};
};

IntegerGrid try_integer_grid(const Instance& instance) {
  IntegerGrid grid;
  BigInt lcm = instance.denominator_lcm();
  // Guard: scaled values must fit comfortably (sums of m * length stay
  // within __int128 as long as individual values fit int64 / n).
  if (lcm.bit_length() > 40) return grid;
  const Rat scale(lcm, BigInt(1));
  grid.release.reserve(instance.size());
  grid.deadline.reserve(instance.size());
  grid.processing.reserve(instance.size());
  // Scales one field, or reports the grid unusable; each value is scaled
  // exactly once.
  auto scale_into = [&scale](const Rat& value, std::vector<std::int64_t>& out) {
    BigInt scaled = (value * scale).num();  // integral by construction
    if (scaled.bit_length() > 62) return false;
    out.push_back(scaled.to_int64());
    return true;
  };
  for (const Job& j : instance.jobs()) {
    if (!scale_into(j.release, grid.release) ||
        !scale_into(j.deadline, grid.deadline) ||
        !scale_into(j.processing, grid.processing))
      return grid;
  }
  grid.usable = true;
  grid.scale = scale;
  return grid;
}

// SIMD-mode shortcut for the common all-integer case (DESIGN.md §12):
// when every job field is already a small integer within the same 62-bit
// guard, the grid is the values themselves (denominator lcm is 1, scale is
// the identity), so the BigInt lcm computation and the 3n exact Rat
// multiplications of try_integer_grid can be skipped. Succeeds only on
// instances try_integer_grid would also accept, and produces the same
// grid, so integer_mode and every downstream verdict are unchanged; also
// reports total work so the caller can derive the density bound without
// rationals (declined if it overflows int64 -- the general path then
// reproduces the seed arithmetic exactly).
struct SmallGrid {
  IntegerGrid grid;
  std::int64_t total_work = 0;
};

SmallGrid try_small_integer_grid(const Instance& instance) {
  SmallGrid out;
  constexpr std::int64_t kMaxAbs = (std::int64_t{1} << 62) - 1;  // bit_length <= 62
  IntegerGrid& grid = out.grid;
  grid.release.reserve(instance.size());
  grid.deadline.reserve(instance.size());
  grid.processing.reserve(instance.size());
  auto small_into = [](const Rat& value, std::vector<std::int64_t>& dst) {
    if (!value.is_integer() || !value.num().is_small()) return false;
    const std::int64_t v = value.num().small_value();
    if (v < -kMaxAbs || v > kMaxAbs) return false;
    dst.push_back(v);
    return true;
  };
  __int128 total = 0;
  for (const Job& j : instance.jobs()) {
    if (!small_into(j.release, grid.release) ||
        !small_into(j.deadline, grid.deadline) ||
        !small_into(j.processing, grid.processing))
      return out;
    total += grid.processing.back();
  }
  if (total > INT64_MAX) return out;
  out.total_work = static_cast<std::int64_t>(total);
  grid.usable = true;
  return out;
}

// ---- allocation network (solve_migratory) ------------------------------

struct Network {
  Dinic<Rat> graph;
  std::vector<Rat> points;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
      job_segment_edges;  // per job: (segment index, edge handle)
  Rat total_work;
  std::size_t source;
  std::size_t sink;
};

// Dense per-segment network, kept for allocation extraction: reading off
// per-job per-segment processing needs one addressable edge per pair, so
// the tree compression does not apply here. Job ranges are binary-searched
// (both window endpoints are event points) instead of scanning all S
// segments per job.
Network build_network(const Instance& instance, std::int64_t machines) {
  std::vector<Rat> points = instance.event_points();
  const std::size_t n = instance.size();
  const std::size_t segments = points.empty() ? 0 : points.size() - 1;
  // Node layout: 0 = source, 1..n = jobs, n+1..n+segments = segments, last =
  // sink.
  Network net{Dinic<Rat>(n + segments + 2),
              points,
              std::vector<std::vector<std::pair<std::size_t, std::size_t>>>(n),
              Rat(0),
              0,
              n + segments + 1};

  const Rat m_rat(machines);
  for (std::size_t k = 0; k < segments; ++k) {
    Rat length = net.points[k + 1] - net.points[k];
    net.graph.add_edge(n + 1 + k, net.sink, m_rat * length);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = instance.job(j);
    net.total_work += job.processing;
    net.graph.add_edge(net.source, 1 + j, job.processing);
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(net.points.begin(), net.points.end(), job.release) -
        net.points.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(net.points.begin(), net.points.end(), job.deadline) -
        net.points.begin());
    for (std::size_t k = lo; k < hi; ++k) {
      Rat length = net.points[k + 1] - net.points[k];
      std::size_t handle = net.graph.add_edge(1 + j, n + 1 + k, length);
      net.job_segment_edges[j].emplace_back(k, handle);
    }
  }
  return net;
}

// ---- oracle network ----------------------------------------------------

struct BuildCounters {
  std::uint64_t tree_edges = 0;    // job -> canonical segment-tree node
  std::uint64_t direct_edges = 0;  // job -> capped leaf (|segment| < p_j)
  std::size_t segments = 0;
};

// One probe network in a fixed capacity domain (__int128 on the integer
// grid, Rat otherwise). Instance data is kept in the same domain so the
// sweep lower bound reuses it.
template <typename Cap>
struct OracleNet {
  std::vector<Cap> release, deadline, processing;  // per job
  std::vector<Cap> points;                         // event points
  std::vector<Cap> seg_length;
  Dinic<Cap> graph{2};
  std::vector<std::size_t> sink_handle;
  Cap total_work{0};
  Cap routed{0};  // flow currently in the graph (accumulates across warm probes)
  std::int64_t flow_m = 0;  // machine count the routed flow was admitted under
  std::size_t source = 0;
  std::size_t sink = 0;

  struct TreeNode {
    std::size_t lo, hi;       // covered segment range [lo, hi)
    std::size_t left, right;  // child node ids (npos for leaves)
    Cap length;               // sum of covered segment lengths
  };
  // Scratch for the segment-tree build, kept across builds (and across
  // pooled-Impl leases) so a rebuild only clears, never reallocates.
  struct BuildScratch {
    std::vector<TreeNode> tree;
    std::vector<std::size_t> leaf_node;
    std::vector<std::size_t> jobs_by_processing;
    std::vector<std::size_t> leaves_by_length;
    std::vector<std::size_t> capped;  // sorted capped leaf positions
  };
  BuildScratch scratch;

  // ---- dynamic layout state (DESIGN.md §15) ----------------------------
  //
  // After the first splice the network switches to a FLAT layout: no
  // segment tree, every job keeps one direct edge per covered leaf with
  // cap min(p_j, |leaf|). That is max-flow-equivalent to the dense Horn
  // network (a job routes at most p_j anywhere, so the min() only
  // reproduces the binding per-segment cap), and unlike the tree cover it
  // survives leaf SPLITS locally: a cover edge's cap-free condition
  // (p_j <= every covered leaf length) can break when a new event point
  // halves a leaf, but a direct edge just re-caps to min(p_j, new length).
  struct DynIn {
    std::uint32_t slot;    // job slot the edge belongs to
    std::uint32_t gen;     // slot generation at insertion (stale if bumped)
    std::size_t handle;    // job -> leaf edge
  };
  struct DynState {
    bool active = false;
    std::vector<std::size_t> job_node;    // per slot (kNpos: none yet)
    std::vector<std::size_t> src_handle;  // per slot (kNpos: none yet)
    // Bumped when a slot retires: leaf_in entries with an older gen are
    // stale (their edges are zeroed) and get purged on the next split.
    std::vector<std::uint32_t> gen;
    std::vector<std::vector<std::size_t>> out;  // per slot: job->leaf edges
    std::vector<std::vector<DynIn>> leaf_in;    // per leaf POSITION
    std::vector<std::size_t> pos_of_node;       // graph node -> leaf position
    std::uint64_t live_edges = 0;
    std::uint64_t dead_edges = 0;  // zeroed by retires; triggers compaction

    void reset() {
      active = false;
      job_node.clear();
      src_handle.clear();
      gen.clear();
      out.clear();
      leaf_in.clear();
      pos_of_node.clear();
      live_edges = 0;
      dead_edges = 0;
    }
  };
  DynState dyn;

  void build(BuildCounters& counters);
  // Returns the verdict; sets `warm` to whether the probe reused the
  // routed flow (capacities only grew) or reset it.
  bool probe(std::int64_t machines, bool& warm);
  [[nodiscard]] std::int64_t sweep_bound() const;

  // Dynamic layout (definitions below build()).
  void build_dynamic(BuildCounters& counters);
  void splice_insert(std::size_t slot);
  void splice_remove(std::size_t slot);
  void ensure_point(const Cap& x);
  void split_leaf(std::size_t k, const Cap& x);
  void recompute_points();
  [[nodiscard]] std::size_t leaf_node_at(std::size_t pos) const {
    // The reverse twin of the leaf->sink edge points back at the leaf.
    return graph.edge_target(sink_handle[pos] ^ 1);
  }
  std::size_t new_node() {
    const std::size_t id = graph.add_node();
    dyn.pos_of_node.push_back(static_cast<std::size_t>(-1));
    return id;
  }
  void refresh_positions(std::size_t from) {
    for (std::size_t pos = from; pos < seg_length.size(); ++pos)
      dyn.pos_of_node[leaf_node_at(pos)] = pos;
  }

  // Rewinds to the just-constructed logical state, keeping every
  // container's storage (the graph recycles via build()'s reinit). Used
  // when a pooled Impl is leased for a new instance.
  void reset_net() {
    release.clear();
    deadline.clear();
    processing.clear();
    points.clear();
    seg_length.clear();
    sink_handle.clear();
    total_work = Cap(0);
    routed = Cap(0);
    flow_m = 0;
    source = 0;
    sink = 0;
    dyn.reset();
  }
};

template <typename Cap>
void OracleNet<Cap>::build(BuildCounters& counters) {
  const std::size_t n = release.size();
  const std::size_t segments = points.empty() ? 0 : points.size() - 1;
  counters.segments = segments;
  seg_length.resize(segments);
  for (std::size_t k = 0; k < segments; ++k)
    seg_length[k] = points[k + 1] - points[k];
  if constexpr (std::is_same_v<Cap, Rat>) {
    total_work = rat_batch::sum(processing.data(), processing.size(),
                                util::simd::active());
  } else {
    total_work = Cap(0);
    for (const Cap& p : processing) total_work += p;
  }
  source = 0;

  // Segment-tree layout. The per-(job, segment) capacity |segment| can
  // only bind where |segment| < p_j; those pairs keep direct capped edges.
  // Everywhere else the cap is vacuous (a job routes at most p_j anywhere),
  // so maximal cap-free runs of a job's range are covered by O(log S)
  // canonical tree nodes whose internal edges merely forward capacity down
  // to the leaves. DESIGN.md proves this network max-flow-equivalent to
  // the dense one.
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  BuildScratch& s = scratch;
  std::vector<TreeNode>& tree = s.tree;
  tree.clear();
  std::vector<std::size_t>& leaf_node = s.leaf_node;
  leaf_node.assign(segments, 0);
  // Named struct instead of std::function: recursive without a per-call
  // heap allocation for the callable.
  struct BuildNode {
    std::vector<TreeNode>& tree;
    std::vector<std::size_t>& leaf_node;
    const std::vector<Cap>& seg_length;
    std::size_t operator()(std::size_t lo, std::size_t hi) {
      std::size_t id = tree.size();
      tree.push_back({lo, hi, npos, npos, Cap(0)});
      if (hi - lo == 1) {
        tree[id].length = seg_length[lo];
        leaf_node[lo] = id;
        return id;
      }
      std::size_t mid = lo + (hi - lo) / 2;
      std::size_t left = (*this)(lo, mid);
      std::size_t right = (*this)(mid, hi);
      tree[id].left = left;
      tree[id].right = right;
      tree[id].length = tree[left].length + tree[right].length;
      return id;
    }
  } build_node{tree, leaf_node, seg_length};
  if (segments > 0) build_node(0, segments);

  // Node layout: 0 = source, 1..n = jobs, n+1..n+|tree| = tree nodes
  // (leaves included), last = sink.
  sink = n + tree.size() + 1;
  graph.reinit(n + tree.size() + 2);
  auto tree_graph_node = [n](std::size_t id) { return n + 1 + id; };
  // Internal nodes forward capacity to their children. The edges carry
  // total_work, an upper bound on any source->sink flow, so they never
  // bind and stay valid across all probes (warm starts included).
  for (std::size_t t = 0; t < tree.size(); ++t) {
    if (tree[t].left == npos) continue;
    graph.add_edge(tree_graph_node(t), tree_graph_node(tree[t].left),
                   total_work);
    graph.add_edge(tree_graph_node(t), tree_graph_node(tree[t].right),
                   total_work);
  }
  sink_handle.clear();
  for (std::size_t k = 0; k < segments; ++k)
    sink_handle.push_back(
        graph.add_edge(tree_graph_node(leaf_node[k]), sink, Cap(0)));
  for (std::size_t j = 0; j < n; ++j)
    graph.add_edge(source, 1 + j, processing[j]);

  // Leaves a job must reach through a capped direct edge: processed in
  // ascending p_j so the capped-position set only ever grows.
  std::vector<std::size_t>& jobs_by_processing = s.jobs_by_processing;
  std::vector<std::size_t>& leaves_by_length = s.leaves_by_length;
  jobs_by_processing.resize(n);
  leaves_by_length.resize(segments);
  for (std::size_t j = 0; j < n; ++j) jobs_by_processing[j] = j;
  for (std::size_t k = 0; k < segments; ++k) leaves_by_length[k] = k;
  std::sort(jobs_by_processing.begin(), jobs_by_processing.end(),
            [&](std::size_t x, std::size_t y) {
              return processing[x] < processing[y] ||
                     (processing[x] == processing[y] && x < y);
            });
  std::sort(leaves_by_length.begin(), leaves_by_length.end(),
            [&](std::size_t x, std::size_t y) {
              return seg_length[x] < seg_length[y] ||
                     (seg_length[x] == seg_length[y] && x < y);
            });

  struct Cover {
    OracleNet<Cap>& net;
    const std::vector<TreeNode>& tree;
    BuildCounters& counters;
    std::size_t base;  // graph id of tree node 0
    void operator()(std::size_t node, std::size_t x, std::size_t y,
                    std::size_t job) {
      const TreeNode& v = tree[node];
      if (v.lo >= y || v.hi <= x) return;
      if (x <= v.lo && v.hi <= y) {
        Cap cap =
            net.processing[job] < v.length ? net.processing[job] : v.length;
        net.graph.add_edge(1 + job, base + node, cap);
        ++counters.tree_edges;
        return;
      }
      (*this)(v.left, x, y, job);
      (*this)(v.right, x, y, job);
    }
  } cover{*this, tree, counters, n + 1};

  // Leaf positions with |segment| < p_j so far, kept sorted by position.
  // The sorted-vector insert is O(|capped|) per element but |capped| <=
  // segments and the pooled storage makes the whole loop allocation-free.
  std::vector<std::size_t>& capped = s.capped;
  capped.clear();
  std::size_t next_leaf = 0;
  for (std::size_t j : jobs_by_processing) {
    while (next_leaf < segments &&
           seg_length[leaves_by_length[next_leaf]] < processing[j]) {
      const std::size_t pos = leaves_by_length[next_leaf++];
      capped.insert(std::lower_bound(capped.begin(), capped.end(), pos), pos);
    }
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), release[j]) -
        points.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), deadline[j]) -
        points.begin());
    std::size_t run_start = lo;
    for (auto it = std::lower_bound(capped.begin(), capped.end(), lo);
         it != capped.end() && *it < hi; ++it) {
      const std::size_t pos = *it;
      graph.add_edge(1 + j, tree_graph_node(leaf_node[pos]), seg_length[pos]);
      ++counters.direct_edges;
      if (run_start < pos) cover(0, run_start, pos, j);
      run_start = pos + 1;
    }
    if (run_start < hi) cover(0, run_start, hi, j);
  }
}

template <typename Cap>
void OracleNet<Cap>::recompute_points() {
  points.clear();
  points.insert(points.end(), release.begin(), release.end());
  points.insert(points.end(), deadline.begin(), deadline.end());
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
}

// Builds the flat dynamic layout from the (compacted, all-live) job arrays.
// Node layout: 0 = source, 1 = sink -- the sink id must be STABLE, unlike
// the batch layouts, because splices append nodes -- then leaves in
// position order, then jobs in slot order. probe() works unchanged: the
// pos-aligned sink_handle/seg_length arrays are the only thing it touches.
template <typename Cap>
void OracleNet<Cap>::build_dynamic(BuildCounters& counters) {
  const std::size_t n = release.size();
  recompute_points();
  const std::size_t segments = points.empty() ? 0 : points.size() - 1;
  counters.segments = segments;
  seg_length.resize(segments);
  for (std::size_t k = 0; k < segments; ++k)
    seg_length[k] = points[k + 1] - points[k];
  total_work = Cap(0);
  for (const Cap& p : processing) total_work += p;
  source = 0;
  sink = 1;
  graph.reinit(2 + segments + n);
  dyn.reset();
  dyn.active = true;
  dyn.job_node.assign(n, static_cast<std::size_t>(-1));
  dyn.src_handle.assign(n, static_cast<std::size_t>(-1));
  dyn.gen.assign(n, 0);
  dyn.out.assign(n, {});
  dyn.leaf_in.assign(segments, {});
  dyn.pos_of_node.assign(2 + segments + n, static_cast<std::size_t>(-1));
  sink_handle.clear();
  for (std::size_t k = 0; k < segments; ++k) {
    dyn.pos_of_node[2 + k] = k;
    sink_handle.push_back(graph.add_edge(2 + k, sink, Cap(0)));
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t node = 2 + segments + j;
    dyn.job_node[j] = node;
    dyn.src_handle[j] = graph.add_edge(source, node, processing[j]);
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), release[j]) -
        points.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), deadline[j]) -
        points.begin());
    for (std::size_t k = lo; k < hi; ++k) {
      const Cap cap =
          processing[j] < seg_length[k] ? processing[j] : seg_length[k];
      const std::size_t h = graph.add_edge(node, 2 + k, cap);
      dyn.out[j].push_back(h);
      dyn.leaf_in[k].push_back({static_cast<std::uint32_t>(j), 0, h});
      ++dyn.live_edges;
      ++counters.direct_edges;
    }
  }
  routed = Cap(0);
  flow_m = 0;
}

// Makes x an event point. Three cases: already one (no-op), outside the
// current horizon (a fresh boundary leaf appears, no flow touched), or
// strictly inside a leaf (split_leaf). New sink edges open at flow_m *
// length so the warm probe's uniform delta retune stays correct.
template <typename Cap>
void OracleNet<Cap>::ensure_point(const Cap& x) {
  auto it = std::lower_bound(points.begin(), points.end(), x);
  if (it != points.end() && *it == x) return;
  obs::Registry& registry = obs::Registry::global();
  const std::size_t pos = static_cast<std::size_t>(it - points.begin());
  if (pos == 0 || pos == points.size()) {
    const bool left = pos == 0;
    const Cap len = left ? points.front() - x : x - points.back();
    const std::size_t node = new_node();
    const std::size_t hb = graph.add_edge(node, sink, Cap(flow_m) * len);
    if (left) {
      points.insert(points.begin(), x);
      seg_length.insert(seg_length.begin(), len);
      sink_handle.insert(sink_handle.begin(), hb);
      // NB: emplace, not insert(it, {}) -- the empty braced list would
      // select the initializer_list overload and insert zero elements.
      dyn.leaf_in.emplace(dyn.leaf_in.begin());
      dyn.pos_of_node[node] = 0;
      refresh_positions(1);
    } else {
      dyn.pos_of_node[node] = seg_length.size();
      points.push_back(x);
      seg_length.push_back(len);
      sink_handle.push_back(hb);
      dyn.leaf_in.emplace_back();
    }
    registry.counter("dyn.edges_patched").add();
    return;
  }
  split_leaf(pos - 1, x);
}

// Splits leaf k = [t_k, t_k+1) at an interior point x. All flow crossing
// the leaf is drained first -- cancelled along its full source->job->leaf->
// sink triple, which keeps conservation at every node without any path
// walking, because this layout pins each flow unit to exactly one such
// triple. The old leaf node keeps the left half (handles stay valid); the
// right half gets a fresh node, and every surviving in-edge job -- whose
// window necessarily covers BOTH halves, since windows begin/end on event
// points -- gets its old edge re-capped and one new edge added.
template <typename Cap>
void OracleNet<Cap>::split_leaf(std::size_t k, const Cap& x) {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dyn.leaf_splits").add();
  std::vector<DynIn> survivors;
  survivors.reserve(dyn.leaf_in[k].size());
  for (const DynIn& in : dyn.leaf_in[k]) {
    if (dyn.gen[in.slot] != in.gen) continue;  // retired slot: purge
    const Cap f = graph.flow_on(in.handle);
    if (Cap(0) < f) {
      graph.cancel_flow(dyn.src_handle[in.slot], f);
      graph.cancel_flow(in.handle, f);
      graph.cancel_flow(sink_handle[k], f);
      routed -= f;
      registry.counter("dyn.drained_paths").add();
    }
    survivors.push_back(in);
  }
  const Cap len_a = x - points[k];
  const Cap len_b = points[k + 1] - x;
  seg_length[k] = len_a;
  graph.set_capacity(sink_handle[k], Cap(flow_m) * len_a);
  const std::size_t node_b = new_node();
  const std::size_t hb = graph.add_edge(node_b, sink, Cap(flow_m) * len_b);
  points.insert(points.begin() + static_cast<std::ptrdiff_t>(k) + 1, x);
  seg_length.insert(seg_length.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                    len_b);
  sink_handle.insert(sink_handle.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                     hb);
  // NB: emplace, not insert(it, {}) -- see ensure_point.
  dyn.leaf_in.emplace(dyn.leaf_in.begin() + static_cast<std::ptrdiff_t>(k) + 1);
  dyn.pos_of_node[node_b] = k + 1;
  refresh_positions(k + 2);
  std::uint64_t patched = 1;  // the new sink edge
  for (const DynIn& in : survivors) {
    const Cap& p = processing[in.slot];
    graph.set_capacity(in.handle, p < len_a ? p : len_a);
    const Cap cap_b = p < len_b ? p : len_b;
    const std::size_t h2 = graph.add_edge(dyn.job_node[in.slot], node_b, cap_b);
    dyn.out[in.slot].push_back(h2);
    dyn.leaf_in[k + 1].push_back({in.slot, in.gen, h2});
    ++dyn.live_edges;
    patched += 2;
  }
  dyn.leaf_in[k] = std::move(survivors);
  registry.counter("dyn.edges_patched").add(patched);
}

// Splices a freshly stored slot into the live layout: at most two leaf
// splits for the new window endpoints, then one source edge (recycled via
// set_capacity when the slot is reused) and one direct edge per covered
// leaf. The routed flow is untouched -- it is still feasible, merely no
// longer maximal -- so the next probe re-augments warm from the deficit.
template <typename Cap>
void OracleNet<Cap>::splice_insert(std::size_t slot) {
  obs::Registry& registry = obs::Registry::global();
  ensure_point(release[slot]);
  ensure_point(deadline[slot]);
  const Cap& p = processing[slot];
  if (slot >= dyn.job_node.size()) {
    dyn.job_node.resize(slot + 1, static_cast<std::size_t>(-1));
    dyn.src_handle.resize(slot + 1, static_cast<std::size_t>(-1));
    dyn.gen.resize(slot + 1, 0);
    dyn.out.resize(slot + 1);
  }
  if (dyn.job_node[slot] == static_cast<std::size_t>(-1)) {
    dyn.job_node[slot] = new_node();
    dyn.src_handle[slot] = graph.add_edge(source, dyn.job_node[slot], p);
  } else {
    // Recycled slot: its old flow was drained at retirement.
    graph.set_capacity(dyn.src_handle[slot], p);
  }
  const std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(points.begin(), points.end(), release[slot]) -
      points.begin());
  const std::size_t hi = static_cast<std::size_t>(
      std::lower_bound(points.begin(), points.end(), deadline[slot]) -
      points.begin());
  std::uint64_t patched = 1;  // the source edge
  for (std::size_t k = lo; k < hi; ++k) {
    const Cap cap = p < seg_length[k] ? p : seg_length[k];
    const std::size_t h = graph.add_edge(dyn.job_node[slot], leaf_node_at(k),
                                         cap);
    dyn.out[slot].push_back(h);
    dyn.leaf_in[k].push_back(
        {static_cast<std::uint32_t>(slot), dyn.gen[slot], h});
    ++dyn.live_edges;
    ++patched;
  }
  total_work += p;
  registry.counter("dyn.edges_patched").add(patched);
}

// Retires a slot: drain its flow triple-by-triple (the out-edge handles
// pin each triple's leaf via pos_of_node), zero its capacities, and bump
// the generation so stale leaf_in entries purge lazily. The remaining flow
// is again feasible for the remaining jobs, so the next probe at the same
// machine count only has to CHECK maximality (one BFS), not re-solve.
template <typename Cap>
void OracleNet<Cap>::splice_remove(std::size_t slot) {
  obs::Registry& registry = obs::Registry::global();
  std::uint64_t patched = 1;  // the source edge
  for (const std::size_t h : dyn.out[slot]) {
    const Cap f = graph.flow_on(h);
    if (Cap(0) < f) {
      const std::size_t pos = dyn.pos_of_node[graph.edge_target(h)];
      graph.cancel_flow(dyn.src_handle[slot], f);
      graph.cancel_flow(h, f);
      graph.cancel_flow(sink_handle[pos], f);
      routed -= f;
      registry.counter("dyn.drained_paths").add();
    }
    graph.set_capacity(h, Cap(0));
    ++dyn.dead_edges;
    --dyn.live_edges;
    ++patched;
  }
  dyn.out[slot].clear();
  graph.set_capacity(dyn.src_handle[slot], Cap(0));
  ++dyn.gen[slot];
  total_work -= processing[slot];
  registry.counter("dyn.edges_patched").add(patched);
}

template <typename Cap>
bool OracleNet<Cap>::probe(std::int64_t machines, bool& warm) {
  warm = machines >= flow_m;
  if (warm) {
    // Sink capacities only grow, so the routed flow stays feasible and
    // max_flow() resumes from the residual graph.
    if (machines > flow_m) {
      const Cap delta(machines - flow_m);
      for (std::size_t k = 0; k < sink_handle.size(); ++k)
        graph.increase_capacity(sink_handle[k], delta * seg_length[k]);
    }
  } else {
    const Cap m_cap(machines);
    for (std::size_t k = 0; k < sink_handle.size(); ++k)
      graph.set_capacity(sink_handle[k], m_cap * seg_length[k]);
    graph.reset_flow();
    routed = Cap(0);
  }
  routed += graph.max_flow(source, sink);
  flow_m = machines;
  return routed == total_work;
}

// Array-level body of OracleNet::sweep_bound, shared with the dynamic
// oracle's live views (compacted copies that mask retired slots): the
// bound must see EXACTLY the live job set -- a dead slot's work would
// inflate it above OPT, which is unsound -- and running the same kernel on
// the same values keeps dynamic and batch lower bounds bit-identical.
template <typename Cap>
std::int64_t sweep_bound_arrays(const std::vector<Cap>& release,
                                const std::vector<Cap>& deadline,
                                const std::vector<Cap>& processing,
                                const std::vector<Cap>& points) {
  // Left-endpoint budget: caps the sweep at O(budget * (n + S)). The bound
  // stays certified (subset of intervals); any slack vs the exact value is
  // absorbed by a few extra warm ascending probes, which cost one residual
  // augmentation each -- cheaper than the full O(S * (n + S)) sweep on
  // instances with many event points.
  constexpr std::size_t kLeftBudget = 256;
  const std::size_t stride =
      points.size() <= 1 ? 1
                         : std::max<std::size_t>(
                               1, (points.size() - 1) / kLeftBudget);
  if constexpr (std::is_same_v<Cap, __int128>) {
    // Integer grid + SIMD dispatch: run the vectorized int64 kernel. Grid
    // values fit int64 by the try_integer_grid guard; the kernel spills
    // back to this generic path internally if its tighter overflow guard
    // rejects the instance. Bit-identical results either way.
    if (util::simd::active()) {
      auto narrow = [](const std::vector<__int128>& v) {
        std::vector<std::int64_t> out(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
          out[i] = static_cast<std::int64_t>(v[i]);
        return out;
      };
      return sweep_load_bound_i64(narrow(release), narrow(deadline),
                                  narrow(processing), narrow(points), stride,
                                  /*use_avx2=*/true)
          .machines;
    }
  }
  return sweep_load_bound(release, deadline, processing, points,
                          [](const Cap& c, const Cap& len) {
                            if constexpr (std::is_same_v<Cap, Rat>) {
                              return (c / len).ceil().to_int64();
                            } else {
                              return static_cast<std::int64_t>(
                                  (c + len - 1) / len);
                            }
                          },
                          stride)
      .machines;
}

template <typename Cap>
std::int64_t OracleNet<Cap>::sweep_bound() const {
  return sweep_bound_arrays(release, deadline, processing, points);
}

// Live view of a (possibly edited) net: the live slots' values plus their
// OWN event points. Both matter -- the net's member arrays may still hold
// retired slots' values, and its member `points` may hold their (or gap
// boundary) event points, either of which would skew the sweep. The copy
// is O(n log n) once per post-edit bound, then cached via lb_cache.
template <typename Cap>
struct LiveArrays {
  std::vector<Cap> release, deadline, processing, points;
};

template <typename Cap>
LiveArrays<Cap> live_view(const OracleNet<Cap>& net,
                          const std::vector<char>& live) {
  LiveArrays<Cap> v;
  for (std::size_t s = 0; s < live.size(); ++s) {
    if (!live[s]) continue;
    v.release.push_back(net.release[s]);
    v.deadline.push_back(net.deadline[s]);
    v.processing.push_back(net.processing[s]);
  }
  v.points.insert(v.points.end(), v.release.begin(), v.release.end());
  v.points.insert(v.points.end(), v.deadline.begin(), v.deadline.end());
  std::sort(v.points.begin(), v.points.end());
  v.points.erase(std::unique(v.points.begin(), v.points.end()),
                 v.points.end());
  return v;
}

}  // namespace

// ---- incremental oracle ------------------------------------------------

struct FeasibilityOracle::Impl {
  bool empty = false;
  bool well_formed = true;
  bool integer_mode = false;
  std::int64_t job_count = 0;
  std::int64_t density_lb = 1;
  std::optional<std::int64_t> lb_cache;  // density + optional sweep, lazy

  // Monotone verdict memo: feasible for all m >= min_feasible, infeasible
  // for all m <= max_infeasible.
  std::int64_t min_feasible = 0;
  std::int64_t max_infeasible = 0;

  // Affine-canonical fingerprint for the global OPT cache; computed at
  // construction only when the cache is enabled (has_fp gates every cache
  // touch, so a disabled cache costs nothing).
  bool has_fp = false;
  util::Digest128 fp;
  std::uint64_t probes_executed = 0;

  // Probe network (exactly one is built, per integer_mode). The constructor
  // only normalizes the instance into the net's arrays; the Horn network
  // itself is built lazily on the first real probe (ensure_network), so an
  // OPT answered by the bound sandwich or the OPT cache never pays for it
  // -- the build is the single largest oracle cost (EXPERIMENTS.md P1).
  bool network_built = false;
  OracleNet<__int128> inet;
  OracleNet<Rat> rnet;

  // Bound-tier sandwich (DESIGN.md §14), computed once on first use.
  bool sandwich_done = false;
  BoundSandwich sandwich_cache;

  // flow.* counters already published, so each probe adds only its delta.
  DinicStats published;

  // ---- dynamic-edit state (DESIGN.md §15), engaged on the first edit ----
  //
  // Jobs live in SLOTS (positions in the active net's arrays); callers hold
  // stable JobIds that indirect through slot_of_id so compaction can
  // renumber slots without invalidating ids. job_count counts LIVE slots.
  bool dyn_mode = false;
  std::vector<char> slot_live;            // per slot
  std::vector<std::uint32_t> free_slots;  // retired slots, reusable
  std::vector<std::int64_t> slot_of_id;   // per id; -1 = retired
  std::vector<JobId> id_of_slot;          // per slot (live slots only valid)
  // Multiplier taking original Rat values onto the integer grid; inserts
  // that do not land on it (non-integral or overflowing after scaling)
  // demote the oracle to the exact rational network once, permanently.
  Rat grid_scale{1};
  bool lb_dirty = false;       // density_lb stale after an edit
  bool pending_repair = false; // a splice awaits its warm re-augmentation

  // Pool bookkeeping (see acquire_impl): owner_busy points at the leasing
  // thread's busy flag and is only ever compared / written on that thread.
  bool pooled = false;
  bool* owner_busy = nullptr;

  bool probe(std::int64_t machines);
  std::int64_t lower_bound();
  void publish_flow_stats();
  void ensure_network();
  // The public Instance constructor's normalization body (grid conversion,
  // density bound, fingerprint), shared with the JobColumns constructor's
  // fallback path. Assumes a freshly reset Impl.
  void init_from_instance(const Instance& instance);
  JobId insert(const Job& job);
  void remove(JobId id);
  void enter_dyn_mode();
  void fall_back_to_rational();
  void compact_slots();
  void refresh_dyn_bounds();
  // Every edit invalidates the derived caches; the monotone memo is NOT
  // among them -- insert/remove shift it by the sound +-1 rules instead.
  void invalidate_after_edit() {
    lb_cache.reset();
    lb_dirty = true;
    sandwich_done = false;
    sandwich_cache = BoundSandwich{};
    has_fp = false;  // the fingerprint named the pre-edit instance
  }
  const BoundSandwich& sandwich();
  [[nodiscard]] Instance materialize() const;

  // Restores the default-constructed logical state (everything the public
  // constructor assumes) while keeping container storage.
  void reset() {
    empty = false;
    well_formed = true;
    integer_mode = false;
    job_count = 0;
    density_lb = 1;
    lb_cache.reset();
    min_feasible = 0;
    max_infeasible = 0;
    has_fp = false;
    fp = util::Digest128{};
    probes_executed = 0;
    network_built = false;
    sandwich_done = false;
    sandwich_cache = BoundSandwich{};
    inet.reset_net();
    rnet.reset_net();
    published = DinicStats{};
    dyn_mode = false;
    slot_live.clear();
    free_slots.clear();
    slot_of_id.clear();
    id_of_slot.clear();
    grid_scale = Rat(1);
    lb_dirty = false;
    pending_repair = false;
  }
};

namespace {
// One pooled oracle Impl per thread, leased by at most one live oracle at a
// time; nested oracles fall back to fresh Impls.
thread_local bool g_oracle_pool_busy = false;
}  // namespace

auto FeasibilityOracle::acquire_impl() -> std::unique_ptr<Impl, ImplDeleter> {
  if (!g_oracle_pool_busy) {
    thread_local std::unique_ptr<Impl> slot;
    if (!slot) slot = std::make_unique<Impl>();
    g_oracle_pool_busy = true;
    slot->pooled = true;
    slot->owner_busy = &g_oracle_pool_busy;
    slot->reset();
    return std::unique_ptr<Impl, ImplDeleter>(slot.get(), ImplDeleter{});
  }
  return std::unique_ptr<Impl, ImplDeleter>(new Impl(), ImplDeleter{});
}

void FeasibilityOracle::ImplDeleter::operator()(Impl* impl) const noexcept {
  if (impl == nullptr) return;
  if (!impl->pooled) {
    delete impl;
    return;
  }
  // Release the lease only on the owning thread (pointer compare against
  // this thread's flag; no dereference of a foreign thread_local). A
  // pooled Impl released on another thread leaves its owner's slot marked
  // busy -- pooling stops there, but the memory stays owned by the owner's
  // thread_local unique_ptr, so nothing dangles or double-frees.
  if (impl->owner_busy == &g_oracle_pool_busy) g_oracle_pool_busy = false;
}

FeasibilityOracle::FeasibilityOracle(const Instance& instance)
    : impl_(acquire_impl()) {
  // Normalization only (grid conversion, density bound, fingerprint); the
  // network build has its own span inside ensure_network().
  obs::ProfileSpan span("oracle_norm");
  impl_->init_from_instance(instance);
}

void FeasibilityOracle::Impl::init_from_instance(const Instance& instance) {
  Impl& im = *this;
  im.empty = instance.empty();
  if (im.empty) return;
  im.well_formed = instance.well_formed();
  if (!im.well_formed) return;
  im.job_count = static_cast<std::int64_t>(instance.size());
  // Each job alone on a machine is feasible (p_j <= d_j - r_j), so n
  // machines always suffice.
  im.min_feasible = im.job_count;

  if (util::OptCache::global().enabled()) {
    obs::Registry& reg = obs::Registry::global();
    obs::ScopedTimer timer(reg.timing("cache.fingerprint_ns"));
    im.fp = canonical_fingerprint(instance);
    im.has_fp = true;
    reg.counter("cache.fingerprints").add();
  }

  const std::size_t n = instance.size();

  // SIMD fast path: when every field is a small integer the grid is the
  // values themselves, so the Rat event-point sort, the exact density
  // division, and try_integer_grid's lcm/rescale are all replaced by int64
  // scans. Falls through to the seed arithmetic on any non-small input;
  // either way integer_mode, density_lb, and the built network match the
  // seed path value for value.
  IntegerGrid grid;
  std::int64_t small_total = 0;
  if (util::simd::active()) {
    SmallGrid small = try_small_integer_grid(instance);
    grid = std::move(small.grid);
    small_total = small.total_work;
  }
  std::vector<Rat> points;
  if (!grid.usable) {
    points = instance.event_points();
    const Rat span = points.back() - points.front();
    if (span.is_positive()) {
      const Rat density = instance.total_work() / span;
      im.density_lb = std::max<std::int64_t>(1, density.ceil().to_int64());
    }
    grid = try_integer_grid(instance);
  }

  if (grid.usable) {
    im.integer_mode = true;
    im.grid_scale = grid.scale;  // later insert_job() scales onto this grid
    OracleNet<__int128>& net = im.inet;
    net.release.assign(grid.release.begin(), grid.release.end());
    net.deadline.assign(grid.deadline.begin(), grid.deadline.end());
    net.processing.assign(grid.processing.begin(), grid.processing.end());
    std::vector<std::int64_t> ipoints;
    ipoints.reserve(2 * n);
    ipoints.insert(ipoints.end(), grid.release.begin(), grid.release.end());
    ipoints.insert(ipoints.end(), grid.deadline.begin(), grid.deadline.end());
    std::sort(ipoints.begin(), ipoints.end());
    ipoints.erase(std::unique(ipoints.begin(), ipoints.end()), ipoints.end());
    if (points.empty()) {
      // Fast-path entry: the density bound from int64 values. ipoints is
      // the same set the Rat event points would form, so span and
      // ceil(total/span) equal the seed's exact-rational results.
      const std::int64_t span = ipoints.back() - ipoints.front();
      if (span > 0) {
        const __int128 total = small_total;
        im.density_lb = std::max<std::int64_t>(
            1, static_cast<std::int64_t>((total + span - 1) / span));
      }
    }
    net.points.assign(ipoints.begin(), ipoints.end());
  } else {
    OracleNet<Rat>& net = im.rnet;
    net.release.reserve(n);
    net.deadline.reserve(n);
    net.processing.reserve(n);
    for (const Job& job : instance.jobs()) {
      net.release.push_back(job.release);
      net.deadline.push_back(job.deadline);
      net.processing.push_back(job.processing);
    }
    net.points = std::move(points);
  }
  // The Horn network itself is NOT built here: ensure_network() builds it
  // on the first probe, so an answer served by the bound sandwich or the
  // OPT cache skips the build entirely.
}

FeasibilityOracle::FeasibilityOracle(const JobColumns& columns)
    : impl_(acquire_impl()) {
  obs::ProfileSpan span("oracle_norm");
  Impl& im = *impl_;
  im.empty = columns.count == 0;
  if (im.empty) return;
  const std::size_t n = columns.count;

  // Zero-copy fast path: int64 columns (typically straight out of an
  // mmap'd corpus, store/corpus.hpp) ARE the integer grid -- no Instance,
  // no Rats, no lcm. The columns may be an affine image of the original
  // rational instance; verdicts and OPT are invariant under that map, so
  // grid_scale stays 1 and later insert_job() calls must supply jobs in the
  // SAME (scaled) coordinates. Values outside the 62-bit guard or a total
  // work overflowing int64 fall back to the materialized-Instance path,
  // which reproduces the Instance constructor exactly.
  constexpr std::int64_t kMaxAbs = (std::int64_t{1} << 62) - 1;
  bool small = true;
  bool well = true;
  __int128 total = 0;
  for (std::size_t j = 0; j < n && small; ++j) {
    const std::int64_t r = columns.release[j];
    const std::int64_t d = columns.deadline[j];
    const std::int64_t p = columns.processing[j];
    small = r >= -kMaxAbs && r <= kMaxAbs && d >= -kMaxAbs && d <= kMaxAbs &&
            p >= -kMaxAbs && p <= kMaxAbs;
    if (!small) break;
    well = well && p > 0 && p <= d - r;
    total += p;
  }
  if (!small || total > INT64_MAX) {
    Instance fallback;
    for (std::size_t j = 0; j < n; ++j)
      fallback.add_job({Rat(columns.release[j]), Rat(columns.deadline[j]),
                        Rat(columns.processing[j])});
    im.init_from_instance(fallback);
    return;
  }

  im.well_formed = well;
  if (!im.well_formed) return;
  im.job_count = static_cast<std::int64_t>(n);
  im.min_feasible = im.job_count;

  if (util::OptCache::global().enabled()) {
    obs::Registry& reg = obs::Registry::global();
    obs::ScopedTimer timer(reg.timing("cache.fingerprint_ns"));
    im.fp = canonical_fingerprint(columns);
    im.has_fp = true;
    reg.counter("cache.fingerprints").add();
  }

  im.integer_mode = true;
  OracleNet<__int128>& net = im.inet;
  net.release.assign(columns.release, columns.release + n);
  net.deadline.assign(columns.deadline, columns.deadline + n);
  net.processing.assign(columns.processing, columns.processing + n);
  std::vector<std::int64_t> ipoints;
  ipoints.reserve(2 * n);
  ipoints.insert(ipoints.end(), columns.release, columns.release + n);
  ipoints.insert(ipoints.end(), columns.deadline, columns.deadline + n);
  std::sort(ipoints.begin(), ipoints.end());
  ipoints.erase(std::unique(ipoints.begin(), ipoints.end()), ipoints.end());
  const std::int64_t ispan = ipoints.back() - ipoints.front();
  if (ispan > 0) {
    im.density_lb = std::max<std::int64_t>(
        1, static_cast<std::int64_t>((total + ispan - 1) / ispan));
  }
  net.points.assign(ipoints.begin(), ipoints.end());
  obs::Registry::global().counter("store.corpus_zero_copy").add();
}

void FeasibilityOracle::Impl::ensure_network() {
  if (network_built || empty || !well_formed) return;
  network_built = true;
  obs::ProfileSpan span("oracle_build");
  BuildCounters counters;
  // An edited oracle compacts retired slots away before any (re)build --
  // both layouts want dense all-live arrays -- and adopts the flat
  // splice-able layout so later edits patch in place.
  if (dyn_mode) {
    compact_slots();
    if (integer_mode)
      inet.build_dynamic(counters);
    else
      rnet.build_dynamic(counters);
  } else if (integer_mode) {
    inet.build(counters);
  } else {
    rnet.build(counters);
  }

  obs::Registry& registry = obs::Registry::global();
  registry.counter("oracle.builds").add();
  if (dyn_mode)
    registry.counter("dyn.rebuilds").add();
  else
    registry.counter("oracle.tree_edges").add(counters.tree_edges);
  registry.counter("oracle.direct_edges").add(counters.direct_edges);
  if (obs::trace_enabled()) {
    obs::trace_event("oracle", "build",
                     {{"jobs", job_count},
                      {"segments", static_cast<std::int64_t>(counters.segments)},
                      {"integer_mode", integer_mode},
                      {"tree_edges",
                       static_cast<std::int64_t>(counters.tree_edges)},
                      {"direct_edges",
                       static_cast<std::int64_t>(counters.direct_edges)},
                      {"load_lb", density_lb}});
  }
}

FeasibilityOracle::~FeasibilityOracle() = default;
FeasibilityOracle::FeasibilityOracle(FeasibilityOracle&&) noexcept = default;
FeasibilityOracle& FeasibilityOracle::operator=(FeasibilityOracle&&) noexcept =
    default;

void FeasibilityOracle::Impl::publish_flow_stats() {
  const DinicStats& now = integer_mode ? inet.graph.stats() : rnet.graph.stats();
  obs::Registry& registry = obs::Registry::global();
  registry.counter("flow.bfs_passes").add(now.bfs_passes - published.bfs_passes);
  registry.counter("flow.augmenting_paths")
      .add(now.augmenting_paths - published.augmenting_paths);
  registry.counter("flow.edge_visits")
      .add(now.edge_visits - published.edge_visits);
  published = now;
}

// Rebuilds an Instance from the normalized per-job arrays for the packing
// upper bound. The integer grid is the original instance under an affine
// time rescale (denominator-lcm stretch), which preserves OPT and maps a
// feasible witness schedule back and forth, so packing the materialized
// instance certifies the original.
Instance FeasibilityOracle::Impl::materialize() const {
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(job_count));
  // Edited oracles may still hold retired slots' values; only live slots
  // belong to the instance being certified.
  const auto dead = [this](std::size_t j) {
    return dyn_mode && !slot_live[j];
  };
  if (integer_mode) {
    for (std::size_t j = 0; j < inet.release.size(); ++j) {
      if (dead(j)) continue;
      // Grid values fit int64 by the try_integer_grid 62-bit guard.
      jobs.push_back(Job{Rat(static_cast<std::int64_t>(inet.release[j])),
                         Rat(static_cast<std::int64_t>(inet.deadline[j])),
                         Rat(static_cast<std::int64_t>(inet.processing[j]))});
    }
  } else {
    for (std::size_t j = 0; j < rnet.release.size(); ++j) {
      if (dead(j)) continue;
      jobs.push_back(Job{rnet.release[j], rnet.deadline[j], rnet.processing[j]});
    }
  }
  return Instance(std::move(jobs));
}

// Computes the certified sandwich lo <= OPT <= hi once and folds it into
// the monotone verdict memo (everything below lo is infeasible by the load
// argument, hi carries a validated schedule witness), so both the oracle's
// own search and the query engine's bracket start pre-narrowed.
const BoundSandwich& FeasibilityOracle::Impl::sandwich() {
  if (sandwich_done) return sandwich_cache;
  sandwich_done = true;
  BoundSandwich& s = sandwich_cache;
  if (empty || !well_formed) return s;  // degenerate {0, 0}
  obs::ScopedLatency latency("hist.bound_ns");
  obs::Registry& registry = obs::Registry::global();

  // Lower side: pigeonhole density + sweep load bound over the already
  // normalized arrays. Integer grids run the budgeted SIMD kernel (same as
  // lower_bound()); rational grids take the double-prefiltered exact sweep
  // (core/bounds.hpp) -- the all-pairs Rat sweep compounds denominators in
  // its accumulators, which made rational lower bounds dominate sandwich
  // wall time on the adversary families.
  refresh_dyn_bounds();
  std::int64_t lo = density_lb;
  {
    obs::ProfileSpan span("bound_lo");
    if (dyn_mode) {
      // Edited oracle: sweep the live view (same kernels, same values a
      // fresh batch oracle of the live set would see).
      if (integer_mode) {
        const LiveArrays<__int128> v = live_view(inet, slot_live);
        lo = std::max(lo, sweep_bound_arrays(v.release, v.deadline,
                                             v.processing, v.points));
      } else {
        const LiveArrays<Rat> v = live_view(rnet, slot_live);
        lo = std::max(lo, prefiltered_sweep_bound(v.release, v.deadline,
                                                  v.processing, v.points));
      }
    } else {
      lo = std::max(lo,
                    integer_mode
                        ? inet.sweep_bound()
                        : prefiltered_sweep_bound(rnet.release, rnet.deadline,
                                                  rnet.processing,
                                                  rnet.points));
    }
  }
  s.certificate.density_lb = density_lb;
  s.certificate.load_lb = lo;
  if (!lb_cache) lb_cache = lo;
  lo = std::max(lo, max_infeasible + 1);
  std::int64_t hi = min_feasible;

  // A prior sandwich of the same canonical instance narrows the bracket
  // before any packing work; every cached bracket is certified, so the
  // intersection still contains OPT.
  if (has_fp) {
    if (auto cached = util::OptCache::global().lookup_bounds(fp)) {
      if (cached->first > lo || cached->second < hi)
        s.certificate.cache_seeded = true;
      lo = std::max(lo, cached->first);
      hi = std::min(hi, cached->second);
    }
  }

  // Upper side: constructive packing witness, opened at lo so a success
  // there pinches the sandwich outright.
  if (lo < hi) {
    PackUbOptions pack_options;
    pack_options.start = lo;
    // Integer-mode instances take the packer's direct McNaughton audit:
    // same certificate strength as realize+validate, without building a
    // Rat schedule on every sandwich (see PackUbOptions::audit_schedule).
    pack_options.audit_schedule = false;
    const PackUbResult pack = pack_upper_bound(materialize(), pack_options);
    s.certificate.pack_machines = pack.machines;
    s.certificate.pack = pack.witness;
    hi = std::min(hi, pack.machines);
  }

  s.lo = lo;
  s.hi = hi;
  max_infeasible = std::max(max_infeasible, lo - 1);
  min_feasible = std::min(min_feasible, hi);
  registry.counter("bounds.computed").add();
  if (s.pinched()) registry.counter("bounds.pinched").add();
  registry.histogram("bounds.bracket_width").observe(hi - lo);
  if (has_fp) util::OptCache::global().insert_bounds(fp, lo, hi);
  if (obs::trace_enabled()) {
    obs::trace_event("oracle", "sandwich",
                     {{"lo", lo},
                      {"hi", hi},
                      {"load_lb", s.certificate.load_lb},
                      {"pack_machines", s.certificate.pack_machines},
                      {"cache_seeded", s.certificate.cache_seeded}});
  }
  return s;
}

bool FeasibilityOracle::Impl::probe(std::int64_t machines) {
  ensure_network();
  obs::ProfileSpan span("probe");
  obs::Registry& registry = obs::Registry::global();
  registry.counter("oracle.probes").add();
  ++probes_executed;
  bool result;
  bool warm = false;
  {
    obs::ScopedTimer timer(registry.timing("oracle.probe_ns"));
    obs::ScopedLatency latency("hist.probe_ns");
    if (pending_repair) {
      // First probe after a splice: this max-flow IS the warm repair (it
      // re-augments only the deficit the edit opened).
      obs::ProfileSpan repair("flow_repair");
      pending_repair = false;
      result = integer_mode ? inet.probe(machines, warm)
                            : rnet.probe(machines, warm);
    } else {
      result = integer_mode ? inet.probe(machines, warm)
                            : rnet.probe(machines, warm);
    }
  }
  registry.counter(warm ? "oracle.warm_probes" : "oracle.cold_probes").add();
  const DinicStats& now = integer_mode ? inet.graph.stats() : rnet.graph.stats();
  if (obs::trace_enabled()) {
    obs::trace_event("oracle", "probe",
                     {{"m", machines},
                      {"feasible", result},
                      {"warm", warm},
                      {"augmenting_paths",
                       now.augmenting_paths - published.augmenting_paths},
                      {"integer_mode", integer_mode}});
  }
  publish_flow_stats();
  return result;
}

std::int64_t FeasibilityOracle::Impl::lower_bound() {
  if (lb_cache) return *lb_cache;
  refresh_dyn_bounds();
  std::int64_t lb = empty ? 0 : density_lb;
  if (!empty && well_formed) {
    obs::ProfileSpan span("sweep_bound");
    obs::Registry& registry = obs::Registry::global();
    obs::ScopedTimer timer(registry.timing("oracle.sweep_ns"));
    registry.counter("oracle.sweep_bounds").add();
    if (dyn_mode) {
      // Edited oracle: the net's member arrays/points may include retired
      // slots or boundary gaps; sweep the live view instead (identical
      // values to a fresh batch oracle of the live set).
      if (integer_mode) {
        const LiveArrays<__int128> v = live_view(inet, slot_live);
        lb = std::max(lb, sweep_bound_arrays(v.release, v.deadline,
                                             v.processing, v.points));
      } else {
        const LiveArrays<Rat> v = live_view(rnet, slot_live);
        lb = std::max(lb, sweep_bound_arrays(v.release, v.deadline,
                                             v.processing, v.points));
      }
    } else {
      lb = std::max(lb, integer_mode ? inet.sweep_bound() : rnet.sweep_bound());
    }
    // The sweep bound is certified (Theorem 1's easy direction), so every
    // machine count below it is infeasible without probing.
    max_infeasible = std::max(max_infeasible, lb - 1);
  }
  lb_cache = lb;
  return lb;
}

// ---- dynamic edits (DESIGN.md §15) -------------------------------------

// Engaged on the first edit: from then on jobs live in slots with id
// indirection. Constructor jobs keep their instance indices as ids.
void FeasibilityOracle::Impl::enter_dyn_mode() {
  if (dyn_mode) return;
  dyn_mode = true;
  const std::size_t n =
      integer_mode ? inet.release.size() : rnet.release.size();
  slot_live.assign(n, 1);
  id_of_slot.resize(n);
  slot_of_id.resize(n);
  free_slots.clear();
  for (std::size_t s = 0; s < n; ++s) {
    id_of_slot[s] = static_cast<JobId>(s);
    slot_of_id[s] = static_cast<std::int64_t>(s);
  }
}

// A job that does not land on the integer grid demotes the oracle to the
// exact rational network, once and permanently. Every stored slot converts
// exactly (grid / scale reproduces the original value by construction);
// retired slots convert too -- harmlessly, just to keep slot alignment --
// and are compacted away at the next build.
void FeasibilityOracle::Impl::fall_back_to_rational() {
  obs::Registry::global().counter("dyn.grid_fallbacks").add();
  const std::size_t n = inet.release.size();
  rnet.reset_net();
  rnet.release.reserve(n);
  rnet.deadline.reserve(n);
  rnet.processing.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    rnet.release.push_back(
        Rat(static_cast<std::int64_t>(inet.release[j])) / grid_scale);
    rnet.deadline.push_back(
        Rat(static_cast<std::int64_t>(inet.deadline[j])) / grid_scale);
    rnet.processing.push_back(
        Rat(static_cast<std::int64_t>(inet.processing[j])) / grid_scale);
  }
  inet.reset_net();
  integer_mode = false;
  grid_scale = Rat(1);
  network_built = false;
  pending_repair = false;
}

// Physically erases retired slots from the active net's arrays, renumbering
// live slots (ids stay stable through slot_of_id). Only legal with no live
// spliced layout -- edge handles name the OLD slots -- so both layouts are
// reset first; callers rebuild right after.
void FeasibilityOracle::Impl::compact_slots() {
  inet.dyn.reset();
  rnet.dyn.reset();
  if (!dyn_mode) return;
  std::size_t w = 0;
  const std::size_t n = slot_live.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (!slot_live[s]) continue;
    if (w != s) {
      if (integer_mode) {
        inet.release[w] = inet.release[s];
        inet.deadline[w] = inet.deadline[s];
        inet.processing[w] = inet.processing[s];
      } else {
        rnet.release[w] = std::move(rnet.release[s]);
        rnet.deadline[w] = std::move(rnet.deadline[s]);
        rnet.processing[w] = std::move(rnet.processing[s]);
      }
      id_of_slot[w] = id_of_slot[s];
    }
    slot_of_id[id_of_slot[w]] = static_cast<std::int64_t>(w);
    ++w;
  }
  if (integer_mode) {
    inet.release.resize(w);
    inet.deadline.resize(w);
    inet.processing.resize(w);
    inet.recompute_points();
  } else {
    rnet.release.resize(w);
    rnet.deadline.resize(w);
    rnet.processing.resize(w);
    rnet.recompute_points();
  }
  id_of_slot.resize(w);
  slot_live.assign(w, 1);
  free_slots.clear();
}

// Recomputes the pigeonhole density bound over the LIVE slots after an
// edit (a retired slot's work inflating the bound would be unsound; a
// missing insert would merely loosen it, but the differential suite pins
// exact agreement with the batch oracle).
void FeasibilityOracle::Impl::refresh_dyn_bounds() {
  if (!lb_dirty) return;
  lb_dirty = false;
  density_lb = 1;
  if (empty || !well_formed || job_count <= 0) return;
  if (integer_mode) {
    __int128 total = 0;
    __int128 lo = 0, hi = 0;
    bool first = true;
    for (std::size_t s = 0; s < slot_live.size(); ++s) {
      if (!slot_live[s]) continue;
      total += inet.processing[s];
      if (first || inet.release[s] < lo) lo = inet.release[s];
      if (first || hi < inet.deadline[s]) hi = inet.deadline[s];
      first = false;
    }
    const __int128 span = hi - lo;
    if (span > 0)
      density_lb = std::max<std::int64_t>(
          1, static_cast<std::int64_t>((total + span - 1) / span));
  } else {
    Rat total(0);
    Rat lo(0), hi(0);
    bool first = true;
    for (std::size_t s = 0; s < slot_live.size(); ++s) {
      if (!slot_live[s]) continue;
      total += rnet.processing[s];
      if (first || rnet.release[s] < lo) lo = rnet.release[s];
      if (first || hi < rnet.deadline[s]) hi = rnet.deadline[s];
      first = false;
    }
    const Rat span = hi - lo;
    if (span.is_positive()) {
      const Rat density = total / span;
      density_lb = std::max<std::int64_t>(1, density.ceil().to_int64());
    }
  }
}

JobId FeasibilityOracle::Impl::insert(const Job& job) {
  if (!well_formed)
    throw std::invalid_argument(
        "insert_job: oracle holds a malformed instance");
  if (!job.well_formed())
    throw std::invalid_argument("insert_job: malformed job");
  obs::ProfileSpan span("dyn_insert");
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dyn.inserts").add();

  // First job ever (oracle constructed empty): decide the grid mode here,
  // from this job, the way the batch constructor would.
  if (!dyn_mode && job_count == 0 && inet.release.empty() &&
      rnet.release.empty()) {
    auto small = [](const Rat& v) {
      constexpr std::int64_t kMaxAbs = (std::int64_t{1} << 62) - 1;
      if (!v.is_integer() || !v.num().is_small()) return false;
      const std::int64_t x = v.num().small_value();
      return x >= -kMaxAbs && x <= kMaxAbs;
    };
    integer_mode =
        small(job.release) && small(job.deadline) && small(job.processing);
    grid_scale = Rat(1);
  }
  enter_dyn_mode();

  // Land the job on the active grid, or demote to rationals once.
  std::int64_t gr = 0, gd = 0, gp = 0;
  if (integer_mode) {
    auto fit = [this](const Rat& v, std::int64_t& out) {
      const Rat scaled = v * grid_scale;
      if (!scaled.is_integer()) return false;
      BigInt num = scaled.num();
      if (num.bit_length() > 62) return false;
      out = num.to_int64();
      return true;
    };
    if (!fit(job.release, gr) || !fit(job.deadline, gd) ||
        !fit(job.processing, gp))
      fall_back_to_rational();
  }

  // Slot allocation: retired slots are recycled before the arrays grow.
  std::size_t slot;
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
    if (integer_mode) {
      inet.release[slot] = gr;
      inet.deadline[slot] = gd;
      inet.processing[slot] = gp;
    } else {
      rnet.release[slot] = job.release;
      rnet.deadline[slot] = job.deadline;
      rnet.processing[slot] = job.processing;
    }
  } else {
    slot = slot_live.size();
    slot_live.push_back(0);
    id_of_slot.push_back(kInvalidJob);
    if (integer_mode) {
      inet.release.push_back(gr);
      inet.deadline.push_back(gd);
      inet.processing.push_back(gp);
    } else {
      rnet.release.push_back(job.release);
      rnet.deadline.push_back(job.deadline);
      rnet.processing.push_back(job.processing);
    }
  }
  slot_live[slot] = 1;
  const JobId id = static_cast<JobId>(slot_of_id.size());
  slot_of_id.push_back(static_cast<std::int64_t>(slot));
  id_of_slot[slot] = id;
  ++job_count;
  empty = false;
  // Memo shift: the new job alone fits one extra machine, so OPT grows by
  // at most 1; infeasibility survives adding a job, so the floor stands.
  min_feasible = std::min(job_count, min_feasible + 1);
  invalidate_after_edit();

  if (network_built) {
    auto after_splice = [&](const auto& net) {
      if (net.dyn.dead_edges > net.dyn.live_edges + 64) {
        // Dead-edge debt exceeds the live set: fold the zero-capacity
        // edges away with a fresh compacted build on the next probe.
        network_built = false;
        pending_repair = false;
      } else {
        registry.counter("dyn.rebuilds_avoided").add();
        pending_repair = true;
      }
    };
    if (integer_mode && inet.dyn.active) {
      inet.splice_insert(slot);
      after_splice(inet);
    } else if (!integer_mode && rnet.dyn.active) {
      rnet.splice_insert(slot);
      after_splice(rnet);
    } else {
      // Batch layout in place: convert to the spliceable layout lazily on
      // the next probe (coalesces any further edits before it for free).
      network_built = false;
    }
  }
  return id;
}

void FeasibilityOracle::Impl::remove(JobId id) {
  if (!well_formed)
    throw std::invalid_argument(
        "remove_job: oracle holds a malformed instance");
  obs::ProfileSpan span("dyn_remove");
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dyn.removes").add();
  enter_dyn_mode();
  if (id >= slot_of_id.size() || slot_of_id[id] < 0)
    throw std::invalid_argument("remove_job: unknown or retired job id");
  const std::size_t slot = static_cast<std::size_t>(slot_of_id[id]);
  slot_of_id[id] = -1;
  slot_live[slot] = 0;
  free_slots.push_back(static_cast<std::uint32_t>(slot));
  --job_count;
  // Memo shift: feasibility survives removing a job, so the ceiling stands
  // (clamped -- job_count machines always suffice); re-adding the job to a
  // schedule costs at most one machine, so the floor drops by exactly 1.
  min_feasible = std::min(min_feasible, job_count);
  max_infeasible = std::max<std::int64_t>(0, max_infeasible - 1);
  invalidate_after_edit();
  if (job_count == 0) {
    // Drained: behave exactly like a constructed-empty oracle (feasible on
    // any machine count, OPT 0) until the next insert.
    empty = true;
    min_feasible = 0;
    max_infeasible = 0;
    network_built = false;
    inet.dyn.reset();
    rnet.dyn.reset();
    pending_repair = false;
    return;
  }
  if (network_built) {
    auto after_splice = [&](const auto& net) {
      if (net.dyn.dead_edges > net.dyn.live_edges + 64) {
        network_built = false;
        pending_repair = false;
      } else {
        registry.counter("dyn.rebuilds_avoided").add();
        pending_repair = true;
      }
    };
    if (integer_mode && inet.dyn.active) {
      inet.splice_remove(slot);
      after_splice(inet);
    } else if (!integer_mode && rnet.dyn.active) {
      rnet.splice_remove(slot);
      after_splice(rnet);
    } else {
      network_built = false;
    }
  }
}

bool FeasibilityOracle::feasible(std::int64_t machines) {
  Impl& im = *impl_;
  if (im.empty) return true;
  if (machines <= 0 || !im.well_formed) return false;
  if (machines >= im.min_feasible || machines <= im.max_infeasible) {
    obs::Registry::global().counter("oracle.memo_hits").add();
    return machines >= im.min_feasible;
  }
  if (bounds_tier_enabled()) {
    // First sandwich use folds [lo, hi) into the memo, so only the
    // triggering call lands here; later out-of-bracket probes are memo
    // hits. Either way the answer is certified without touching Dinic.
    const BoundSandwich& s = im.sandwich();
    if (machines < s.lo || machines >= s.hi) {
      obs::Registry::global().counter("bounds.probes_skipped").add();
      if (machines >= s.hi) {
        im.min_feasible = std::min(im.min_feasible, machines);
        return true;
      }
      im.max_infeasible = std::max(im.max_infeasible, machines);
      return false;
    }
  }
  if (im.has_fp) {
    if (std::optional<bool> hit =
            util::OptCache::global().lookup_feasible(im.fp, machines)) {
      if (*hit)
        im.min_feasible = std::min(im.min_feasible, machines);
      else
        im.max_infeasible = std::max(im.max_infeasible, machines);
      return *hit;
    }
  }
  const bool verdict = im.probe(machines);
  if (verdict)
    im.min_feasible = machines;
  else
    im.max_infeasible = machines;
  if (im.has_fp)
    util::OptCache::global().insert_feasible(im.fp, machines, verdict);
  return verdict;
}

std::int64_t FeasibilityOracle::load_lower_bound() const {
  return impl_->lower_bound();
}

BoundSandwich FeasibilityOracle::bound_sandwich() {
  Impl& im = *impl_;
  if (im.empty || !im.well_formed) return {};
  if (bounds_tier_enabled()) return im.sandwich();
  // Tier off: the degenerate bracket the pre-tier search used -- certified
  // infeasible strictly below the load bound / memo floor, certified
  // feasible at min_feasible (initially n, one job per machine).
  BoundSandwich out;
  out.certificate.load_lb = im.lower_bound();  // refreshes density_lb too
  out.certificate.density_lb = im.density_lb;
  out.lo = std::max(out.certificate.load_lb, im.max_infeasible + 1);
  out.hi = im.min_feasible;
  return out;
}

std::uint64_t FeasibilityOracle::probes_executed() const {
  return impl_->probes_executed;
}

JobId FeasibilityOracle::insert_job(const Job& job) {
  return impl_->insert(job);
}

void FeasibilityOracle::remove_job(JobId id) { impl_->remove(id); }

std::int64_t FeasibilityOracle::live_jobs() const { return impl_->job_count; }

std::int64_t FeasibilityOracle::optimal_machines() {
  Impl& im = *impl_;
  if (im.empty) return 0;
  if (!im.well_formed)
    throw std::invalid_argument("FeasibilityOracle: malformed instance");
  obs::ProfileSpan opt_span("opt_search");
  if (im.has_fp) {
    if (std::optional<std::int64_t> hit =
            util::OptCache::global().lookup_opt(im.fp)) {
      im.min_feasible = std::min(im.min_feasible, *hit);
      im.max_infeasible = std::max(im.max_infeasible, *hit - 1);
      if (obs::trace_enabled())
        obs::trace_event("oracle", "verdict", {{"opt", *hit}, {"cached", true}});
      return *hit;
    }
  }
  // After an edit the memo shifts leave a bracket of at most two candidate
  // values (insert: +1 on the ceiling only; remove: -1 on the floor only),
  // so neither the sweep bound nor the sandwich can rule out a probe the
  // memo hasn't already -- and recomputing them per event is exactly the
  // per-query rebuild cost the splice path exists to avoid. Skip both when
  // the dynamic bracket is already that tight; never-edited oracles are
  // unaffected (dyn_mode only turns on at the first edit).
  const bool memo_tight =
      im.dyn_mode && im.min_feasible - im.max_infeasible <= 2;
  // Bound tier: the sandwich folds into the memo, so a pinched sandwich
  // makes both loops below vacuous (OPT returned with zero probes and no
  // network build) and an open one pre-narrows the bracket to [lo, hi).
  if (bounds_tier_enabled() && !memo_tight) (void)im.sandwich();
  obs::Registry& registry = obs::Registry::global();
  const std::int64_t lb =
      memo_tight ? im.max_infeasible + 1 : im.lower_bound();

  // Warm ascent: probe lb, lb+1, lb+3, lb+7, ... -- every probe is at a
  // higher m than the last, so each one extends the routed flow instead of
  // re-solving. With the sweep bound the first probe usually succeeds and
  // certifies OPT outright (everything below lb is infeasible by the load
  // argument).
  std::int64_t m = std::max<std::int64_t>(im.max_infeasible + 1, lb);
  std::int64_t step = 1;
  while (m < im.min_feasible && !feasible(m)) {
    registry.counter("oracle.gallop_steps").add();
    m = std::min<std::int64_t>(im.min_feasible, m + step);
    step *= 2;
  }
  // Close any remaining bracket (overshot gallop): descending probes reset
  // the flow (capacities shrink), so these are the cold ones.
  while (im.max_infeasible + 1 < im.min_feasible) {
    std::int64_t mid =
        im.max_infeasible + (im.min_feasible - im.max_infeasible) / 2;
    (void)feasible(mid);
  }
  if (im.has_fp) util::OptCache::global().insert_opt(im.fp, im.min_feasible);
  if (obs::trace_enabled()) {
    obs::trace_event("oracle", "verdict", {{"opt", im.min_feasible}});
  }
  return im.min_feasible;
}

bool feasible_migratory(const Instance& instance, std::int64_t machines) {
  if (instance.empty()) return true;
  if (machines <= 0) return false;
  if (!instance.well_formed()) return false;
  FeasibilityOracle oracle(instance);
  return oracle.feasible(machines);
}

std::optional<FlowAllocation> solve_migratory(const Instance& instance,
                                              std::int64_t machines) {
  if (instance.empty())
    return FlowAllocation{instance.event_points(), {}};
  if (machines <= 0 || !instance.well_formed()) return std::nullopt;
  obs::ProfileSpan span("solve_allocation");
  Network net = build_network(instance, machines);
  bool routed = net.graph.max_flow(net.source, net.sink) == net.total_work;
  {
    const DinicStats& stats = net.graph.stats();
    obs::Registry& registry = obs::Registry::global();
    registry.counter("flow.bfs_passes").add(stats.bfs_passes);
    registry.counter("flow.augmenting_paths").add(stats.augmenting_paths);
    registry.counter("flow.edge_visits").add(stats.edge_visits);
  }
  if (!routed) return std::nullopt;

  FlowAllocation out;
  out.segment_starts = net.points;
  out.per_job.assign(instance.size(),
                     std::vector<Rat>(net.points.size() - 1, Rat(0)));
  for (std::size_t j = 0; j < instance.size(); ++j) {
    for (const auto& [segment, handle] : net.job_segment_edges[j]) {
      out.per_job[j][segment] = net.graph.flow_on(handle);
    }
  }
  return out;
}

std::int64_t optimal_migratory_machines(const Instance& instance) {
  if (instance.empty()) return 0;
  if (!instance.well_formed())
    throw std::invalid_argument(
        "optimal_migratory_machines: malformed instance");
  FeasibilityOracle oracle(instance);
  return oracle.optimal_machines();
}

Schedule optimal_migratory_schedule(const Instance& instance,
                                    std::int64_t machines) {
  auto allocation = solve_migratory(instance, machines);
  if (!allocation)
    throw std::invalid_argument(
        "optimal_migratory_schedule: instance infeasible on given machines");
  Schedule schedule(static_cast<std::size_t>(machines));
  if (instance.empty()) return schedule;

  const std::size_t segments = allocation->segment_starts.size() - 1;
  for (std::size_t k = 0; k < segments; ++k) {
    // McNaughton wrap-around rule inside segment k: lay the jobs' pieces
    // end-to-end across machines; a piece split at a machine boundary
    // cannot overlap itself because each piece is at most the segment
    // length.
    const Rat seg_start = allocation->segment_starts[k];
    const Rat seg_end = allocation->segment_starts[k + 1];
    std::size_t machine = 0;
    Rat cursor = seg_start;
    for (std::size_t j = 0; j < instance.size(); ++j) {
      Rat remaining = allocation->per_job[j][k];
      if (!remaining.is_positive()) continue;
      while (remaining.is_positive()) {
        Rat available = seg_end - cursor;
        if (!available.is_positive()) {
          ++machine;
          cursor = seg_start;
          available = seg_end - seg_start;
        }
        Rat chunk = Rat::min(remaining, available);
        if (machine >= static_cast<std::size_t>(machines))
          throw std::logic_error(
              "optimal_migratory_schedule: McNaughton overflow");
        schedule.add_slot(machine, cursor, cursor + chunk,
                          static_cast<JobId>(j));
        cursor += chunk;
        remaining -= chunk;
      }
    }
  }
  schedule.canonicalize();
  return schedule;
}

}  // namespace minmach
