#include "minmach/flow/feasibility.hpp"

#include <algorithm>
#include <numeric>
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

struct GridJob {
  std::int64_t release, deadline, processing;
};

// The small-field predicate: grid values keep bit_length <= 62, so sums of
// m * length stay within __int128 as long as individual values fit
// int64 / n.
bool fits_grid(const GridJob& g) {
  constexpr std::int64_t kMaxAbs = (std::int64_t{1} << 62) - 1;
  for (const std::int64_t v : {g.release, g.deadline, g.processing})
    if (v < -kMaxAbs || v > kMaxAbs) return false;
  return true;
}

// The grid-scaling helper: a job's fields times `scale` as grid values, or
// nullopt when one is not integral or leaves the guard. Scale 1 (the
// small-integer grid, DESIGN.md §12) skips the exact Rat products.
std::optional<GridJob> to_grid(const Job& job, const Rat& scale) {
  const bool unit = scale == Rat(1);
  auto field = [&](const Rat& v, std::int64_t& out) {
    const Rat x = unit ? v : v * scale;
    if (!x.is_integer() || !x.num().is_small()) return false;
    out = x.num().small_value();
    return true;
  };
  GridJob g{};
  if (!field(job.release, g.release) || !field(job.deadline, g.deadline) ||
      !field(job.processing, g.processing) || !fits_grid(g))
    return std::nullopt;
  return g;
}

// Grid values fit int64 by the fits_grid guard.
Rat to_rat(const __int128& v) { return Rat(static_cast<std::int64_t>(v)); }
const Rat& to_rat(const Rat& v) { return v; }

// ceil(a / b) for b > 0, exact in either capacity domain.
template <typename Cap>
std::int64_t ceil_div(const Cap& a, const Cap& b) {
  if constexpr (std::is_same_v<Cap, Rat>)
    return (a / b).ceil().to_int64();
  else
    return static_cast<std::int64_t>((a + b - 1) / b);
}

// Leaf positions [lo, hi) of the window [r, d) over sorted event points
// (both ends are event points).
template <typename Cap>
std::pair<std::size_t, std::size_t> leaf_range(const std::vector<Cap>& points,
                                               const Cap& r, const Cap& d) {
  auto at = [&points](const Cap& t) {
    return static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), t) - points.begin());
  };
  return {at(r), at(d)};
}

// Sorted distinct event points of a job set, gathered per job in
// Instance::event_points' order.
template <typename Cap>
void collect_points(const std::vector<Cap>& release,
                    const std::vector<Cap>& deadline, std::vector<Cap>& out) {
  out.clear();
  for (std::size_t j = 0; j < release.size(); ++j) {
    out.push_back(release[j]);
    out.push_back(deadline[j]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
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
  Network net{Dinic<Rat>(n + segments + 2), std::move(points),
              decltype(Network::job_segment_edges)(n), Rat(0), 0,
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
    const auto [lo, hi] = leaf_range(net.points, job.release, job.deadline);
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
  static constexpr bool kInteger = std::is_same_v<Cap, __int128>;

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
  [[nodiscard]] std::int64_t sweep_bound(const std::vector<char>* live,
                                         bool prefilter) const;

  // Dynamic layout (definitions below build()).
  void build_dynamic(BuildCounters& counters);
  void splice_insert(std::size_t slot);
  void splice_remove(std::size_t slot);
  void ensure_point(const Cap& x);
  void split_leaf(std::size_t k, const Cap& x);
  void recompute_points() { collect_points(release, deadline, points); }
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
  // A fresh leaf of length `len` at leaf position `pos`, with event point x
  // at points[at]. Its sink edge opens at flow_m * len so the warm probe's
  // uniform delta retune stays correct.
  std::size_t add_leaf(std::size_t pos, std::size_t at, const Cap& x,
                       const Cap& len) {
    const std::size_t node = new_node();
    const std::size_t hb = graph.add_edge(node, sink, Cap(flow_m) * len);
    const auto off = static_cast<std::ptrdiff_t>(pos);
    points.insert(points.begin() + static_cast<std::ptrdiff_t>(at), x);
    seg_length.insert(seg_length.begin() + off, len);
    sink_handle.insert(sink_handle.begin() + off, hb);
    // NB: emplace, not insert(it, {}) -- the empty braced list would
    // select the initializer_list overload and insert zero elements.
    dyn.leaf_in.emplace(dyn.leaf_in.begin() + off);
    refresh_positions(pos);
    return node;
  }
  // Cancels the flow slot's edge h carries into leaf `pos` along its whole
  // source->job->leaf->sink triple. This layout pins each flow unit to one
  // such triple, so conservation holds at every node without walking paths.
  void drain(std::size_t slot, std::size_t h, std::size_t pos) {
    const Cap f = graph.flow_on(h);
    if (!(Cap(0) < f)) return;
    graph.cancel_flow(dyn.src_handle[slot], f);
    graph.cancel_flow(h, f);
    graph.cancel_flow(sink_handle[pos], f);
    routed -= f;
    obs::Registry::global().counter("dyn.drained_paths").add();
  }
  // The pigeonhole density bound max(1, ceil(total work / span)) over the
  // slots `live` marks (every slot when null). After an edit it must see
  // exactly the live slots: a retired slot's work would inflate it above
  // OPT, which is unsound.
  [[nodiscard]] std::int64_t density_bound(
      const std::vector<char>* live) const {
    Cap total(0), lo(0), hi(0);
    bool first = true;
    for (std::size_t s = 0; s < release.size(); ++s) {
      if (live != nullptr && !(*live)[s]) continue;
      total += processing[s];
      if (first || release[s] < lo) lo = release[s];
      if (first || hi < deadline[s]) hi = deadline[s];
      first = false;
    }
    const Cap span = hi - lo;
    return Cap(0) < span ? std::max<std::int64_t>(1, ceil_div(total, span))
                         : 1;
  }
  // Segment lengths from the event points, plus the total work (rationals
  // summed by the SIMD batch kernel when `batch_sum`, the static build's
  // choice); returns the segment count.
  std::size_t measure(bool batch_sum) {
    const std::size_t segments = points.empty() ? 0 : points.size() - 1;
    seg_length.resize(segments);
    for (std::size_t k = 0; k < segments; ++k)
      seg_length[k] = points[k + 1] - points[k];
    if constexpr (!kInteger) {
      if (batch_sum) {
        total_work = rat_batch::sum(processing.data(), processing.size(),
                                    util::simd::active());
        return segments;
      }
    }
    total_work = Cap(0);
    for (const Cap& p : processing) total_work += p;
    return segments;
  }

  // Writes a job into `slot`; the next unused slot grows the arrays.
  void store(std::size_t slot, Cap r, Cap d, Cap p) {
    if (slot == release.size()) {
      release.push_back(std::move(r));
      deadline.push_back(std::move(d));
      processing.push_back(std::move(p));
    } else {
      release[slot] = std::move(r);
      deadline[slot] = std::move(d);
      processing[slot] = std::move(p);
    }
  }

  // Physically erases retired slots, keeping live ones in order. Only legal
  // with no live spliced layout -- edge handles name the OLD slots -- so the
  // layout is reset first; callers rebuild right after.
  void compact(const std::vector<char>& live) {
    dyn.reset();
    std::size_t w = 0;
    for (std::size_t s = 0; s < live.size(); ++s) {
      if (!live[s]) continue;
      if (w != s) store(w, std::move(release[s]), std::move(deadline[s]),
                        std::move(processing[s]));
      ++w;
    }
    release.resize(w);
    deadline.resize(w);
    processing.resize(w);
    recompute_points();
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
  const std::size_t segments = measure(/*batch_sum=*/true);
  counters.segments = segments;
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
    const auto [lo, hi] = leaf_range(points, release[j], deadline[j]);
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

// Builds the flat dynamic layout from the (compacted, all-live) job arrays.
// Node layout: 0 = source, 1 = sink -- the sink id must be STABLE, unlike
// the batch layouts, because splices append nodes -- then leaves in
// position order, then jobs in slot order. probe() works unchanged: the
// pos-aligned sink_handle/seg_length arrays are the only thing it touches.
template <typename Cap>
void OracleNet<Cap>::build_dynamic(BuildCounters& counters) {
  const std::size_t n = release.size();
  recompute_points();
  const std::size_t segments = measure(/*batch_sum=*/false);
  counters.segments = segments;
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
    const auto [lo, hi] = leaf_range(points, release[j], deadline[j]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t h =
          graph.add_edge(node, 2 + k, std::min(processing[j], seg_length[k]));
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
// strictly inside a leaf (split_leaf).
template <typename Cap>
void OracleNet<Cap>::ensure_point(const Cap& x) {
  auto it = std::lower_bound(points.begin(), points.end(), x);
  if (it != points.end() && *it == x) return;
  obs::Registry& registry = obs::Registry::global();
  const std::size_t pos = static_cast<std::size_t>(it - points.begin());
  if (pos == 0 || pos == points.size()) {
    if (pos == 0)
      add_leaf(0, 0, x, points.front() - x);
    else
      add_leaf(seg_length.size(), pos, x, x - points.back());
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
    drain(in.slot, in.handle, k);
    survivors.push_back(in);
  }
  const Cap len_a = x - points[k];
  const Cap len_b = points[k + 1] - x;
  seg_length[k] = len_a;
  graph.set_capacity(sink_handle[k], Cap(flow_m) * len_a);
  const std::size_t node_b = add_leaf(k + 1, k + 1, x, len_b);
  std::uint64_t patched = 1;  // the new sink edge
  for (const DynIn& in : survivors) {
    const Cap& p = processing[in.slot];
    graph.set_capacity(in.handle, std::min(p, len_a));
    const std::size_t h2 =
        graph.add_edge(dyn.job_node[in.slot], node_b, std::min(p, len_b));
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
  const auto [lo, hi] = leaf_range(points, release[slot], deadline[slot]);
  std::uint64_t patched = 1;  // the source edge
  for (std::size_t k = lo; k < hi; ++k) {
    const std::size_t h = graph.add_edge(dyn.job_node[slot], leaf_node_at(k),
                                         std::min(p, seg_length[k]));
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
    drain(slot, h, dyn.pos_of_node[graph.edge_target(h)]);
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

// Array-level sweep load bound (stride-budgeted, certified).
template <typename Cap>
std::int64_t sweep_arrays(const std::vector<Cap>& release,
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
    // values fit int64 by the fits_grid guard; the kernel spills back to
    // this generic path internally if its tighter overflow guard rejects
    // the instance. Bit-identical results either way.
    if (util::simd::active()) {
      auto narrow = [](const std::vector<__int128>& v) {
        return std::vector<std::int64_t>(v.begin(), v.end());
      };
      return sweep_load_bound_i64(narrow(release), narrow(deadline),
                                  narrow(processing), narrow(points), stride,
                                  /*use_avx2=*/true)
          .machines;
    }
  }
  return sweep_load_bound(
             release, deadline, processing, points,
             [](const Cap& c, const Cap& len) { return ceil_div(c, len); },
             stride)
      .machines;
}

// The one live-view sweep: over the net's arrays, or for an edited oracle
// (`live` set) over a copy of the live slots and their OWN event points --
// retired slots' values or points would skew it, and a dead slot's work
// would lift it above OPT (unsound). The O(n log n) copy runs once per
// post-edit bound; the same kernel on the same values keeps dynamic and
// batch bounds bit-identical. `prefilter` picks the sandwich's kernel on
// rational grids, the double-prefiltered exact sweep (core/bounds.hpp):
// the all-pairs Rat sweep compounds denominators in its accumulators.
template <typename Cap>
std::int64_t OracleNet<Cap>::sweep_bound(const std::vector<char>* live,
                                         bool prefilter) const {
  auto kernel = [prefilter](const std::vector<Cap>& r,
                            const std::vector<Cap>& d,
                            const std::vector<Cap>& p,
                            const std::vector<Cap>& pts) {
    if constexpr (!kInteger) {
      if (prefilter) return prefiltered_sweep_bound(r, d, p, pts);
    }
    return sweep_arrays(r, d, p, pts);
  };
  if (live == nullptr) return kernel(release, deadline, processing, points);
  std::vector<Cap> r, d, p, pts;
  for (std::size_t s = 0; s < live->size(); ++s) {
    if (!(*live)[s]) continue;
    r.push_back(release[s]);
    d.push_back(deadline[s]);
    p.push_back(processing[s]);
  }
  collect_points(r, d, pts);
  return kernel(r, d, p, pts);
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

  // Probe network (exactly one is active, per integer_mode). The
  // constructor only normalizes the instance into the net's arrays; the
  // Horn network itself is built lazily on the first real probe
  // (ensure_network), so an OPT answered by the bound sandwich or the OPT
  // cache never pays for it -- the build is the single largest oracle cost
  // (EXPERIMENTS.md P1).
  bool network_built = false;
  OracleNet<__int128> inet;
  OracleNet<Rat> rnet;

  // The one branch on integer_mode: every per-domain body is a generic
  // lambda run on the active net.
  template <class F> decltype(auto) with_net(F&& f) {
    return integer_mode ? f(inet) : f(rnet);
  }
  template <class F> decltype(auto) with_net(F&& f) const {
    return integer_mode ? f(inet) : f(rnet);
  }

  // Bound-tier sandwich (DESIGN.md §14), computed once on first use.
  bool sandwich_done = false;
  BoundSandwich sandwich_cache;

  // flow.* counters already published, so each probe adds only its delta.
  // Every build zeroes the graph's DinicStats, so it restarts there too.
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
  // Multiplier taking original Rat values onto the integer grid (the
  // denominator lcm; 1 for the small-integer grid). Inserts that do not land
  // on it (non-integral or overflowing after scaling) demote the oracle to
  // the exact rational network once, permanently.
  Rat grid_scale{1};
  bool lb_dirty = false;       // density_lb stale after an edit
  bool pending_repair = false; // a splice awaits its warm re-augmentation

  // Pool bookkeeping (see acquire_impl): owner_busy points at the leasing
  // thread's busy flag and is only ever compared / written on that thread.
  bool pooled = false;
  bool* owner_busy = nullptr;

  bool probe(std::int64_t machines);
  std::int64_t lower_bound();
  void ensure_network();
  // Normalization (DESIGN.md §9): one path behind all three entry points.
  void init_from_instance(const Instance& instance);
  template <class Source>
  void admit(const Source& source, std::size_t n);
  template <class Lift>
  bool load_grid(std::size_t n, Lift&& lift, bool bound_total);
  void normalize(const Instance& instance, bool small_grid, bool lcm_grid);
  void derive_points_and_density() {
    with_net([this](auto& net) {
      net.recompute_points();
      density_lb = net.density_bound(nullptr);
    });
  }
  void store_job(std::size_t slot, const Job& job);
  void fall_back_to_rational();

  JobId insert(const Job& job);
  void remove(JobId id);
  void enter_dyn_mode();
  void compact_slots();
  void splice(std::size_t slot, bool insert);
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
    invalidate_after_edit();  // the derived caches; lb_dirty is reset below
    min_feasible = 0;
    max_infeasible = 0;
    fp = util::Digest128{};
    probes_executed = 0;
    network_built = false;
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

// ---- normalization (DESIGN.md §9) --------------------------------------
//
// The Instance constructor, the JobColumns constructor and the first
// insert_job of an empty oracle share one path: jobs land on the integer
// grid straight in inet's arrays when they fit (load_grid), else in rnet's;
// then the event points and the density bound follow from the active net.

FeasibilityOracle::FeasibilityOracle(const Instance& instance)
    : impl_(acquire_impl()) {
  // Normalization only (grid conversion, density bound, fingerprint); the
  // network build has its own span inside ensure_network().
  obs::ProfileSpan span("oracle_norm");
  impl_->init_from_instance(instance);
}

void FeasibilityOracle::Impl::init_from_instance(const Instance& instance) {
  empty = instance.empty();
  if (empty) return;
  well_formed = instance.well_formed();
  if (!well_formed) return;
  admit(instance, instance.size());
  // The scale-1 grid is the SIMD-mode shortcut (DESIGN.md §12): it skips
  // the BigInt lcm and 3n Rat products, and accepts exactly the instances
  // the lcm grid maps with scale 1, so integer_mode and verdicts match.
  normalize(instance, util::simd::active(), /*lcm_grid=*/true);
}

// Counts the jobs and fingerprints the source for the OPT cache.
template <class Source>
void FeasibilityOracle::Impl::admit(const Source& source, std::size_t n) {
  job_count = static_cast<std::int64_t>(n);
  // Each job alone on a machine is feasible (p_j <= d_j - r_j), so n
  // machines always suffice.
  min_feasible = job_count;
  if (util::OptCache::global().enabled()) {
    obs::Registry& reg = obs::Registry::global();
    obs::ScopedTimer timer(reg.timing("cache.fingerprint_ns"));
    fp = canonical_fingerprint(source);
    has_fp = true;
    reg.counter("cache.fingerprints").add();
  }
}

// Lands jobs [0, n) on the integer grid, straight into inet's arrays:
// `lift(j)` yields job j's grid values or nullopt. Fails -- inet left
// empty -- when a job is off the grid or, with `bound_total` (set by the
// scale-1 tries, whose int64 totals then go on to the general path), when
// the total work leaves int64.
template <class Lift>
bool FeasibilityOracle::Impl::load_grid(std::size_t n, Lift&& lift,
                                        bool bound_total) {
  __int128 total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::optional<GridJob> g = lift(j);
    if (!g) {
      inet.reset_net();
      return false;
    }
    inet.store(j, g->release, g->deadline, g->processing);
    total += g->processing;
  }
  if (bound_total && total > INT64_MAX) {
    inet.reset_net();
    return false;
  }
  integer_mode = true;
  return true;
}

// Jobs of an Instance: the small-integer grid first (when `small_grid`),
// then the denominator-lcm grid (when `lcm_grid`), else exact rationals.
void FeasibilityOracle::Impl::normalize(const Instance& instance,
                                        bool small_grid, bool lcm_grid) {
  const std::vector<Job>& jobs = instance.jobs();
  auto lift = [&jobs](const Rat& scale) {
    return [&jobs, &scale](std::size_t j) { return to_grid(jobs[j], scale); };
  };
  const Rat unit(1);
  bool on_grid = small_grid && load_grid(jobs.size(), lift(unit), true);
  if (!on_grid && lcm_grid) {
    const BigInt lcm = instance.denominator_lcm();
    // Guard: scaled values must fit comfortably (see fits_grid).
    if (lcm.bit_length() <= 40) {
      const Rat scale(lcm, BigInt(1));
      on_grid = load_grid(jobs.size(), lift(scale), false);
      if (on_grid) grid_scale = scale;
    }
  }
  if (!on_grid) {
    for (std::size_t j = 0; j < jobs.size(); ++j)
      rnet.store(j, jobs[j].release, jobs[j].deadline, jobs[j].processing);
  }
  derive_points_and_density();
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
  // which reproduces the Instance constructor exactly; so do malformed
  // jobs, which that path reports (d - r cannot overflow inside the guard).
  const auto column = [&columns](std::size_t j) -> std::optional<GridJob> {
    const GridJob g{columns.release[j], columns.deadline[j],
                    columns.processing[j]};
    if (!fits_grid(g) || g.processing <= 0 ||
        g.processing > g.deadline - g.release)
      return std::nullopt;
    return g;
  };
  if (!im.load_grid(n, column, /*bound_total=*/true)) {
    Instance fallback;
    for (std::size_t j = 0; j < n; ++j)
      fallback.add_job({Rat(columns.release[j]), Rat(columns.deadline[j]),
                        Rat(columns.processing[j])});
    im.init_from_instance(fallback);
    return;
  }
  im.admit(columns, n);
  im.derive_points_and_density();
  obs::Registry::global().counter("store.corpus_zero_copy").add();
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
  for (std::size_t j = 0; j < n; ++j)
    rnet.store(j, to_rat(inet.release[j]) / grid_scale,
               to_rat(inet.deadline[j]) / grid_scale,
               to_rat(inet.processing[j]) / grid_scale);
  inet.reset_net();
  integer_mode = false;
  grid_scale = Rat(1);
  network_built = false;
  pending_repair = false;
}

// Lands an inserted job on the active grid -- demoting to rationals first
// when it does not fit -- and writes it into `slot`.
void FeasibilityOracle::Impl::store_job(std::size_t slot, const Job& job) {
  std::optional<GridJob> g;
  if (integer_mode && !(g = to_grid(job, grid_scale))) fall_back_to_rational();
  with_net([&](auto& net) {
    if constexpr (std::decay_t<decltype(net)>::kInteger)
      net.store(slot, g->release, g->deadline, g->processing);
    else
      net.store(slot, job.release, job.deadline, job.processing);
  });
}

// ---- network -----------------------------------------------------------

void FeasibilityOracle::Impl::ensure_network() {
  if (network_built || empty || !well_formed) return;
  network_built = true;
  obs::ProfileSpan span("oracle_build");
  BuildCounters counters;
  // An edited oracle compacts retired slots away before any (re)build --
  // both layouts want dense all-live arrays -- and adopts the flat
  // splice-able layout so later edits patch in place.
  if (dyn_mode) compact_slots();
  obs::Registry& registry = obs::Registry::global();
  with_net([&](auto& net) {
    dyn_mode ? net.build_dynamic(counters) : net.build(counters);
    if (obs::trace_enabled()) {
      obs::trace_event(
          "oracle", "build",
          {{"jobs", job_count},
           {"segments", static_cast<std::int64_t>(counters.segments)},
           {"integer_mode", net.kInteger},
           {"tree_edges", static_cast<std::int64_t>(counters.tree_edges)},
           {"direct_edges", static_cast<std::int64_t>(counters.direct_edges)},
           {"load_lb", density_lb}});
    }
  });
  published = DinicStats{};

  registry.counter("oracle.builds").add();
  if (dyn_mode)
    registry.counter("dyn.rebuilds").add();
  else
    registry.counter("oracle.tree_edges").add(counters.tree_edges);
  registry.counter("oracle.direct_edges").add(counters.direct_edges);
}

FeasibilityOracle::~FeasibilityOracle() = default;
FeasibilityOracle::FeasibilityOracle(FeasibilityOracle&&) noexcept = default;
FeasibilityOracle& FeasibilityOracle::operator=(FeasibilityOracle&&) noexcept =
    default;

// Rebuilds an Instance from the normalized per-job arrays for the packing
// upper bound. The integer grid is the original instance under an affine
// time rescale (denominator-lcm stretch), which preserves OPT and maps a
// feasible witness schedule back and forth, so packing the materialized
// instance certifies the original.
Instance FeasibilityOracle::Impl::materialize() const {
  return with_net([this](const auto& net) {
    std::vector<Job> jobs;
    jobs.reserve(static_cast<std::size_t>(job_count));
    for (std::size_t j = 0; j < net.release.size(); ++j) {
      // Edited oracles may still hold retired slots' values; only live
      // slots belong to the instance being certified.
      if (dyn_mode && !slot_live[j]) continue;
      jobs.push_back(Job{to_rat(net.release[j]), to_rat(net.deadline[j]),
                         to_rat(net.processing[j])});
    }
    return Instance(std::move(jobs));
  });
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
  // normalized arrays (the live view after an edit). Integer grids run the
  // budgeted SIMD kernel (same as lower_bound()); rational grids take the
  // double-prefiltered exact sweep.
  refresh_dyn_bounds();
  std::int64_t lo = density_lb;
  {
    obs::ProfileSpan span("bound_lo");
    lo = std::max(lo, with_net([this](const auto& net) {
                    return net.sweep_bound(dyn_mode ? &slot_live : nullptr,
                                           /*prefilter=*/true);
                  }));
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
  return with_net([&](auto& net) {
    bool result;
    bool warm = false;
    {
      obs::ScopedTimer timer(registry.timing("oracle.probe_ns"));
      obs::ScopedLatency latency("hist.probe_ns");
      // First probe after a splice: this max-flow IS the warm repair (it
      // re-augments only the deficit the edit opened).
      std::optional<obs::ProfileSpan> repair;
      if (pending_repair) repair.emplace("flow_repair");
      pending_repair = false;
      result = net.probe(machines, warm);
    }
    registry.counter(warm ? "oracle.warm_probes" : "oracle.cold_probes").add();
    const DinicStats& now = net.graph.stats();
    if (obs::trace_enabled()) {
      obs::trace_event("oracle", "probe",
                       {{"m", machines},
                        {"feasible", result},
                        {"warm", warm},
                        {"augmenting_paths",
                         now.augmenting_paths - published.augmenting_paths},
                        {"integer_mode", net.kInteger}});
    }
    registry.counter("flow.bfs_passes")
        .add(now.bfs_passes - published.bfs_passes);
    registry.counter("flow.augmenting_paths")
        .add(now.augmenting_paths - published.augmenting_paths);
    registry.counter("flow.edge_visits")
        .add(now.edge_visits - published.edge_visits);
    published = now;
    return result;
  });
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
    lb = std::max(lb, with_net([this](const auto& net) {
                    return net.sweep_bound(dyn_mode ? &slot_live : nullptr,
                                           /*prefilter=*/false);
                  }));
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
      with_net([](const auto& net) { return net.release.size(); });
  slot_live.assign(n, 1);
  id_of_slot.resize(n);
  std::iota(id_of_slot.begin(), id_of_slot.end(), JobId{0});
  slot_of_id.resize(n);
  std::iota(slot_of_id.begin(), slot_of_id.end(), std::int64_t{0});
  free_slots.clear();
}

// Physically erases retired slots from the active net's arrays, renumbering
// live slots (ids stay stable through slot_of_id).
void FeasibilityOracle::Impl::compact_slots() {
  with_net([this](auto& net) { net.compact(slot_live); });
  std::size_t w = 0;
  for (std::size_t s = 0; s < slot_live.size(); ++s) {
    if (!slot_live[s]) continue;
    id_of_slot[w] = id_of_slot[s];
    slot_of_id[id_of_slot[w]] = static_cast<std::int64_t>(w);
    ++w;
  }
  id_of_slot.resize(w);
  slot_live.assign(w, 1);
  free_slots.clear();
}

// Recomputes the density bound over the LIVE slots after an edit (a
// missing insert would merely loosen it, but the differential suite pins
// exact agreement with the batch oracle).
void FeasibilityOracle::Impl::refresh_dyn_bounds() {
  if (!lb_dirty) return;
  lb_dirty = false;
  density_lb = 1;
  if (empty || !well_formed || job_count <= 0) return;
  density_lb = with_net(
      [this](const auto& net) { return net.density_bound(&slot_live); });
}

JobId FeasibilityOracle::Impl::insert(const Job& job) {
  if (!well_formed)
    throw std::invalid_argument(
        "insert_job: oracle holds a malformed instance");
  if (!job.well_formed())
    throw std::invalid_argument("insert_job: malformed job");
  obs::ProfileSpan span("dyn_insert");
  obs::Registry::global().counter("dyn.inserts").add();

  const bool first = !dyn_mode && empty;
  enter_dyn_mode();
  // Slot allocation: retired slots are recycled before the arrays grow.
  std::size_t slot;
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
  } else {
    slot = slot_live.size();
    slot_live.push_back(0);
    id_of_slot.push_back(kInvalidJob);
  }
  // The first job of a constructed-empty oracle decides the grid the way
  // normalization does, minus the lcm grid (scale 1 or exact rationals);
  // later jobs land on the active grid, or demote it to rationals once.
  if (first)
    normalize(Instance(std::vector<Job>{job}), /*small_grid=*/true,
              /*lcm_grid=*/false);
  else
    store_job(slot, job);
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
  splice(slot, /*insert=*/true);
  return id;
}

// Patches an edit into a built network. The spliced layout absorbs it in
// place and the next probe repairs the flow warm; a batch layout converts
// to the spliceable one lazily on the next probe (coalescing any further
// edits before it for free).
void FeasibilityOracle::Impl::splice(std::size_t slot, bool insert) {
  if (!network_built) return;
  with_net([&](auto& net) {
    if (!net.dyn.active) {
      network_built = false;
      return;
    }
    insert ? net.splice_insert(slot) : net.splice_remove(slot);
    if (net.dyn.dead_edges > net.dyn.live_edges + 64) {
      // Dead-edge debt exceeds the live set: fold the zero-capacity
      // edges away with a fresh compacted build on the next probe.
      network_built = false;
      pending_repair = false;
    } else {
      obs::Registry::global().counter("dyn.rebuilds_avoided").add();
      pending_repair = true;
    }
  });
}

void FeasibilityOracle::Impl::remove(JobId id) {
  if (!well_formed)
    throw std::invalid_argument(
        "remove_job: oracle holds a malformed instance");
  obs::ProfileSpan span("dyn_remove");
  obs::Registry::global().counter("dyn.removes").add();
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
    // any machine count, OPT 0) until the next insert, which lands in the
    // retired slots and rebuilds compacted.
    empty = true;
    min_feasible = 0;
    max_infeasible = 0;
    network_built = false;
    pending_repair = false;
    return;
  }
  splice(slot, /*insert=*/false);
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
