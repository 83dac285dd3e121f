#include "graph/cc.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace nbwp::graph {
namespace {

// Property suite: every CC kernel must compute the same partition into
// components as the union-find reference, across graph families.
struct CcCase {
  const char* name;
  CsrGraph (*make)(Rng&);
};

// Print the case by name: the default byte dump holds function addresses,
// which change from run to run and would end up in the ctest name.
void PrintTo(const CcCase& c, std::ostream* os) { *os << c.name; }

CsrGraph make_er(Rng& rng) { return erdos_renyi(400, 900, rng); }
CsrGraph make_sparse_er(Rng& rng) { return erdos_renyi(1000, 600, rng); }
CsrGraph make_mesh(Rng& rng) { return banded_mesh(600, 8, 16, rng); }
CsrGraph make_rmat(Rng& rng) { return rmat(512, 2000, rng); }
CsrGraph make_road(Rng& rng) { return road_network(2000, rng); }
CsrGraph make_planar(Rng& rng) { return planar_triangulation(20, 20, rng); }
CsrGraph make_pieces(Rng& rng) {
  return with_components(banded_mesh(900, 6, 12, rng), 5);
}
CsrGraph make_empty_edges(Rng&) {
  return CsrGraph::from_undirected_edges(50, {});
}

class CcKernelsTest : public ::testing::TestWithParam<CcCase> {};

TEST_P(CcKernelsTest, AllKernelsAgreeWithReference) {
  Rng rng(42);
  const CsrGraph g = GetParam().make(rng);
  const CcResult ref = cc_union_find(g);

  const CcResult bfs = cc_bfs(g);
  EXPECT_EQ(bfs.num_components, ref.num_components);
  EXPECT_TRUE(labels_equivalent(g, bfs.labels));

  const CcResult dfs = cc_dfs(g);
  EXPECT_EQ(dfs.num_components, ref.num_components);
  EXPECT_TRUE(labels_equivalent(g, dfs.labels));

  const CcResult sv = cc_shiloach_vishkin(g);
  EXPECT_EQ(sv.num_components, ref.num_components);
  EXPECT_TRUE(labels_equivalent(g, sv.labels));

  ThreadPool pool(4);
  for (unsigned chunks : {1u, 3u, 8u}) {
    const CcResult chunked = cc_chunked_parallel(g, pool, chunks);
    EXPECT_EQ(chunked.num_components, ref.num_components)
        << "chunks=" << chunks;
    EXPECT_TRUE(labels_equivalent(g, chunked.labels));
  }

  const CcResult lp = cc_label_propagation(g, pool);
  EXPECT_EQ(lp.num_components, ref.num_components);
  EXPECT_TRUE(labels_equivalent(g, lp.labels));

  // Adaptive kernel: both strategies (forced skip phase, forced LP
  // fallback) and the default heuristic, under several team sizes.
  for (unsigned team : {1u, 2u, 4u, 8u}) {
    ThreadPool tp(team);
    for (double threshold : {-1.0, 2.0}) {
      CcAdaptiveOptions opt;
      opt.giant_threshold = threshold;
      const CcResult ad = cc_adaptive(g, tp, opt);
      EXPECT_EQ(ad.num_components, ref.num_components)
          << "team=" << team << " threshold=" << threshold;
      EXPECT_TRUE(labels_equivalent(g, ad.labels))
          << "team=" << team << " threshold=" << threshold;
    }
    const CcResult ad = cc_adaptive(g, tp);
    EXPECT_EQ(ad.num_components, ref.num_components) << "team=" << team;
    EXPECT_TRUE(labels_equivalent(g, ad.labels)) << "team=" << team;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CcKernelsTest,
    ::testing::Values(CcCase{"er", make_er}, CcCase{"sparse_er", make_sparse_er},
                      CcCase{"mesh", make_mesh}, CcCase{"rmat", make_rmat},
                      CcCase{"road", make_road},
                      CcCase{"planar", make_planar},
                      CcCase{"pieces", make_pieces},
                      CcCase{"no_edges", make_empty_edges}),
    [](const auto& info) { return info.param.name; });

TEST(CcAdaptive, DeterministicMinLabelsAcrossTeamSizes) {
  // On the skip-phase path the component label is the component's minimum
  // vertex id, so full label vectors (not just the partition) must agree
  // across team sizes and repeated runs.
  Rng rng(11);
  const CsrGraph g = preferential_attachment(3000, 6, rng);
  CcAdaptiveOptions opt;
  opt.giant_threshold = -1.0;  // force the skip phase
  ThreadPool p1(1);
  const CcResult ref = cc_adaptive(g, p1, opt);
  // Serial BFS also roots components at their minimum vertex.
  EXPECT_EQ(ref.labels, cc_bfs(g).labels);
  for (unsigned team : {2u, 4u, 8u}) {
    ThreadPool pool(team);
    EXPECT_EQ(ref.labels, cc_adaptive(g, pool, opt).labels)
        << "team=" << team;
    EXPECT_EQ(ref.labels, cc_adaptive(g, pool, opt).labels)
        << "team=" << team << " (repeat)";
  }
}

TEST(CcAdaptive, HeuristicPicksSkipPhaseOnScaleFree) {
  // A scale-free graph is one giant component after two neighbor rounds;
  // the sampled estimate must see it and keep the afforest path (which
  // reports iterations = neighbor_rounds, unlike the LP fallback whose
  // iteration count tracks flooding rounds over a high-diameter graph).
  Rng rng(12);
  const CsrGraph g = preferential_attachment(4000, 8, rng);
  ThreadPool pool(4);
  const CcResult r = cc_adaptive(g, pool);
  const CcAdaptiveOptions defaults;
  EXPECT_EQ(r.iterations, defaults.neighbor_rounds);
  EXPECT_TRUE(labels_equivalent(g, r.labels));
}

TEST(CcAdaptive, FallsBackToLabelPropagationOnFragmentedGraph) {
  // 64 equal pieces: the mode component holds ~1/64 of sampled vertices,
  // far below the default 10% threshold.
  Rng rng(13);
  const CsrGraph g = with_components(banded_mesh(2048, 6, 12, rng), 64);
  ThreadPool pool(4);
  const CcResult r = cc_adaptive(g, pool);
  // The LP fallback floods until a fixpoint: at least one iteration, and
  // its iteration count is what CcResult reports (not neighbor_rounds).
  EXPECT_GE(r.iterations, 1u);
  EXPECT_TRUE(labels_equivalent(g, r.labels));
  EXPECT_EQ(r.num_components, cc_union_find(g).num_components);
}

TEST(CcAdaptive, EmptyGraphAndNoEdges) {
  ThreadPool pool(2);
  const CsrGraph empty;
  EXPECT_EQ(cc_adaptive(empty, pool).num_components, 0u);
  const CsrGraph isolated = CsrGraph::from_undirected_edges(7, {});
  CcAdaptiveOptions opt;
  opt.giant_threshold = -1.0;
  const CcResult r = cc_adaptive(isolated, pool, opt);
  EXPECT_EQ(r.num_components, 7u);
  for (Vertex v = 0; v < 7; ++v) EXPECT_EQ(r.labels[v], v);
}

TEST(ShiloachVishkin, IterationsLogarithmic) {
  Rng rng(7);
  const CsrGraph g = banded_mesh(4000, 8, 32, rng);
  const CcResult sv = cc_shiloach_vishkin(g);
  EXPECT_GE(sv.iterations, 1u);
  EXPECT_LE(sv.iterations, 4 + 2 * 12 /* ~log2(4000) */);
}

TEST(LabelPropagation, MaxItersBoundsRounds) {
  Rng rng(8);
  const CsrGraph g = road_network(3000, rng);  // high diameter
  ThreadPool pool(2);
  const CcResult capped = cc_label_propagation(g, pool, 3);
  EXPECT_EQ(capped.iterations, 3u);
}

TEST(MergeCrossEdges, ReassemblesPartitionedGraph) {
  Rng rng(9);
  const CsrGraph g = erdos_renyi(500, 1500, rng);
  const CcResult ref = cc_union_find(g);
  ThreadPool pool(2);
  for (Vertex cut : {Vertex{0}, Vertex{170}, Vertex{500}}) {
    const GraphPartition part = split_by_prefix(g, cut);
    CcResult cpu_cc, gpu_cc;
    if (cut > 0) cpu_cc = cc_chunked_parallel(part.cpu_part, pool, 4);
    if (cut < 500) gpu_cc = cc_shiloach_vishkin(part.gpu_part);
    std::vector<Vertex> labels(g.num_vertices());
    for (Vertex v = 0; v < cut; ++v) labels[v] = cpu_cc.labels[v];
    for (Vertex v = cut; v < 500; ++v)
      labels[v] = gpu_cc.labels[v - cut] + cut;
    const Vertex merged = merge_cross_edges(labels, part.cross_edges);
    EXPECT_EQ(merged, ref.num_components) << "cut=" << cut;
    EXPECT_TRUE(labels_equivalent(g, labels));
  }
}

TEST(CountComponents, CountsDistinctLabels) {
  const std::vector<Vertex> labels = {0, 0, 3, 3, 7};
  EXPECT_EQ(count_components(labels), 3u);
}

TEST(LabelsEquivalent, DetectsWrongPartition) {
  Rng rng(10);
  const CsrGraph g = erdos_renyi(50, 200, rng);
  std::vector<Vertex> labels(g.num_vertices(), 0);
  labels[0] = 1;  // splits one vertex out of its (likely) giant component
  const CcResult ref = cc_union_find(g);
  if (ref.num_components == 1) {
    EXPECT_FALSE(labels_equivalent(g, labels));
  }
}

}  // namespace
}  // namespace nbwp::graph
