#include "graph/builder.hpp"

#include "common/require.hpp"

namespace gnnie {

GraphBuilder::GraphBuilder(VertexId vertex_count) : vertex_count_(vertex_count) {}

GraphBuilder& GraphBuilder::add_edge(VertexId src, VertexId dst) {
  GNNIE_REQUIRE(src < vertex_count_ && dst < vertex_count_, "edge endpoint out of range");
  edges_.push_back({src, dst});
  return *this;
}

GraphBuilder& GraphBuilder::add_edges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) add_edge(e.src, e.dst);
  return *this;
}

GraphBuilder& GraphBuilder::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (edges_[i].src != edges_[i].dst) edges_.push_back({edges_[i].dst, edges_[i].src});
  }
  return *this;
}

GraphBuilder& GraphBuilder::remove_self_loops() {
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return *this;
}

Csr GraphBuilder::build() const {
  // Two stable counting sorts — by destination, then by source — leave every
  // row sorted in O(V + E); dropping repeats within each row then gives the
  // canonical CSR (rows ascending, no duplicate edges).
  const std::size_t n = vertex_count_;
  const auto prefix_counts = [n, this](auto endpoint) {
    std::vector<EdgeId> starts(n + 1, 0);
    for (const Edge& e : edges_) ++starts[endpoint(e) + 1];
    for (std::size_t v = 1; v <= n; ++v) starts[v] += starts[v - 1];
    return starts;
  };
  // The sources of each destination, destinations ascending.
  std::vector<EdgeId> dst_end = prefix_counts([](const Edge& e) { return e.dst; });
  std::vector<VertexId> sources(edges_.size());
  for (const Edge& e : edges_) sources[dst_end[e.dst]++] = e.src;

  // Scattered into rows in that order, each row comes out sorted.
  std::vector<EdgeId> offsets = prefix_counts([](const Edge& e) { return e.src; });
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<VertexId> neighbors(edges_.size());
  EdgeId i = 0;
  for (VertexId dst = 0; dst < n; ++dst) {
    for (; i < dst_end[dst]; ++i) neighbors[cursor[sources[i]]++] = dst;
  }

  EdgeId out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeId row_begin = offsets[v];
    const EdgeId row_end = offsets[v + 1];
    offsets[v] = out;
    for (EdgeId e = row_begin; e < row_end; ++e) {
      if (out == offsets[v] || neighbors[e] != neighbors[out - 1]) neighbors[out++] = neighbors[e];
    }
  }
  offsets[n] = out;
  if (out != neighbors.size()) {
    neighbors.resize(out);
    neighbors.shrink_to_fit();
  }
  return Csr(std::move(offsets), std::move(neighbors));
}

Csr apply_permutation(const Csr& g, const std::vector<VertexId>& perm) {
  GNNIE_REQUIRE(perm.size() == g.vertex_count(), "permutation size must match vertex count");
  std::vector<bool> seen(perm.size(), false);
  for (VertexId p : perm) {
    GNNIE_REQUIRE(p < perm.size() && !seen[p], "perm must be a permutation");
    seen[p] = true;
  }
  GraphBuilder b(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (VertexId n : g.neighbors(v)) b.add_edge(perm[v], perm[n]);
  }
  return b.build();
}

}  // namespace gnnie
