#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/require.hpp"

namespace gnnie {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  GNNIE_REQUIRE(data_.size() == rows_ * cols_, "matrix data size mismatch");
}

float Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  GNNIE_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(), "shape mismatch");
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  GNNIE_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // Row i of C is one gather over row i's nonzeros, in ascending k. The
  // nonzeros are compacted without a branch: zeros are as common as not.
  std::vector<std::uint32_t> nonzero_k(a.cols());
  std::vector<float> nonzero_a(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto a_row = a.row(i);
    std::size_t count = 0;
    for (std::size_t k = 0; k < a_row.size(); ++k) {
      nonzero_k[count] = static_cast<std::uint32_t>(k);
      nonzero_a[count] = a_row[k];
      count += a_row[k] != 0.0f ? 1 : 0;
    }
    gather_axpy(std::span(nonzero_k).first(count), std::span(nonzero_a).first(count), b,
                c.row(i));
  }
  return c;
}

namespace {

/// Four floats, operated on lane by lane with plain IEEE single-precision
/// mul and add — the same operations as the scalar loop, four at a time.
using Float4 = float __attribute__((vector_size(16)));

Float4 load4(const float* p) {
  Float4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, Float4 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

void gather_axpy(std::span<const std::uint32_t> rows, std::span<const float> scales,
                 const Matrix& b, std::span<float> out) {
  GNNIE_REQUIRE(rows.size() == scales.size(), "gather_axpy needs one scale per row");
  GNNIE_REQUIRE(out.size() == b.cols(), "gather_axpy span size mismatch");
  // Per element the additions are axpy's, in the same order:
  // out + s0·b0 + s1·b1 + …. A tile of 32 columns stays in eight vector
  // registers for the whole gather; the last partial tile accumulates in
  // place.
  constexpr std::size_t kVecs = 8;
  constexpr std::size_t kTile = 4 * kVecs;
  const std::size_t n = out.size();
  std::size_t j0 = 0;
  for (; j0 + kTile <= n; j0 += kTile) {
    Float4 acc[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) acc[v] = load4(&out[j0 + 4 * v]);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      const Float4 s = {scales[t], scales[t], scales[t], scales[t]};
      const float* src = b.row(rows[t]).data() + j0;
      for (std::size_t v = 0; v < kVecs; ++v) acc[v] += s * load4(src + 4 * v);
    }
    for (std::size_t v = 0; v < kVecs; ++v) store4(&out[j0 + 4 * v], acc[v]);
  }
  if (j0 == n) return;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const float s = scales[t];
    const float* src = b.row(rows[t]).data();
    for (std::size_t j = j0; j < n; ++j) out[j] += s * src[j];
  }
}

}  // namespace gnnie
