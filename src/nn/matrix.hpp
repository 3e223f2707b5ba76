// Row-major dense matrix plus the kernels every functional path runs on:
// axpy (the aggregation inner loop), gather_axpy (sparse weighting) and
// matmul (dense weighting). They are the engine's hottest host code, so
// they are tuned — but never at the cost of bit-exactness: each output
// element gets the same float multiplies and adds, in the same order, as
// the straightforward loop (one axpy per term, ascending k).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"

namespace gnnie {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  std::span<const float> data() const { return data_; }
  std::span<float> data() { return data_; }

  /// Elementwise maximum absolute difference; matrices must be congruent.
  static float max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A × B. Each c(i,j) sums a(i,k)·b(k,j) over ascending k, skipping
/// a(i,k) == 0 (input features are ultra-sparse).
Matrix matmul(const Matrix& a, const Matrix& b);

/// out += Σ_t scales[t] · b.row(rows[t]): bit-identical to calling
/// axpy(scales[t], b.row(rows[t]), out) for t = 0, 1, …, but register-tiled
/// over out's columns, so each tile of out is loaded and stored once. A
/// sparse row times a dense matrix is one call.
void gather_axpy(std::span<const std::uint32_t> rows, std::span<const float> scales,
                 const Matrix& b, std::span<float> out);

/// out += scale * row (axpy over spans). Inline: it runs once per
/// aggregated edge.
inline void axpy(float scale, std::span<const float> row, std::span<float> out) {
  GNNIE_REQUIRE(row.size() == out.size(), "axpy span size mismatch");
  const float* src = row.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < row.size(); ++i) dst[i] += scale * src[i];
}

}  // namespace gnnie
