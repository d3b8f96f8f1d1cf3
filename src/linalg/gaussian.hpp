#pragma once
// Gaussian elimination over finite fields: rank, reduced row echelon form,
// inversion, and linear solve. These are the building blocks beneath the RLNC
// decoder and the Reed–Solomon codec.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/reduced_basis.hpp"
#include "obs/metrics.hpp"

namespace ncast::linalg {

/// Transforms `m` in place to reduced row echelon form.
/// Returns the pivot column for each pivot row (so the return size is the rank).
template <typename Field>
std::vector<std::size_t> rref_in_place(Matrix<Field>& m) {
  using V = typename Field::value_type;
  static obs::Histogram& rref_ns = obs::metrics().histogram("linalg.rref_ns");
  obs::ScopeTimer timer(rref_ns);
  std::vector<std::size_t> pivots;
  pivots.reserve(std::min(m.rows(), m.cols()));
  std::size_t pivot_row = 0;
  // ncast:hot-begin — elimination sweep: region kernels only; the pivot
  // vector's capacity is reserved above so the loop allocates nothing.
  for (std::size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Find a row at or below pivot_row with a nonzero entry in this column.
    std::size_t sel = pivot_row;
    while (sel < m.rows() && m(sel, col) == V{0}) ++sel;
    if (sel == m.rows()) continue;
    m.swap_rows(sel, pivot_row);

    // The pivot row is zero left of `col` (earlier pivot columns were
    // eliminated; skipped columns were zero in every row at or below the
    // then-current pivot row), so normalization and elimination only touch
    // the trailing columns.
    const std::size_t tail = m.cols() - col;
    const V p = m(pivot_row, col);
    if (p != V{1}) {
      Field::region_mul(m.row(pivot_row) + col, Field::inv(p), tail);
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r == pivot_row) continue;
      const V f = m(r, col);
      if (f != V{0}) {
        Field::region_madd(m.row(r) + col, m.row(pivot_row) + col, f, tail);
      }
    }
    pivots.push_back(col);  // ncast:allow(hot_path.alloc): capacity reserved before the sweep
    ++pivot_row;
  }
  // ncast:hot-end
  return pivots;
}

/// Rank of `m` (by copy; does not modify the argument).
template <typename Field>
std::size_t rank(const Matrix<Field>& m) {
  Matrix<Field> tmp = m;
  return rref_in_place(tmp).size();
}

/// Inverse of a square matrix, or nullopt if singular.
template <typename Field>
std::optional<Matrix<Field>> invert(const Matrix<Field>& m) {
  if (m.rows() != m.cols()) return std::nullopt;
  const std::size_t n = m.rows();
  // Build the augmented matrix [m | I] and reduce.
  Matrix<Field> aug(n, 2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) aug(r, c) = m(r, c);
    aug(r, n + r) = typename Field::value_type{1};
  }
  const auto pivots = rref_in_place(aug);
  // All n pivots must land in the left block; a pivot in the identity block
  // means the left block is rank-deficient.
  if (pivots.size() != n || pivots.back() >= n) return std::nullopt;
  Matrix<Field> inv(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) inv(r, c) = aug(r, n + c);
  }
  return inv;
}

/// Solves m * x = b for x where m is square and nonsingular; nullopt otherwise.
/// b and the result are column vectors given as std::vector.
template <typename Field>
std::optional<std::vector<typename Field::value_type>> solve(
    const Matrix<Field>& m, const std::vector<typename Field::value_type>& b) {
  using V = typename Field::value_type;
  if (m.rows() != m.cols() || b.size() != m.rows()) return std::nullopt;
  const std::size_t n = m.rows();
  Matrix<Field> aug(n, n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) aug(r, c) = m(r, c);
    aug(r, n) = b[r];
  }
  const auto pivots = rref_in_place(aug);
  // A pivot in the b column means the system is inconsistent.
  if (pivots.size() != n || pivots.back() >= n) return std::nullopt;
  std::vector<V> x(n);
  for (std::size_t r = 0; r < n; ++r) x[r] = aug(r, n);
  return x;
}

/// Incrementally maintained row space: feed rows one at a time; `absorb`
/// reports whether the row was innovative (increased the rank). Used by the
/// simulators to track useful information received by a node without keeping
/// full payloads. A thin shell over ReducedBasis — the same arena-backed
/// elimination core the RLNC decoder uses.
template <typename Field>
class IncrementalRank {
 public:
  using value_type = typename Field::value_type;

  explicit IncrementalRank(std::size_t dimension)
      : basis_(dimension, dimension) {}

  std::size_t dimension() const { return basis_.pivot_cols(); }
  std::size_t rank() const { return basis_.rank(); }
  bool complete() const { return rank() == dimension(); }

  /// Reduces `row` against the stored basis; if a remainder survives, stores
  /// it (normalized) and returns true. A complete space rejects at once.
  bool absorb(const std::vector<value_type>& row) {
    if (row.size() != dimension()) {
      throw std::invalid_argument("IncrementalRank::absorb: arity");
    }
    if (complete()) return false;
    std::copy(row.begin(), row.end(), basis_.scratch_row());
    return basis_.absorb();
  }

 private:
  ReducedBasis<Field> basis_;
};

}  // namespace ncast::linalg
