// Two-dimensional array templates — the sibling problem the paper's
// Section 1.2 builds on ("the problem of conflict-free mapping and access
// to two-dimensional array data structures ... where templates of interest
// are rows, columns, diagonals, and subarrays", refs [4], [17]).
//
// pmtree includes this substrate so the tree results can be situated
// against the classical array results: the skewing schemes here are the
// array-world analogue of COLOR (conflict-free for a template menu, at
// the cost of structure), and bench_e13 regenerates the comparison.
//
// An Array2D is a shape (rows x cols); cells are (row, col) coordinates.
// Template instances mirror the tree ones: straight runs along a row,
// column, (anti)diagonal, and dense subarray blocks.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace pmtree {

struct Cell {
  std::uint64_t row = 0;
  std::uint64_t col = 0;

  friend constexpr bool operator==(const Cell&, const Cell&) = default;
  friend constexpr auto operator<=>(const Cell&, const Cell&) = default;
};

[[nodiscard]] inline std::string to_string(Cell c) {
  std::string s = "(";
  s += std::to_string(c.row);
  s += ", ";
  s += std::to_string(c.col);
  s += ')';
  return s;
}

class Array2D {
 public:
  constexpr Array2D(std::uint64_t rows, std::uint64_t cols) noexcept
      : rows_(rows), cols_(cols) {
    assert(rows >= 1 && cols >= 1);
  }

  [[nodiscard]] constexpr std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] constexpr std::uint64_t cols() const noexcept { return cols_; }
  [[nodiscard]] constexpr std::uint64_t size() const noexcept {
    return rows_ * cols_;
  }
  [[nodiscard]] constexpr bool contains(Cell c) const noexcept {
    return c.row < rows_ && c.col < cols_;
  }

  friend constexpr bool operator==(const Array2D&, const Array2D&) = default;

 private:
  std::uint64_t rows_;
  std::uint64_t cols_;
};

/// Straight-line run directions.
enum class RunDirection : std::uint8_t {
  kRow,           ///< (r, c), (r, c+1), ...
  kColumn,        ///< (r, c), (r+1, c), ...
  kDiagonal,      ///< (r, c), (r+1, c+1), ...
  kAntiDiagonal,  ///< (r, c), (r+1, c-1), ...
};

[[nodiscard]] constexpr const char* to_string(RunDirection d) noexcept {
  switch (d) {
    case RunDirection::kRow: return "row";
    case RunDirection::kColumn: return "column";
    case RunDirection::kDiagonal: return "diagonal";
    case RunDirection::kAntiDiagonal: return "antidiagonal";
  }
  return "?";
}

/// K consecutive cells along a direction, starting at `start`.
struct RunInstance {
  Cell start;
  RunDirection direction = RunDirection::kRow;
  std::uint64_t size = 1;

  [[nodiscard]] bool fits(const Array2D& array) const noexcept;
  [[nodiscard]] std::vector<Cell> cells() const;
};

/// A dense p x q block anchored at its top-left cell.
struct SubarrayInstance {
  Cell top_left;
  std::uint64_t height = 1;  ///< p: rows
  std::uint64_t width = 1;   ///< q: cols

  [[nodiscard]] constexpr std::uint64_t size() const noexcept {
    return height * width;
  }
  [[nodiscard]] constexpr bool fits(const Array2D& array) const noexcept {
    return top_left.row + height <= array.rows() &&
           top_left.col + width <= array.cols();
  }
  [[nodiscard]] std::vector<Cell> cells() const;
};

}  // namespace pmtree
