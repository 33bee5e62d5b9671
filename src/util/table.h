// Console table / CSV rendering.
//
// Every bench binary reproduces one of the paper's figures as a table of
// series; this renderer keeps the output self-describing: a caption naming
// the figure, aligned columns for humans, and a machine-readable CSV block.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace shuffledef::util {

class Table {
 public:
  explicit Table(std::string caption = {});

  Table& set_headers(std::vector<std::string> headers);

  /// Append one row; the cell count must match the header count (checked at
  /// print time so rows can be assembled incrementally).
  Table& add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Human-readable aligned rendering.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  void print_csv(std::ostream& os) const;

  /// Convenience: aligned table followed by a CSV block, to stdout.
  void print_with_csv() const;

 private:
  std::string caption_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double -> string ("3.142" style).
std::string fmt(double v, int precision = 3);

/// Integer -> string.
std::string fmt(std::int64_t v);

/// "mean ± half" with the CI half-width at the given level.
std::string fmt_ci(double mean, double half, int precision = 2);

}  // namespace shuffledef::util
