#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace shuffledef::util {

Table::Table(std::string caption) : caption_(std::move(caption)) {}

Table& Table::set_headers(std::vector<std::string> headers) {
  headers_ = std::move(headers);
  return *this;
}

Table& Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::print(std::ostream& os) const {
  for (const auto& row : rows_) {
    if (!headers_.empty() && row.size() != headers_.size()) {
      throw std::logic_error("Table: row width does not match header width");
    }
  }
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  if (!caption_.empty()) os << "== " << caption_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << "  " << std::left << std::setw(static_cast<int>(widths[i]))
         << cells[i];
    }
    os << "\n";
  };
  if (!headers_.empty()) {
    print_row(headers_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
  }
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << csv_escape(cells[i]);
    }
    os << '\n';
  };
  if (!headers_.empty()) emit(headers_);
  for (const auto& row : rows_) emit(row);
}

void Table::print_with_csv() const {
  print(std::cout);
  std::cout << "\n--- csv ---\n";
  print_csv(std::cout);
  std::cout << "--- end csv ---\n\n";
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt(std::int64_t v) { return std::to_string(v); }

std::string fmt_ci(double mean, double half, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << mean << " ± " << half;
  return os.str();
}

}  // namespace shuffledef::util
