#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <sstream>

namespace looplynx::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::set_align(std::vector<Align> align) { align_ = std::move(align); }

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(Row{std::move(row), /*separator=*/false});
}

void Table::add_separator() { rows_.push_back(Row{{}, /*separator=*/true}); }

Align Table::column_align(std::size_t col) const {
  if (col < align_.size()) return align_[col];
  return col == 0 ? Align::kLeft : Align::kRight;
}

std::vector<std::size_t> Table::column_widths() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }
  return widths;
}

namespace {

void render_rule(std::ostream& os, const std::vector<std::size_t>& widths,
                 char left, char mid, char right) {
  os << left;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    for (std::size_t i = 0; i < widths[c] + 2; ++i) os << '-';
    os << (c + 1 == widths.size() ? right : mid);
  }
  os << '\n';
}

}  // namespace

void Table::render(std::ostream& os) const {
  const auto widths = column_widths();
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  render_rule(os, widths, '+', '+', '+');
  // Header.
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << ' ' << header_[c]
       << std::string(widths[c] - header_[c].size(), ' ') << " |";
  }
  os << '\n';
  render_rule(os, widths, '+', '+', '+');
  for (const Row& row : rows_) {
    if (row.separator) {
      render_rule(os, widths, '+', '+', '+');
      continue;
    }
    os << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell =
          c < row.cells.size() ? row.cells[c] : std::string();
      const std::size_t pad = widths[c] - cell.size();
      if (column_align(c) == Align::kRight) {
        os << ' ' << std::string(pad, ' ') << cell << " |";
      } else {
        os << ' ' << cell << std::string(pad, ' ') << " |";
      }
    }
    os << '\n';
  }
  render_rule(os, widths, '+', '+', '+');
}

std::string Table::to_string() const {
  std::ostringstream os;
  render(os);
  return os.str();
}

std::string fmt_fixed(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string fmt_speedup(double ratio, int digits) {
  return fmt_fixed(ratio, digits) + "x";
}

std::string fmt_percent(double fraction, int digits) {
  return fmt_fixed(fraction * 100.0, digits) + "%";
}

std::string fmt_int(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string fmt_kilo(double value, int digits) {
  if (std::abs(value) >= 1e6) return fmt_fixed(value / 1e6, std::max(digits, 1)) + "M";
  if (std::abs(value) >= 1e3) return fmt_fixed(value / 1e3, digits) + "K";
  return fmt_fixed(value, digits);
}

std::string fmt_rate(double bytes_per_second) {
  static const char* const kUnits[] = {"B/s", "KB/s", "MB/s", "GB/s",
                                       "TB/s"};
  std::size_t idx = 0;
  while (idx + 1 < std::size(kUnits) && bytes_per_second >= 1000.0) {
    bytes_per_second /= 1000.0;
    ++idx;
  }
  return fmt_fixed(bytes_per_second, bytes_per_second < 10 ? 2 : 1) + ' ' +
         kUnits[idx];
}

}  // namespace looplynx::util
