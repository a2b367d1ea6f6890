// ASCII table rendering used by every benchmark harness to print
// the rows of the paper's tables and figures.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace looplynx::util {

/// Column alignment inside a rendered table.
enum class Align { kLeft, kRight };

/// A simple string-cell table with a title, one header row and N data rows.
///
/// Cells are stored as strings; helpers format numeric values. The table
/// renders as aligned ASCII for terminals.
class Table {
 public:
  explicit Table(std::string title = "");

  /// Sets the header row; defines the column count.
  void set_header(std::vector<std::string> header);

  /// Sets per-column alignment; missing entries default to kRight (the first
  /// column defaults to kLeft).
  void set_align(std::vector<Align> align);

  /// Appends a data row. Rows shorter than the header are padded with "".
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator between row groups.
  void add_separator();

  std::size_t num_rows() const { return rows_.size(); }
  const std::string& title() const { return title_; }

  /// Renders the table with box-drawing borders.
  void render(std::ostream& os) const;

  /// Convenience: render() into a string.
  std::string to_string() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  Align column_align(std::size_t col) const;
  std::vector<std::size_t> column_widths() const;

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Align> align_;
  std::vector<Row> rows_;
};

/// Formats a double with `digits` fractional digits ("3.85").
std::string fmt_fixed(double value, int digits = 2);

/// Formats a ratio as a speed-up string ("2.52x").
std::string fmt_speedup(double ratio, int digits = 2);

/// Formats a fraction as a percentage ("48.1%").
std::string fmt_percent(double fraction, int digits = 1);

/// Formats an integer with thousands separators ("12,288").
std::string fmt_int(long long value);

/// Formats a count as "312K" / "1.2M" in the style of the paper's resource
/// tables.
std::string fmt_kilo(double value, int digits = 0);

/// Formats a rate in bytes/second in decimal units, as the paper quotes
/// HBM and link bandwidth ("8.49 GB/s").
std::string fmt_rate(double bytes_per_second);

}  // namespace looplynx::util
