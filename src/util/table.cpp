#include "util/table.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/common.h"

namespace pathenum {

std::string FormatSci(double v) {
  if (!std::isfinite(v)) return v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
  if (v == 0.0) return "0.00e+0";
  char buf[32];
  int exponent = static_cast<int>(std::floor(std::log10(std::fabs(v))));
  double mantissa = v / std::pow(10.0, exponent);
  // A mantissa that rounds up to 10.00 at two decimals (9.9999, say)
  // belongs to the next decade: print 1.00e+1, not 10.00e+0.
  std::snprintf(buf, sizeof(buf), "%.2f", mantissa);
  if (std::fabs(std::strtod(buf, nullptr)) >= 10.0) {
    mantissa /= 10.0;
    ++exponent;
  }
  std::snprintf(buf, sizeof(buf), "%.2fe%+d", mantissa, exponent);
  return buf;
}

std::string FormatFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : columns_(header.size()) {
  PATHENUM_CHECK(columns_ > 0);
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  PATHENUM_CHECK_MSG(row.size() == columns_, "row arity mismatch");
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(columns_, 0);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < columns_; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < columns_; ++c) {
      os << rows_[r][c];
      if (c + 1 < columns_) {
        os << std::string(widths[c] - rows_[r][c].size() + 2, ' ');
      }
    }
    os << '\n';
    if (r == 0) {
      size_t total = 0;
      for (size_t c = 0; c < columns_; ++c) total += widths[c] + 2;
      os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    }
  }
}

}  // namespace pathenum
