#pragma once
// Minimal aligned-table printer; the examples use it to print paper-style
// result tables (the paper experiments' rows are in BENCH_paper.json).

#include <ostream>
#include <string>
#include <vector>

namespace dcl {

class table {
 public:
  explicit table(std::vector<std::string> header);

  /// Appends one row; the cell count must match the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience for mixed numeric/string rows.
  class row_builder {
   public:
    explicit row_builder(table& t) : t_(t) {}
    row_builder& cell(const std::string& s);
    row_builder& cell(double v, int precision = 2);
    row_builder& cell(std::int64_t v);
    ~row_builder();

   private:
    table& t_;
    std::vector<std::string> cells_;
  };
  row_builder row() { return row_builder(*this); }

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dcl
