// Plain-text table and CSV output for the bench harness.
//
// Every bench binary prints the rows/series the paper's corresponding table
// or figure reports; TextTable renders them with aligned columns so the
// output is directly readable in a terminal, and WriteCsv emits the same
// data for plotting.

#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace papd {

class TextTable {
 public:
  // Sets (replaces) the header row.
  void SetHeader(std::vector<std::string> header);

  // Appends a data row.  Rows may have fewer cells than the header.
  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);

  // Renders with aligned columns, a rule under the header, and two-space
  // column gaps.
  void Print(std::ostream& os) const;

  // Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void WriteCsv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner used between experiment sub-tables.
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace papd

#endif  // SRC_COMMON_TABLE_H_
