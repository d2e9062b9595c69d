// Fixture: iteration over a std::unordered_* member in an inline function
// of an export header (unordered-iteration, positive): the analyzer reads
// headers as well as .cc files.
#include <string>
#include <unordered_set>

namespace hattrick {

class ReportRows {
 public:
  std::string Join() const {
    std::string out;
    for (const std::string& row : rows_) out += row;
    return out;
  }

 private:
  std::unordered_set<std::string> rows_;
};

}  // namespace hattrick
