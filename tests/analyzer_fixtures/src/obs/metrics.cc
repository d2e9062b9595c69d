// Fixture: this path is an export path, so iterating the unordered
// container below must trip unordered-iteration (on the loop, line 9).
#include <string>
#include <unordered_map>

std::string ExportAll() {
  std::unordered_map<std::string, double> values;
  std::string out;
  for (const auto& [name, value] : values) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}
