#include "obs/plan_profile.h"

#include <algorithm>
#include <cstdio>

namespace hattrick {
namespace obs {
namespace {

/// Deterministic fixed-format float, same convention as the metrics
/// snapshot export (%.9g round-trips and never depends on locale).
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool SameShape(const std::deque<PlanProfileNode>& a,
               const std::deque<PlanProfileNode>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].parent != b[i].parent) return false;
  }
  return true;
}

/// Folds `from`'s counters into `into` (tree links untouched). Seconds
/// add (total across executions/shards); span bounds widen.
void SumInto(PlanProfileNode* into, const PlanProfileNode& from) {
  into->opens += from.opens;
  into->calls += from.calls;
  into->batches += from.batches;
  into->rows_out += from.rows_out;
  into->phys_rows += from.phys_rows;
  into->blocks_scanned += from.blocks_scanned;
  into->blocks_pruned += from.blocks_pruned;
  into->rows_clean += from.rows_clean;
  into->rows_override += from.rows_override;
  into->rows_insert += from.rows_insert;
  into->join_filter_dropped += from.join_filter_dropped;
  into->work_units += from.work_units;
  into->open_seconds += from.open_seconds;
  into->next_seconds += from.next_seconds;
  if (from.has_ts) {
    if (!into->has_ts) {
      into->first_ts = from.first_ts;
      into->last_ts = from.last_ts;
      into->has_ts = true;
    } else {
      into->first_ts = std::min(into->first_ts, from.first_ts);
      into->last_ts = std::max(into->last_ts, from.last_ts);
    }
  }
}

/// FNV-1a over `data`, folded into `hash`.
void FnvMix(const std::string& data, uint64_t* hash) {
  for (const char c : data) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 0x100000001b3ull;
  }
}

}  // namespace

PlanProfileNode* PlanProfile::BeginNode(const char* name,
                                        std::string detail) {
  nodes_.emplace_back();
  PlanProfileNode* node = &nodes_.back();
  node->name = name;
  node->detail = std::move(detail);
  const int index = static_cast<int>(nodes_.size()) - 1;
  if (!stack_.empty()) {
    node->parent = stack_.back();
    nodes_[static_cast<size_t>(stack_.back())].children.push_back(index);
  }
  stack_.push_back(index);
  if (executions_ == 0) executions_ = 1;
  return node;
}

void PlanProfile::EndNode() {
  if (!stack_.empty()) stack_.pop_back();
}

void PlanProfile::AbsorbShards(const std::vector<PlanProfile>& shards) {
  if (shards.empty()) return;
  // Workers run copies of the same shard plan, so their profiles are
  // identically shaped and sum element-wise into one subtree. A
  // mismatched shard (defensive: should not happen) grafts separately.
  std::vector<std::deque<PlanProfileNode>> groups;
  for (const PlanProfile& shard : shards) {
    if (shard.empty()) continue;
    bool merged = false;
    for (std::deque<PlanProfileNode>& group : groups) {
      if (SameShape(group, shard.nodes_)) {
        for (size_t i = 0; i < group.size(); ++i) {
          SumInto(&group[i], shard.nodes_[i]);
        }
        merged = true;
        break;
      }
    }
    if (!merged) groups.push_back(shard.nodes_);
  }
  const int graft_parent = stack_.empty() ? -1 : stack_.back();
  for (const std::deque<PlanProfileNode>& group : groups) {
    const int base = static_cast<int>(nodes_.size());
    for (size_t i = 0; i < group.size(); ++i) {
      nodes_.push_back(group[i]);
      PlanProfileNode* copy = &nodes_.back();
      for (int& child : copy->children) child += base;
      if (copy->parent >= 0) {
        copy->parent += base;
      } else {
        copy->parent = graft_parent;
        if (graft_parent >= 0) {
          nodes_[static_cast<size_t>(graft_parent)].children.push_back(
              base + static_cast<int>(i));
        }
      }
    }
  }
}

bool PlanProfile::Accumulate(const PlanProfile& other) {
  if (other.empty()) return true;
  if (nodes_.empty()) {
    nodes_ = other.nodes_;
    if (label_.empty()) label_ = other.label_;
    executions_ = other.executions_;
    return true;
  }
  if (!SameShape(nodes_, other.nodes_)) return false;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    SumInto(&nodes_[i], other.nodes_[i]);
  }
  executions_ += other.executions_;
  return true;
}

void PlanProfile::RenderNode(int index, int depth, std::string* out) const {
  const PlanProfileNode& node = nodes_[static_cast<size_t>(index)];
  if (depth == 0) {
    *out += node.name;
  } else {
    out->append(static_cast<size_t>(depth - 1) * 6, ' ');
    *out += "  ->  " + node.name;
  }
  if (!node.detail.empty()) *out += " (" + node.detail + ")";
  *out += "  rows=" + std::to_string(node.rows_out);
  if (node.batches > 0) {
    *out += " batches=" + std::to_string(node.batches);
  }
  *out += " calls=" + std::to_string(node.calls);
  if (node.phys_rows > node.rows_out) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " density=%.1f%%",
                  node.SelectionDensity() * 100.0);
    *out += buf;
  }
  // Self work: this operator's share of the inclusive meter delta.
  uint64_t child_work = 0;
  for (const int child : node.children) {
    child_work += nodes_[static_cast<size_t>(child)].work_units;
  }
  const uint64_t self_work =
      node.work_units >= child_work ? node.work_units - child_work : 0;
  *out += " work=" + std::to_string(node.work_units) +
          " self=" + std::to_string(self_work);
  char time_buf[48];
  std::snprintf(time_buf, sizeof(time_buf), " time=%.3fms",
                node.TotalSeconds() * 1e3);
  *out += time_buf;
  if (node.blocks_scanned + node.blocks_pruned > 0 ||
      node.rows_clean + node.rows_override + node.rows_insert > 0) {
    *out += "\n";
    out->append(static_cast<size_t>(depth) * 6, ' ');
    *out += "      blocks: scanned=" + std::to_string(node.blocks_scanned) +
            " pruned=" + std::to_string(node.blocks_pruned) +
            "  lanes: clean=" + std::to_string(node.rows_clean) +
            " override=" + std::to_string(node.rows_override) +
            " insert=" + std::to_string(node.rows_insert);
  }
  if (node.join_filter_dropped > 0) {
    *out += "\n";
    out->append(static_cast<size_t>(depth) * 6, ' ');
    *out += "      join filters: dropped=" +
            std::to_string(node.join_filter_dropped);
  }
  *out += "\n";
  for (const int child : node.children) {
    RenderNode(child, depth + 1, out);
  }
}

std::string PlanProfile::ToText() const {
  std::string out;
  if (!label_.empty()) {
    out += label_ + " (executions=" + std::to_string(executions_) + ")\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent < 0) RenderNode(static_cast<int>(i), 0, &out);
  }
  return out;
}

std::string PlanProfile::ToJson() const {
  std::string out = "{\"profile_version\":1,\"label\":\"" +
                    EscapeJson(label_) + "\",\"executions\":" +
                    std::to_string(executions_) + ",\"digest\":\"" +
                    Digest() + "\",\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const PlanProfileNode& n = nodes_[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(n.parent) +
           ",\"name\":\"" + EscapeJson(n.name) + "\"" +
           ",\"detail\":\"" + EscapeJson(n.detail) + "\"" +
           ",\"opens\":" + std::to_string(n.opens) +
           ",\"calls\":" + std::to_string(n.calls) +
           ",\"batches\":" + std::to_string(n.batches) +
           ",\"rows_out\":" + std::to_string(n.rows_out) +
           ",\"phys_rows\":" + std::to_string(n.phys_rows) +
           ",\"blocks_scanned\":" + std::to_string(n.blocks_scanned) +
           ",\"blocks_pruned\":" + std::to_string(n.blocks_pruned) +
           ",\"rows_clean\":" + std::to_string(n.rows_clean) +
           ",\"rows_override\":" + std::to_string(n.rows_override) +
           ",\"rows_insert\":" + std::to_string(n.rows_insert) +
           ",\"join_filter_dropped\":" +
           std::to_string(n.join_filter_dropped) +
           ",\"work_units\":" + std::to_string(n.work_units) +
           ",\"open_s\":" + FormatDouble(n.open_seconds) +
           ",\"next_s\":" + FormatDouble(n.next_seconds) +
           ",\"first_ts\":" + FormatDouble(n.has_ts ? n.first_ts : 0) +
           ",\"last_ts\":" + FormatDouble(n.has_ts ? n.last_ts : 0) + "}";
  }
  out += "]}\n";
  return out;
}

std::string PlanProfile::Digest() const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  FnvMix(label_, &hash);
  FnvMix("#" + std::to_string(executions_), &hash);
  for (const PlanProfileNode& n : nodes_) {
    // Shape and metered behavior only — no time fields, so the digest
    // matches between virtual-clock and wall-clock executions.
    FnvMix("|" + n.name + "/" + n.detail + "/" + std::to_string(n.parent) +
               "/" + std::to_string(n.opens) + "/" + std::to_string(n.calls) +
               "/" + std::to_string(n.batches) + "/" +
               std::to_string(n.rows_out) + "/" +
               std::to_string(n.phys_rows) + "/" +
               std::to_string(n.blocks_scanned) + "/" +
               std::to_string(n.blocks_pruned) + "/" +
               std::to_string(n.rows_clean) + "/" +
               std::to_string(n.rows_override) + "/" +
               std::to_string(n.rows_insert) + "/" +
               std::to_string(n.work_units),
           &hash);
    // Mixed in only when set, so plans without runtime join filters keep
    // the digests they had before the counter existed.
    if (n.join_filter_dropped > 0) {
      FnvMix("/jf" + std::to_string(n.join_filter_dropped), &hash);
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

void PlanProfile::EmitSpans(Tracer* tracer, uint32_t tid) const {
  if (tracer == nullptr) return;
  // Preorder: a parent's span brackets its children's (the parent opens
  // first and its last call returns after the child's), and its record
  // id is lower, so the Chrome JSON (tid, ts, id) sort nests correctly.
  for (const PlanProfileNode& n : nodes_) {
    if (!n.has_ts) continue;
    tracer->RecordSpan(n.name, "operator", tid, n.first_ts, n.last_ts,
                       "\"rows_out\":" + std::to_string(n.rows_out) +
                           ",\"work_units\":" +
                           std::to_string(n.work_units));
  }
}

}  // namespace obs
}  // namespace hattrick
