#include "kba/kba_plan.h"

#include <sstream>

namespace zidian {

bool KbaPlan::IsScanFree() const {
  if (op == KbaOp::kInstanceScan) return false;
  for (const auto& c : children) {
    if (!c->IsScanFree()) return false;
  }
  return true;
}

void KbaPlan::CollectExtendTargets(std::vector<std::string>* out) const {
  if (op == KbaOp::kExtend || op == KbaOp::kInstanceScan) {
    out->push_back(kv_name);
  }
  for (const auto& c : children) c->CollectExtendTargets(out);
}

namespace {
const char* OpName(KbaOp op) {
  switch (op) {
    case KbaOp::kConst: return "const";
    case KbaOp::kInstanceScan: return "scan";
    case KbaOp::kExtend: return "extend";
    case KbaOp::kShift: return "shift";
    case KbaOp::kSelect: return "select";
    case KbaOp::kProject: return "project";
    case KbaOp::kJoin: return "join";
    case KbaOp::kGroupAgg: return "group_agg";
    case KbaOp::kUnion: return "union";
    case KbaOp::kDiff: return "diff";
  }
  return "?";
}
}  // namespace

std::string KbaPlan::ToString(int indent) const {
  std::ostringstream os;
  os << std::string(static_cast<size_t>(indent) * 2, ' ') << OpName(op);
  if (op == KbaOp::kExtend || op == KbaOp::kInstanceScan) {
    os << " " << kv_name << " as " << alias;
    if (stats_only) os << " [stats-only]";
  }
  if (op == KbaOp::kConst) {
    os << " (" << const_inst.rel.size() << " blocks)";
  }
  if (op == KbaOp::kJoin) {
    // A keyless join is a cross product: name it so it cannot pass unseen.
    if (join_pairs.empty()) os << " [cross product]";
    for (size_t i = 0; i < join_pairs.size(); ++i) {
      os << (i == 0 ? " on " : ", ") << join_pairs[i].first << "="
         << join_pairs[i].second;
    }
  }
  os << "\n";
  for (const auto& c : children) os << c->ToString(indent + 1);
  return os.str();
}

KbaPlanPtr KbaPlan::Const(KvInst inst) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kConst;
  p->const_inst = std::move(inst);
  return p;
}

KbaPlanPtr KbaPlan::InstanceScan(std::string kv_name, std::string alias) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kInstanceScan;
  p->kv_name = std::move(kv_name);
  p->alias = std::move(alias);
  return p;
}

KbaPlanPtr KbaPlan::Extend(
    KbaPlanPtr child, std::string kv_name, std::string alias,
    std::vector<std::pair<std::string, std::string>> key_bindings,
    bool stats_only) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kExtend;
  p->children = {std::move(child)};
  p->kv_name = std::move(kv_name);
  p->alias = std::move(alias);
  p->key_bindings = std::move(key_bindings);
  p->stats_only = stats_only;
  return p;
}

KbaPlanPtr KbaPlan::Shift(KbaPlanPtr child, std::vector<std::string> new_key) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kShift;
  p->children = {std::move(child)};
  p->new_key = std::move(new_key);
  return p;
}

KbaPlanPtr KbaPlan::Select(KbaPlanPtr child, std::vector<ExprPtr> predicates) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kSelect;
  p->children = {std::move(child)};
  p->predicates = std::move(predicates);
  return p;
}

KbaPlanPtr KbaPlan::Project(KbaPlanPtr child,
                            std::vector<std::string> project_cols,
                            std::vector<std::string> new_key) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kProject;
  p->children = {std::move(child)};
  p->project_cols = std::move(project_cols);
  p->new_key = std::move(new_key);
  return p;
}

KbaPlanPtr KbaPlan::Join(
    KbaPlanPtr left, KbaPlanPtr right,
    std::vector<std::pair<std::string, std::string>> join_pairs) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kJoin;
  p->children = {std::move(left), std::move(right)};
  p->join_pairs = std::move(join_pairs);
  return p;
}

KbaPlanPtr KbaPlan::GroupAgg(KbaPlanPtr child, std::vector<AttrRef> group_by,
                             std::vector<SelectItem> items, bool from_stats) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kGroupAgg;
  p->children = {std::move(child)};
  p->group_by = std::move(group_by);
  p->agg_items = std::move(items);
  p->from_stats = from_stats;
  return p;
}

KbaPlanPtr KbaPlan::Union(KbaPlanPtr left, KbaPlanPtr right) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kUnion;
  p->children = {std::move(left), std::move(right)};
  return p;
}

KbaPlanPtr KbaPlan::Diff(KbaPlanPtr left, KbaPlanPtr right) {
  auto p = std::make_shared<KbaPlan>();
  p->op = KbaOp::kDiff;
  p->children = {std::move(left), std::move(right)};
  return p;
}

}  // namespace zidian
