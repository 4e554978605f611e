#include "pepa/derivation.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "ctmc/builder.hpp"
#include "obs/obs.hpp"
#include "pepa/printer.hpp"

namespace tags::pepa {

// ---------------------------------------------------------------------------
// SeqSpace
// ---------------------------------------------------------------------------

namespace {

std::string rate_key(const ConcreteRate& r) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), r.value,
                                       std::chars_format::hex);
  (void)ec;
  return std::string(r.passive ? "p" : "a") + std::string(buf, ptr);
}

}  // namespace

SeqSpace::SeqSpace(Model model, ParamTable params, std::shared_ptr<ActionTable> actions)
    : model_(std::move(model)), params_(std::move(params)), actions_(std::move(actions)) {}

seq_id SeqSpace::intern(Term t, std::string key) {
  const auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  const seq_id id = static_cast<seq_id>(terms_.size());
  terms_.push_back(t);
  trans_memo_.emplace_back();
  interned_.emplace(std::move(key), id);
  return id;
}

seq_id SeqSpace::from_ast(const Process& p) {
  using K = Process::Kind;
  switch (p.kind) {
    case K::kConstant: {
      std::int32_t index = -1;
      for (std::size_t i = 0; i < model_.definitions.size(); ++i) {
        if (model_.definitions[i].name == p.name) {
          index = static_cast<std::int32_t>(i);
          break;
        }
      }
      if (index < 0) {
        throw SemanticError("undefined process constant '" + p.name + "'");
      }
      // Resolve alias chains (A = B;) so aliases share one derivative —
      // otherwise the alias would be a spurious transient state.
      const ProcessDef& def = model_.definitions[static_cast<std::size_t>(index)];
      if (def.body->kind == K::kConstant) {
        if (std::find(alias_stack_.begin(), alias_stack_.end(), p.name) !=
            alias_stack_.end()) {
          throw SemanticError("unguarded recursion through process constant '" +
                              p.name + "'");
        }
        alias_stack_.push_back(p.name);
        const seq_id resolved = from_ast(*def.body);
        alias_stack_.pop_back();
        return resolved;
      }
      Term t;
      t.kind = Term::Kind::kConst;
      t.def_index = index;
      std::string key = "K";
      key += std::to_string(index);
      return intern(t, std::move(key));
    }
    case K::kPrefix: {
      Term t;
      t.kind = Term::Kind::kPrefix;
      t.action = actions_->intern(p.action);
      t.rate = eval_rate(*p.rate, params_);
      t.cont = from_ast(*p.continuation);
      std::string key = "P";
      key += std::to_string(t.action);
      key += '|';
      key += rate_key(t.rate);
      key += '|';
      key += std::to_string(t.cont);
      return intern(t, std::move(key));
    }
    case K::kChoice: {
      Term t;
      t.kind = Term::Kind::kChoice;
      t.left = from_ast(*p.left);
      t.right = from_ast(*p.right);
      std::string key = "C";
      key += std::to_string(t.left);
      key += ',';
      key += std::to_string(t.right);
      return intern(t, std::move(key));
    }
    case K::kCoop:
    case K::kHide:
      throw SemanticError(
          "cooperation/hiding encountered inside a sequential component");
  }
  throw SemanticError("corrupt process term");
}

const std::vector<SeqSpace::LocalTrans>& SeqSpace::transitions(seq_id id) {
  std::vector<char> visiting(terms_.size(), 0);
  return transitions_impl(id, visiting);
}

const std::vector<SeqSpace::LocalTrans>& SeqSpace::transitions_impl(
    seq_id id, std::vector<char>& visiting) {
  auto& memo = trans_memo_[static_cast<std::size_t>(id)];
  if (memo.has_value()) return *memo;
  if (visiting.size() < terms_.size()) visiting.resize(terms_.size(), 0);
  if (visiting[static_cast<std::size_t>(id)]) {
    throw SemanticError("unguarded recursion through process constant '" + name(id) +
                        "'");
  }
  visiting[static_cast<std::size_t>(id)] = 1;

  const Term t = terms_[static_cast<std::size_t>(id)];  // copy: vector may grow
  std::vector<LocalTrans> result;
  switch (t.kind) {
    case Term::Kind::kPrefix:
      result.push_back({t.action, t.rate, t.cont});
      break;
    case Term::Kind::kChoice: {
      const auto l = transitions_impl(t.left, visiting);    // copies: recursion may
      const auto r = transitions_impl(t.right, visiting);   // invalidate references
      result = l;
      result.insert(result.end(), r.begin(), r.end());
      break;
    }
    case Term::Kind::kConst: {
      const ProcessDef& def = model_.definitions[static_cast<std::size_t>(t.def_index)];
      const seq_id body = from_ast(*def.body);
      result = transitions_impl(body, visiting);
      break;
    }
  }
  visiting[static_cast<std::size_t>(id)] = 0;
  auto& slot = trans_memo_[static_cast<std::size_t>(id)];
  slot = std::move(result);
  return *slot;
}

std::string SeqSpace::name(seq_id id) const {
  const Term& t = terms_[static_cast<std::size_t>(id)];
  switch (t.kind) {
    case Term::Kind::kConst:
      return model_.definitions[static_cast<std::size_t>(t.def_index)].name;
    case Term::Kind::kPrefix: {
      const std::string r =
          t.rate.passive
              ? (t.rate.value == 1.0 ? "infty" : std::to_string(t.rate.value) + "*infty")
              : format_rate(t.rate.value);
      return "(" + actions_->name(t.action) + ", " + r + ")." + name(t.cont);
    }
    case Term::Kind::kChoice:
      return name(t.left) + " + " + name(t.right);
  }
  return "?";
}

std::optional<std::string> SeqSpace::constant_name(seq_id id) const {
  const Term& t = terms_[static_cast<std::size_t>(id)];
  if (t.kind != Term::Kind::kConst) return std::nullopt;
  return model_.definitions[static_cast<std::size_t>(t.def_index)].name;
}

// ---------------------------------------------------------------------------
// Static structure tree
// ---------------------------------------------------------------------------

namespace {

struct CompNode {
  enum class Kind { kLeaf, kCoop, kHide } kind;
  // kLeaf
  std::size_t leaf_index = 0;
  seq_id initial = -1;
  // kCoop / kHide
  std::unique_ptr<CompNode> left, right;  // hide uses left only
  std::vector<std::uint32_t> action_set;  // sorted
};

struct TreeBuilder {
  const Model& model;
  SeqSpace& seq;
  ActionTable& actions;
  const std::unordered_map<std::string, ProcClass>& classes;
  std::size_t n_leaves = 0;
  std::vector<std::string> expansion_stack;  // composite-constant cycle guard

  std::unique_ptr<CompNode> build(const Process& p) {
    using K = Process::Kind;
    switch (p.kind) {
      case K::kCoop: {
        auto node = std::make_unique<CompNode>();
        node->kind = CompNode::Kind::kCoop;
        node->left = build(*p.left);
        node->right = build(*p.right);
        for (const std::string& a : p.action_set) {
          node->action_set.push_back(actions.intern(a));
        }
        std::sort(node->action_set.begin(), node->action_set.end());
        node->action_set.erase(
            std::unique(node->action_set.begin(), node->action_set.end()),
            node->action_set.end());
        return node;
      }
      case K::kHide: {
        auto node = std::make_unique<CompNode>();
        node->kind = CompNode::Kind::kHide;
        node->left = build(*p.left);
        for (const std::string& a : p.action_set) {
          node->action_set.push_back(actions.intern(a));
        }
        std::sort(node->action_set.begin(), node->action_set.end());
        return node;
      }
      case K::kConstant: {
        const auto it = classes.find(p.name);
        if (it != classes.end() && it->second == ProcClass::kComposite) {
          if (std::find(expansion_stack.begin(), expansion_stack.end(), p.name) !=
              expansion_stack.end()) {
            throw SemanticError("recursive composite constant '" + p.name + "'");
          }
          const ProcessDef* def = model.find_definition(p.name);
          assert(def != nullptr);
          expansion_stack.push_back(p.name);
          auto node = build(*def->body);
          expansion_stack.pop_back();
          return node;
        }
        return make_leaf(p);
      }
      case K::kPrefix:
      case K::kChoice:
        return make_leaf(p);
    }
    throw SemanticError("corrupt process term");
  }

  std::unique_ptr<CompNode> make_leaf(const Process& p) {
    auto node = std::make_unique<CompNode>();
    node->kind = CompNode::Kind::kLeaf;
    node->leaf_index = n_leaves++;
    node->initial = seq.from_ast(p);
    return node;
  }
};

// One global move: action + rate + the leaf updates it causes.
struct GlobalMove {
  std::uint32_t action;
  ConcreteRate rate;
  // (leaf index, new seq term) pairs; disjoint across a cooperation.
  std::vector<std::pair<std::size_t, seq_id>> updates;
};

struct LeafVec {
  std::vector<seq_id> v;
  bool operator==(const LeafVec& o) const noexcept { return v == o.v; }
};

struct LeafVecHash {
  std::size_t operator()(const LeafVec& s) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (seq_id x : s.v) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

class Deriver {
 public:
  Deriver(SeqSpace& seq, ActionTable& actions, const CompNode& root)
      : seq_(seq), actions_(actions), root_(root) {}

  std::vector<GlobalMove> moves(const std::vector<seq_id>& state) {
    return derive_node(root_, state);
  }

 private:
  std::vector<GlobalMove> derive_node(const CompNode& node,
                                      const std::vector<seq_id>& state) {
    switch (node.kind) {
      case CompNode::Kind::kLeaf: {
        std::vector<GlobalMove> out;
        const seq_id local = state[node.leaf_index];
        for (const SeqSpace::LocalTrans& t : seq_.transitions(local)) {
          out.push_back({t.action, t.rate, {{node.leaf_index, t.target}}});
        }
        return out;
      }
      case CompNode::Kind::kHide: {
        std::vector<GlobalMove> out = derive_node(*node.left, state);
        for (GlobalMove& m : out) {
          if (std::binary_search(node.action_set.begin(), node.action_set.end(),
                                 m.action)) {
            m.action = kTauAction;
          }
        }
        return out;
      }
      case CompNode::Kind::kCoop: {
        const std::vector<GlobalMove> l = derive_node(*node.left, state);
        const std::vector<GlobalMove> r = derive_node(*node.right, state);
        std::vector<GlobalMove> out;
        const auto synced = [&](std::uint32_t a) {
          return std::binary_search(node.action_set.begin(), node.action_set.end(), a);
        };
        // Independent moves interleave. (tau can never be in the set.)
        for (const GlobalMove& m : l) {
          if (!synced(m.action)) out.push_back(m);
        }
        for (const GlobalMove& m : r) {
          if (!synced(m.action)) out.push_back(m);
        }
        // Synchronised actions combine pairwise under the apparent-rate law.
        for (const std::uint32_t a : node.action_set) {
          combine(a, l, r, out);
        }
        return out;
      }
    }
    return {};
  }

  void combine(std::uint32_t action, const std::vector<GlobalMove>& l,
               const std::vector<GlobalMove>& r, std::vector<GlobalMove>& out) {
    double active_l = 0.0, passive_l = 0.0, active_r = 0.0, passive_r = 0.0;
    for (const GlobalMove& m : l) {
      if (m.action != action) continue;
      (m.rate.passive ? passive_l : active_l) += m.rate.value;
    }
    for (const GlobalMove& m : r) {
      if (m.action != action) continue;
      (m.rate.passive ? passive_r : active_r) += m.rate.value;
    }
    if ((active_l == 0.0 && passive_l == 0.0) || (active_r == 0.0 && passive_r == 0.0)) {
      return;  // one side cannot participate: the action is blocked
    }
    if ((active_l > 0.0 && passive_l > 0.0) || (active_r > 0.0 && passive_r > 0.0)) {
      throw SemanticError(
          "component enables both active and passive instances of synchronised "
          "action '" +
          actions_.name(action) + "' — the cooperation rate is undefined");
    }
    for (const GlobalMove& ml : l) {
      if (ml.action != action) continue;
      for (const GlobalMove& mr : r) {
        if (mr.action != action) continue;
        GlobalMove m;
        m.action = action;
        m.updates = ml.updates;
        m.updates.insert(m.updates.end(), mr.updates.begin(), mr.updates.end());
        if (!ml.rate.passive && !mr.rate.passive) {
          const double ra1 = active_l, ra2 = active_r;
          m.rate = ConcreteRate::active((ml.rate.value / ra1) * (mr.rate.value / ra2) *
                                        std::min(ra1, ra2));
        } else if (!ml.rate.passive && mr.rate.passive) {
          m.rate = ConcreteRate::active(ml.rate.value * (mr.rate.value / passive_r));
        } else if (ml.rate.passive && !mr.rate.passive) {
          m.rate = ConcreteRate::active(mr.rate.value * (ml.rate.value / passive_l));
        } else {
          // Both passive: stays passive; weights compose with min() on the
          // apparent weights, mirroring the active law.
          m.rate = ConcreteRate::make_passive((ml.rate.value / passive_l) *
                                              (mr.rate.value / passive_r) *
                                              std::min(passive_l, passive_r));
        }
        out.push_back(std::move(m));
      }
    }
  }

  SeqSpace& seq_;
  ActionTable& actions_;
  const CompNode& root_;
};

void collect_initial(const CompNode& node, std::vector<seq_id>& leaves) {
  switch (node.kind) {
    case CompNode::Kind::kLeaf:
      if (leaves.size() <= node.leaf_index) leaves.resize(node.leaf_index + 1, -1);
      leaves[node.leaf_index] = node.initial;
      break;
    case CompNode::Kind::kHide:
      collect_initial(*node.left, leaves);
      break;
    case CompNode::Kind::kCoop:
      collect_initial(*node.left, leaves);
      collect_initial(*node.right, leaves);
      break;
  }
}

void collect_leaves(const CompNode& node, std::vector<std::size_t>& leaves) {
  switch (node.kind) {
    case CompNode::Kind::kLeaf:
      leaves.push_back(node.leaf_index);
      break;
    case CompNode::Kind::kHide:
      collect_leaves(*node.left, leaves);
      break;
    case CompNode::Kind::kCoop:
      collect_leaves(*node.left, leaves);
      collect_leaves(*node.right, leaves);
      break;
  }
}

/// The partition the two-level Gauss-Seidel solve aggregates over: a
/// state's block is the tuple of local states of the leaves in the right
/// operand of the outermost cooperation (below any hiding), numbered in
/// order of first appearance. In the paper's Fig 3 and Fig 5 models that
/// operand is Node2 = Q2 <...> T2. Empty when the system is not a
/// cooperation.
std::vector<ctmc::index_t> right_operand_partition(
    const CompNode& root, const std::vector<std::vector<seq_id>>& states) {
  const CompNode* node = &root;
  while (node->kind == CompNode::Kind::kHide) node = node->left.get();
  if (node->kind != CompNode::Kind::kCoop) return {};
  std::vector<std::size_t> leaves;
  collect_leaves(*node->right, leaves);
  std::unordered_map<LeafVec, ctmc::index_t, LeafVecHash> block_of;
  std::vector<ctmc::index_t> blocks;
  blocks.reserve(states.size());
  LeafVec local;
  for (const std::vector<seq_id>& state : states) {
    local.v.clear();
    for (const std::size_t leaf : leaves) local.v.push_back(state[leaf]);
    const auto next = static_cast<ctmc::index_t>(block_of.size());
    blocks.push_back(block_of.emplace(local, next).first->second);
  }
  return blocks;
}

}  // namespace

// ---------------------------------------------------------------------------
// DerivedModel helpers
// ---------------------------------------------------------------------------

std::string DerivedModel::local_name(std::size_t state, std::size_t leaf) const {
  return seq->name(states[state][leaf]);
}

linalg::Vec DerivedModel::population_reward(std::string_view derivative) const {
  linalg::Vec reward(states.size(), 0.0);
  // Whether each seq id's printable name is the requested one, indexed by
  // id; -1 until the id is first met, so only ids in some state are named.
  std::vector<double> match(seq->size(), -1.0);
  for (const std::vector<seq_id>& state : states) {
    for (seq_id id : state) {
      double& m = match[static_cast<std::size_t>(id)];
      if (m < 0.0) m = seq->name(id) == derivative ? 1.0 : 0.0;
    }
  }
  for (std::size_t s = 0; s < states.size(); ++s) {
    double count = 0.0;
    for (seq_id id : states[s]) count += match[static_cast<std::size_t>(id)];
    reward[s] = count;
  }
  return reward;
}

linalg::Vec DerivedModel::state_reward(
    const std::function<double(const std::vector<seq_id>&)>& f) const {
  linalg::Vec reward(states.size(), 0.0);
  for (std::size_t s = 0; s < states.size(); ++s) reward[s] = f(states[s]);
  return reward;
}

// ---------------------------------------------------------------------------
// derive()
// ---------------------------------------------------------------------------

DerivedModel derive(const Model& model, std::string_view system_name,
                    const DeriveOptions& opts) {
  const obs::Span span("pepa/derive");
  const std::uint64_t obs_start_ns = obs::now_ns();
  if (model.definitions.empty()) {
    throw SemanticError("model has no process definitions");
  }
  const ProcessDef* system = system_name.empty()
                                 ? &model.definitions.back()
                                 : model.find_definition(system_name);
  if (system == nullptr) {
    throw SemanticError("unknown system equation '" + std::string(system_name) + "'");
  }

  const auto classes = classify_definitions(model);
  ParamTable params(model);
  for (const auto& [k, v] : opts.param_overrides) params.set(k, v);

  auto actions = std::make_shared<ActionTable>();
  auto seq = std::make_shared<SeqSpace>(model, params, actions);

  TreeBuilder tb{model, *seq, *actions, classes, 0, {}};
  // Root the tree at a *reference* to the system constant, not its body:
  // otherwise a sequential system equation would start in an interned copy
  // of its body, leaving the constant's own derivative as a distinct
  // (transient) state and breaking cyclicity.
  const ProcPtr system_ref = make_constant(system->name);
  const std::unique_ptr<CompNode> root = tb.build(*system_ref);

  std::vector<seq_id> initial;
  collect_initial(*root, initial);
  assert(initial.size() == tb.n_leaves);

  Deriver deriver(*seq, *actions, *root);

  // Breadth-first exploration over leaf vectors.
  std::vector<std::vector<seq_id>> states;
  std::unordered_map<LeafVec, ctmc::index_t, LeafVecHash> index_of;
  std::queue<ctmc::index_t> frontier;
  ctmc::CtmcBuilder builder;

  // Pre-intern labels so builder label ids == action ids.
  std::vector<ctmc::label_t> label_of_action;
  const auto label_for = [&](std::uint32_t a) {
    while (label_of_action.size() <= a) {
      const auto next = static_cast<std::uint32_t>(label_of_action.size());
      label_of_action.push_back(builder.label(actions->name(next)));
    }
    return label_of_action[a];
  };

  states.push_back(initial);
  index_of.emplace(LeafVec{initial}, 0);
  frontier.push(0);

  std::size_t n_transitions = 0;
  std::size_t dedup_hits = 0;

  while (!frontier.empty()) {
    const ctmc::index_t cur = frontier.front();
    frontier.pop();
    const std::vector<seq_id> state = states[static_cast<std::size_t>(cur)];
    for (const GlobalMove& mv : deriver.moves(state)) {
      if (mv.rate.passive) {
        throw SemanticError(
            "passive action '" + actions->name(mv.action) +
            "' is enabled at the top level of the model — every synchronised "
            "passive activity needs an active partner");
      }
      std::vector<seq_id> next = state;
      for (const auto& [leaf, term] : mv.updates) next[leaf] = term;
      auto [it, inserted] =
          index_of.emplace(LeafVec{next}, static_cast<ctmc::index_t>(states.size()));
      if (inserted) {
        states.push_back(std::move(next));
        frontier.push(it->second);
        if (states.size() > opts.max_states) {
          throw SemanticError("derivation exceeded the state limit (" +
                              std::to_string(opts.max_states) + " states)");
        }
      } else {
        ++dedup_hits;
      }
      ++n_transitions;
      builder.add(cur, it->second, mv.rate.value, label_for(mv.action));
    }
  }
  builder.ensure_states(static_cast<ctmc::index_t>(states.size()));

  if (obs::metrics_on()) {
    obs::count("pepa.derive.runs");
    obs::count("pepa.derive.states", states.size());
    obs::count("pepa.derive.transitions", n_transitions);
    obs::count("pepa.derive.dedup_hits", dedup_hits);
    obs::gauge_set("pepa.derive.last_states", static_cast<double>(states.size()));
    obs::gauge_set("pepa.derive.last_transitions", static_cast<double>(n_transitions));
    obs::gauge_set(
        "pepa.derive.last_dedup_hit_rate",
        n_transitions > 0 ? static_cast<double>(dedup_hits) /
                                static_cast<double>(n_transitions)
                          : 0.0);
    const double elapsed_s = static_cast<double>(obs::now_ns() - obs_start_ns) / 1e9;
    obs::gauge_set("pepa.derive.last_states_per_sec",
                   elapsed_s > 0.0 ? static_cast<double>(states.size()) / elapsed_s
                                   : 0.0);
  }

  DerivedModel out;
  out.chain = builder.build(right_operand_partition(*root, states));
  out.states = std::move(states);
  out.seq = std::move(seq);
  out.actions = std::move(actions);
  out.n_components = tb.n_leaves;
  return out;
}

}  // namespace tags::pepa
