#include "ctmc/builder.hpp"

#include <cassert>
#include <utility>

#include "linalg/csr_assembly.hpp"

namespace tags::ctmc {

CtmcBuilder::CtmcBuilder() {
  label_names_.emplace_back("tau");
  label_ids_.emplace("tau", kTau);
}

label_t CtmcBuilder::label(std::string_view name) {
  const auto it = label_ids_.find(std::string(name));
  if (it != label_ids_.end()) return it->second;
  const label_t id = static_cast<label_t>(label_names_.size());
  label_names_.emplace_back(name);
  label_ids_.emplace(std::string(name), id);
  return id;
}

void CtmcBuilder::add(index_t from, index_t to, double rate, label_t label) {
  assert(from >= 0 && to >= 0);
  assert(rate >= 0.0);
  if (rate == 0.0) return;
  ensure_states(std::max(from, to) + 1);
  transitions_.push_back({from, to, rate, label});
}

void CtmcBuilder::add(index_t from, index_t to, double rate, std::string_view label_name) {
  add(from, to, rate, label(label_name));
}

void CtmcBuilder::ensure_states(index_t n) {
  if (n > n_states_) n_states_ = n;
}

Ctmc CtmcBuilder::build(std::vector<index_t> partition) const {
  linalg::CooMatrix coo(n_states_, n_states_);
  coo.reserve(transitions_.size() * 2);
  for (const Transition& t : transitions_) {
    if (t.from == t.to) continue;  // self-loop: no effect on the generator
    coo.add(t.from, t.to, t.rate);
    coo.add(t.from, t.from, -t.rate);
  }
  linalg::CsrMatrix q = linalg::CsrMatrix::from_coo(coo);
  if (!partition.empty()) linalg::CsrBuilderAccess::set_partition(q, std::move(partition));
  return Ctmc(n_states_, std::move(q), transitions_, label_names_);
}

}  // namespace tags::ctmc
