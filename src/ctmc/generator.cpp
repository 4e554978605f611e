#include "ctmc/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "ctmc/builder.hpp"
#include "linalg/csr_assembly.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

namespace {

/// Per-row scratch shared by assemble() and rebind(): accumulates the
/// label rewards of one state and flushes them as coalesced StateRate
/// entries. Rates are non-negative, so a zero accumulator means "label not
/// seen yet for this state".
class RewardAccumulator {
 public:
  explicit RewardAccumulator(std::size_t n_labels) : acc_(n_labels, 0.0) {}

  void add(label_t label, double rate) {
    if (acc_[label] == 0.0) hit_.push_back(label);
    acc_[label] += rate;
  }

  void flush(index_t state, std::vector<std::vector<StateRate>>& rewards) {
    for (const label_t l : hit_) {
      rewards[l].push_back({state, acc_[l]});
      acc_[l] = 0.0;
    }
    hit_.clear();
  }

 private:
  std::vector<double> acc_;
  std::vector<label_t> hit_;
};

}  // namespace

void GeneratorCtmc::assemble(const GeneratorModel& model) {
  obs::Span span("ctmc/assemble");
  span.attr("n", static_cast<double>(model.state_space_size()));
  const index_t n = model.state_space_size();
  const std::vector<std::string>& labels = model.transition_labels();
  assert(n > 0 && !labels.empty() && labels[0] == "tau");

  std::vector<index_t> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  row_ptr.push_back(0);
  std::vector<index_t> col;
  std::vector<double> val;
  std::vector<std::vector<StateRate>> rewards(labels.size());
  RewardAccumulator reward(labels.size());
  std::vector<std::pair<index_t, double>> row;  // off-diagonals, emission order
  double max_exit = 0.0;

  for (index_t s = 0; s < n; ++s) {
    row.clear();
    double diag = 0.0;
    const auto sink = [&](index_t to, double rate, label_t label) {
      assert(rate >= 0.0 && to >= 0 && to < n &&
             static_cast<std::size_t>(label) < labels.size());
      if (rate == 0.0) return;
      reward.add(label, rate);
      if (to == s) return;  // self-loop: reward only, not in Q
      row.emplace_back(to, rate);
      diag -= rate;
    };
    model.for_each_transition(s, sink);
    reward.flush(s, rewards);

    // Coalesce duplicates column-wise; the stable sort keeps emission
    // order within a column so sums match the CtmcBuilder/from_coo path.
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    bool diag_done = row.empty();  // no off-diagonals => no diagonal entry
    std::size_t k = 0;
    while (k < row.size()) {
      const index_t c = row[k].first;
      if (!diag_done && s < c) {
        col.push_back(s);
        val.push_back(diag);
        diag_done = true;
      }
      double sum = row[k].second;
      for (++k; k < row.size() && row[k].first == c; ++k) sum += row[k].second;
      col.push_back(c);
      val.push_back(sum);
    }
    if (!diag_done) {
      col.push_back(s);
      val.push_back(diag);
    }
    row_ptr.push_back(static_cast<index_t>(col.size()));
    max_exit = std::max(max_exit, -diag);
  }

  n_ = n;
  label_names_ = labels;
  rewards_ = std::move(rewards);
  max_exit_rate_ = max_exit;
  q_ = linalg::CsrBuilderAccess::adopt(n, n, std::move(row_ptr), std::move(col),
                                       std::move(val));
  if (std::vector<index_t> blocks = model.partition(); !blocks.empty()) {
    linalg::CsrBuilderAccess::set_partition(q_, std::move(blocks));
  }
  obs::count("ctmc.generator.assembles");
}

void GeneratorCtmc::rebind(const GeneratorModel& model) {
  obs::Span span("ctmc/rebind");
  span.attr("n", static_cast<double>(n_));
  if (model.state_space_size() != n_ ||
      model.transition_labels().size() != label_names_.size()) {
    throw std::logic_error(
        "GeneratorCtmc::rebind: state or label space changed; a structural "
        "parameter moved — assemble() instead");
  }
  std::vector<double>& val = linalg::CsrBuilderAccess::values(q_);
  for (std::vector<StateRate>& r : rewards_) r.clear();
  RewardAccumulator reward(label_names_.size());
  double max_exit = 0.0;

  for (index_t s = 0; s < n_; ++s) {
    const std::span<const index_t> cs = q_.row_cols(s);
    double* vs = val.data() + (q_.row_vals(s).data() - val.data());
    std::fill(vs, vs + cs.size(), 0.0);
    double diag = 0.0;
    const auto sink = [&](index_t to, double rate, label_t label) {
      assert(rate >= 0.0 && to >= 0 && to < n_ &&
             static_cast<std::size_t>(label) < label_names_.size());
      if (rate == 0.0) return;
      reward.add(label, rate);
      if (to == s) return;
      const auto it = std::lower_bound(cs.begin(), cs.end(), to);
      if (it == cs.end() || *it != to) {
        throw std::logic_error(
            "GeneratorCtmc::rebind: emission outside the frozen sparsity "
            "pattern — the model violated the rebinding contract");
      }
      vs[it - cs.begin()] += rate;
      diag -= rate;
    };
    model.for_each_transition(s, sink);
    reward.flush(s, rewards_);
    if (!cs.empty()) {
      const auto it = std::lower_bound(cs.begin(), cs.end(), s);
      assert(it != cs.end() && *it == s);  // assemble() always placed it
      vs[it - cs.begin()] = diag;
    }
    max_exit = std::max(max_exit, -diag);
  }
  max_exit_rate_ = max_exit;
  obs::count("ctmc.generator.rebinds");
}

std::int64_t GeneratorCtmc::find_label(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < label_names_.size(); ++i) {
    if (label_names_[i] == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

std::span<const StateRate> GeneratorCtmc::label_rewards(label_t label) const noexcept {
  if (static_cast<std::size_t>(label) >= rewards_.size()) return {};
  return rewards_[label];
}

double GeneratorCtmc::throughput(std::span<const double> pi, label_t label) const {
  double acc = 0.0;
  for (const StateRate& r : label_rewards(label)) {
    acc += r.rate * pi[static_cast<std::size_t>(r.state)];
  }
  return acc;
}

double GeneratorCtmc::throughput(std::span<const double> pi,
                                 std::string_view label_name) const {
  const std::int64_t id = find_label(label_name);
  if (id < 0) return 0.0;
  return throughput(pi, static_cast<label_t>(id));
}

linalg::Vec GeneratorCtmc::exit_rates() const {
  linalg::Vec d = q_.diagonal();
  for (double& v : d) v = -v;
  return d;
}

bool GeneratorCtmc::is_valid_generator(double tol) const {
  if (q_.rows() != n_ || q_.cols() != n_) return false;
  for (index_t i = 0; i < n_; ++i) {
    const auto cs = q_.row_cols(i);
    const auto vs = q_.row_vals(i);
    double row_sum = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      row_sum += vs[k];
      if (cs[k] != i && vs[k] < 0.0) return false;
    }
    if (std::abs(row_sum) > tol * std::max(1.0, -q_.at(i, i))) return false;
  }
  return true;
}

Ctmc materialize(const GeneratorModel& model) {
  CtmcBuilder b;
  const std::vector<std::string>& names = model.transition_labels();
  assert(!names.empty() && names[0] == "tau");
  for (std::size_t i = 1; i < names.size(); ++i) b.label(names[i]);
  const index_t n = model.state_space_size();
  for (index_t s = 0; s < n; ++s) {
    const auto sink = [&](index_t to, double rate, label_t label) {
      b.add(s, to, rate, label);
    };
    model.for_each_transition(s, sink);
  }
  b.ensure_states(n);
  return b.build();
}

}  // namespace tags::ctmc
