#include "core/ptree/layer_algorithm.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/math_util.hpp"

namespace dcl {

greedy_layer_algorithm::greedy_layer_algorithm(
    std::vector<counter_spec> counters, std::int64_t domain_size,
    std::int64_t max_parts)
    : spec_(std::move(counters)),
      domain_size_(domain_size),
      max_parts_(max_parts) {
  DCL_EXPECTS(domain_size_ >= 1, "empty domain");
  DCL_EXPECTS(max_parts_ >= 1, "need at least one part");
  for (const auto& c : spec_)
    DCL_EXPECTS(c.max_value >= 0, "negative counter bound");
  reset();
}

pp_limits greedy_layer_algorithm::limits() const {
  // One GET-AUX per closed part at most (a group only triggers the drill
  // when a boundary must be placed inside it); writes between main reads
  // are bounded by the parts a single group can close.
  return {.n_out = max_parts_ + 1, .b_aux = max_parts_ + 1,
          .b_write = max_parts_ + 1};
}

std::int64_t greedy_layer_algorithm::state_words() const {
  return 2 + std::int64_t(spec_.size());
}

void greedy_layer_algorithm::reset() {
  acc_.assign(spec_.size(), 0);
  part_start_ = 0;
  next_pos_ = 0;
}

bool greedy_layer_algorithm::add(const pp_token& t, int first_field,
                                 std::int64_t scale) {
  bool overflow = false;
  for (std::size_t c = 0; c < spec_.size(); ++c) {
    std::int64_t delta = 0;
    for (int f : spec_[c].fields)
      delta += std::int64_t(t.at(first_field + f));
    acc_[c] += scale * delta;
    if (acc_[c] > spec_[c].max_value) overflow = true;
  }
  return overflow;
}

void greedy_layer_algorithm::close_part(std::int64_t end_pos,
                                        pp_context& ctx) {
  DCL_ENSURE(end_pos >= part_start_, "closing an empty part");
  ctx.write(pp_token{std::uint64_t(part_start_), std::uint64_t(end_pos)});
  part_start_ = end_pos + 1;
  acc_.assign(spec_.size(), 0);
}

void greedy_layer_algorithm::on_main(const pp_token& t, pp_context& ctx) {
  const auto lo = std::int64_t(t.at(0));
  const auto hi = std::int64_t(t.at(1));
  DCL_EXPECTS(lo == next_pos_ && hi >= lo && hi < domain_size_,
              "main tokens must arrive as a contiguous tiling");
  const bool overflow = add(t, 2, +1);
  if (!overflow) {
    next_pos_ = hi + 1;  // the whole group joins the current part
    return;
  }
  if (lo == hi) {
    // Singleton group: place the boundary directly (Lemma 17 shape; no
    // auxiliary drill needed).
    add(t, 2, -1);
    if (lo > part_start_) close_part(lo - 1, ctx);
    const bool still = add(t, 2, +1);
    // A fresh part holding one vertex may legitimately saturate a counter;
    // it is closed by the next arrival.
    (void)still;
    next_pos_ = hi + 1;
    return;
  }
  // Group case (Algorithm 2): restore the counters, drill into the aux run.
  add(t, 2, -1);
  ctx.request_aux();
}

void greedy_layer_algorithm::on_aux(const pp_token& t, pp_context& ctx) {
  const auto pos = std::int64_t(t.at(0));
  DCL_EXPECTS(pos == next_pos_, "aux tokens must continue the tiling");
  const bool overflow = add(t, 1, +1);
  if (overflow && pos > part_start_) {
    add(t, 1, -1);
    close_part(pos - 1, ctx);
    add(t, 1, +1);
  }
  next_pos_ = pos + 1;
}

void greedy_layer_algorithm::finish(pp_context& ctx) {
  DCL_ENSURE(next_pos_ == domain_size_, "stream did not cover the domain");
  if (part_start_ < domain_size_) close_part(domain_size_ - 1, ctx);
}

balance_messages_algorithm::balance_messages_algorithm(
    std::int64_t num_messages, std::int64_t total_comm_degree,
    std::int64_t pool_size)
    : num_messages_(num_messages),
      total_comm_degree_(total_comm_degree),
      pool_size_(pool_size) {
  DCL_EXPECTS(num_messages >= 0 && total_comm_degree >= 1 && pool_size >= 1,
              "bad balance parameters");
}

pp_limits balance_messages_algorithm::limits() const {
  return {.n_out = pool_size_, .b_aux = 0, .b_write = 1};
}

void balance_messages_algorithm::on_main(const pp_token& t,
                                         pp_context& ctx) {
  const auto v = t.at(0);
  const auto deg = std::int64_t(t.at(1));
  // Half-average test: deg >= mu/2  <=>  2*deg*k >= m.
  if (2 * deg * pool_size_ < total_comm_degree_) return;
  const std::int64_t l =
      2 * ceil_div(num_messages_ * deg, total_comm_degree_);
  if (l == 0) return;
  ctx.write(pp_token{v, std::uint64_t(leaf_ + 1), std::uint64_t(leaf_ + l)});
  leaf_ += l;
}

void balance_messages_algorithm::on_aux(const pp_token&, pp_context&) {
  DCL_ENSURE(false, "balance algorithm never requests aux");
}

void balance_messages_algorithm::finish(pp_context& ctx) { (void)ctx; }

}  // namespace dcl
