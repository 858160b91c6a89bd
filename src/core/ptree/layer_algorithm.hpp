#pragma once
// The counter-based partial-pass machines of §4:
//
//  * greedy_layer_algorithm — one layer of a partition tree (Lemma 17 for
//    H-partition trees, Algorithm 2 / Lemma 29 for split K_p trees). The
//    input stream carries degree summaries per contiguous vertex group
//    (main tokens) and per vertex (aux tokens); the machine greedily grows
//    the current part until a counter would overflow, drilling into the
//    group via GET-AUX to place the boundary exactly.
//
//  * balance_messages_algorithm — Algorithm 1 (Lemma 20): allocates
//    numbered messages to vertices proportionally to communication degree.
//
// Both have poly(log n) state and are run through pp_simulate (Thm 11).

#include <vector>

#include "core/streaming/pp_algorithm.hpp"

namespace dcl {

/// Main token layout:  [lo, hi, value_0, ..., value_{F-1}]  — the group of
/// positions [lo, hi] and the *sums* of each tracked value over the group.
/// Aux token layout:   [pos, value_0, ..., value_{F-1}]     — one position.
/// Output tokens:      [lo, hi] inclusive part intervals tiling the domain.
class greedy_layer_algorithm final : public pp_algorithm {
 public:
  struct counter_spec {
    std::vector<int> fields;   ///< which value fields this counter sums
    std::int64_t max_value = 0;
  };

  greedy_layer_algorithm(std::vector<counter_spec> counters,
                         std::int64_t domain_size, std::int64_t max_parts);

  pp_limits limits() const override;
  std::int64_t state_words() const override;
  void reset() override;
  void on_main(const pp_token& t, pp_context& ctx) override;
  void on_aux(const pp_token& t, pp_context& ctx) override;
  void finish(pp_context& ctx) override;

 private:
  /// Adds the value vector to the counters; true if any exceeds its max.
  bool add(const pp_token& t, int first_field, std::int64_t scale);
  void close_part(std::int64_t end_pos, pp_context& ctx);

  std::vector<counter_spec> spec_;
  std::int64_t domain_size_;
  std::int64_t max_parts_;

  // State (all O(#counters) words).
  std::vector<std::int64_t> acc_;
  std::int64_t part_start_ = 0;
  std::int64_t next_pos_ = 0;  ///< first position not yet committed
};

/// Algorithm 1 (Lemma 20). Input: one singleton main token per pool vertex,
/// layout [pool_pos, comm_degree]. Output tokens [pool_pos, first, last]
/// allocate message numbers first..last (1-based) to that vertex; vertices
/// below half-average degree receive nothing (the paper's WRITE(v, ∅) is
/// elided). Guarantees: every message number in [1, M] is allocated, and a
/// vertex receives at most 2*ceil(M*deg/m) messages.
class balance_messages_algorithm final : public pp_algorithm {
 public:
  /// M = messages to allocate, m = total communication degree (so the
  /// average is mu = m / k over k pool vertices).
  balance_messages_algorithm(std::int64_t num_messages,
                             std::int64_t total_comm_degree,
                             std::int64_t pool_size);

  pp_limits limits() const override;
  std::int64_t state_words() const override { return 2; }
  void reset() override { leaf_ = 0; }
  void on_main(const pp_token& t, pp_context& ctx) override;
  void on_aux(const pp_token&, pp_context&) override;
  void finish(pp_context& ctx) override;

 private:
  std::int64_t num_messages_;
  std::int64_t total_comm_degree_;
  std::int64_t pool_size_;
  std::int64_t leaf_ = 0;
};

}  // namespace dcl
