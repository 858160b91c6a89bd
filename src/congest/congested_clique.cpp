#include "congest/congested_clique.hpp"

#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "support/check.hpp"

namespace dcl {

congested_clique::congested_clique(vertex n, cost_ledger& ledger,
                                   trace_recorder* rec)
    : n_(n), ledger_(&ledger), rec_(rec) {
  DCL_EXPECTS(n >= 2, "congested clique needs at least two vertices");
}

std::int64_t congested_clique::exchange(const message_batch& io,
                                        std::string_view phase) {
  for (const auto& m : io)
    DCL_EXPECTS(m.src >= 0 && m.src < n_ && m.dst >= 0 && m.dst < n_ &&
                    m.src != m.dst,
                "invalid clique message endpoints");
  const auto pairs = count_pairs(io.span(), keys_);
  ledger_->charge(phase, pairs.max, std::int64_t(io.size()));
  if (rec_ != nullptr)
    rec_->record_exchange(phase, io.span(), n_, pairs.max, pairs.distinct);
  return pairs.max;
}

}  // namespace dcl
