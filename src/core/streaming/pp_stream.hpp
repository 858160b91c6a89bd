#pragma once
// Partial-pass input streams (§3): a sequence of main tokens, each with an
// associated (possibly empty) run of auxiliary tokens that GET-AUX exposes.

#include <vector>

#include "core/streaming/pp_token.hpp"

namespace dcl {

struct pp_main_entry {
  pp_token main;
  std::vector<pp_token> aux;
};

using pp_stream = std::vector<pp_main_entry>;

}  // namespace dcl
