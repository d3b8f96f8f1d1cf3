// The untraced binary's stand-in for madd_probe.cpp: no probe is linked, so
// the totals are reported as unavailable.

#include "common.hpp"

namespace ledger {

void madd_probe_reset() {}

MaddTotals madd_probe_totals() { return MaddTotals{}; }

}  // namespace ledger
