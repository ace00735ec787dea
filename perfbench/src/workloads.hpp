// The three workloads. Each phase function builds its inputs from
// phase.seed before timing starts, runs for about phase.seconds, checks the
// program's outputs and reports every metric it exercises.
#pragma once

#include "bench.hpp"

namespace perfbench {

// Open-loop Poisson arrivals at 100k/s through AsyncExecutor::async_submit.
Report kv_async_open_phase(const Phase& phase);
// The highest rate of a fixed ladder that meets the p99 SLO with no failed
// op and an achieved arrival rate tracking the offered one (0 if none).
double kv_async_open_slo_rate(const Phase& phase, Report& r);

// Closed loop: 4 clients, Bank::transfer(..., Policy::retry()).
Report bank_sync_phase(const Phase& phase);

// Closed loop: 4 clients, one-shot submit on a hot set of 4 locks under
// the paper's delays (DelayMode::kTheory).
Report hot_trylock_phase(const Phase& phase);

}  // namespace perfbench
