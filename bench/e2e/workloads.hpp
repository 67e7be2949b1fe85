// The four workloads. Each is a closed loop with one client on one thread:
// it builds its inputs from opts.seed, sets up (several times, so setup_s is
// a median), runs operations until opts.seconds have passed and at least
// its digest prefix is done, checks the outputs, and fills `report` with the
// end-to-end metrics (untraced) or the layer ledger (traced).
#pragma once

#include "bench/e2e/ledger.hpp"

namespace blab::bench::e2e {

void run_paper_job(const Options& opts, Report& report);
void run_usability_session(const Options& opts, Report& report);
void run_fleet_query(const Options& opts, Report& report);
void run_scenario_corpus(const Options& opts, Report& report);

}  // namespace blab::bench::e2e
