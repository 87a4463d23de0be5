#ifndef QJO_SIM_SQA_REFERENCE_H_
#define QJO_SIM_SQA_REFERENCE_H_

#include <vector>

#include "qubo/ising.h"
#include "qubo/solvers_reference.h"
#include "sim/sqa.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// Test and benchmark oracle for RunSqa (sim/sqa.h): simulated quantum
/// annealing one read at a time, the scalar loop production ran before it
/// settled on SoA replica groups, with its arithmetic unchanged. Part of
/// qjo_sim_reference, which only test binaries and benchmarks link.
///
/// Serial; takes no RunContext (no pool, no early stop, no trace or
/// metrics). Read r runs on Rng(rng.Next()).Fork(r) and draws
/// exactly what RunSqa's lane r draws. With kLocalFields the samples
/// equal RunSqa's bit for bit on any coefficients, ICE noise included;
/// kScan recomputes each classical field by an O(degree) scan and is
/// bit-identical on dyadic coefficients without noise. Fails like RunSqa.
StatusOr<std::vector<SqaSample>> RunSqaReference(const IsingModel& ising,
                                                 const SqaOptions& options,
                                                 Rng& rng,
                                                 ReferenceDelta delta);

}  // namespace qjo

#endif  // QJO_SIM_SQA_REFERENCE_H_
