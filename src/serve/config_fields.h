#ifndef QJO_SERVE_CONFIG_FIELDS_H_
#define QJO_SERVE_CONFIG_FIELDS_H_

#include <type_traits>

#include "core/quantum_optimizer.h"

namespace qjo {

/// The field list of a request config: one VisitFields overload for each
/// of the nine structs a QjoConfig carries. Each destructures its struct
/// with a structured binding, so a data member added without being named
/// here does not compile, and names every member once on the visitor `v`:
///  * `v.Key(tag, field)` — the field changes the answer; the plan key
///    appends it under `tag`, in the order listed;
///  * `v.Flags(tag, flags...)` — booleans keyed as one bitmask (bit 0 first);
///  * `v.Encoding(thresholds, num_thresholds, omega)` — keyed through
///    JoEncodingFingerprint, which opens the key;
///  * `v.Nested(field[, group])` — a struct with its own list; `group`
///    marks where its keys start;
///  * `v.Neutral(name, field)` — never changes a result (the comment says
///    why), so it must not split the plan cache. Only RunContext has
///    neutral fields: every options struct holds only fields that change
///    the answer.
/// OptimizerService::PlanKey walks the list; serve_test perturbs each field.
template <typename T, typename Config>
concept FieldListOf = std::is_same_v<std::remove_const_t<T>, Config>;

void VisitFields(FieldListOf<RunContext> auto& run, auto& v) {
  auto& [deadline_ms, pool, stop, trace, metrics] = run;
  v.Key("dl", deadline_ms);
  v.Neutral("run.pool", pool);        // results never depend on the pool
  v.Neutral("run.stop", stop);        // a stopped answer is never cached
  v.Neutral("run.trace", trace);      // observing never changes a result
  v.Neutral("run.metrics", metrics);  // likewise
}

void VisitFields(FieldListOf<DeviceProperties> auto& device, auto& v) {
  auto& [name, t1_us, t2_us, avg_gate_time_ns, one_qubit_error,
         two_qubit_error] = device;
  v.Key("dev", name);
  v.Key("t1", t1_us);
  v.Key("t2", t2_us);
  v.Key("gate_ns", avg_gate_time_ns);
  v.Key("e1", one_qubit_error);
  v.Key("e2", two_qubit_error);
}

void VisitFields(FieldListOf<TranspileOptions> auto& transpile, auto& v) {
  auto& [gate_set, routing, seed] = transpile;
  v.Key("tr_gates", gate_set);
  v.Key("tr_route", routing);
  v.Key("tr_seed", seed);
}

void VisitFields(FieldListOf<SqaOptions> auto& sqa, auto& v) {
  auto& [num_reads, annealing_time_us, sweeps_per_us, trotter_slices,
         relative_temperature, relative_initial_field, ice_sigma] = sqa;
  v.Key("reads", num_reads);
  v.Key("us", annealing_time_us);
  v.Key("spu", sweeps_per_us);
  v.Key("slices", trotter_slices);
  v.Key("temp", relative_temperature);
  v.Key("field", relative_initial_field);
  v.Key("ice", ice_sigma);
}

void VisitFields(FieldListOf<EmbeddingOptions> auto& embedding, auto& v) {
  auto& [tries, max_passes] = embedding;
  v.Key("emb_tries", tries);
  v.Key("emb_passes", max_passes);
}

void VisitFields(FieldListOf<EmbedQuboOptions> auto& embed_qubo, auto& v) {
  auto& [chain_strength_multiplier, chain_strength_override] = embed_qubo;
  v.Key("csm", chain_strength_multiplier);
  v.Key("cso", chain_strength_override);
}

void VisitFields(FieldListOf<DecompOptions> auto& decomp, auto& v) {
  auto& [window, max_rounds, stall_rounds, subsolver_reads,
         subsolver_sweeps] = decomp;
  v.Key("d_w", window);
  v.Key("d_mr", max_rounds);
  v.Key("d_sr", stall_rounds);
  v.Key("d_reads", subsolver_reads);
  v.Key("d_sweeps", subsolver_sweeps);
}

void VisitFields(FieldListOf<PortfolioOptions> auto& portfolio, auto& v) {
  auto& [sweep_budget, reads_per_round, sweeps_per_round, enable_exact,
         enable_sa, enable_tabu, enable_sqa, enable_qaoa, max_exact_variables,
         enable_decomp, min_decomp_relations, decomp] = portfolio;
  v.Key("p_sb", sweep_budget);
  v.Key("p_rpr", reads_per_round);
  v.Key("p_spr", sweeps_per_round);
  v.Flags("p_strands", enable_exact, enable_sa, enable_tabu, enable_sqa,
          enable_qaoa, enable_decomp);
  v.Key("p_mev", max_exact_variables);
  v.Key("p_mdr", min_decomp_relations);
  v.Nested(decomp);
}

void VisitFields(FieldListOf<QjoConfig> auto& config, auto& v) {
  auto& [backend, thresholds, num_thresholds, omega, seed, run, shots,
         qaoa_iterations, qaoa_grid, device, transpile, gate_topology,
         noiseless, sqa, embedding, embed_qubo, annealer_topology,
         portfolio] = config;
  v.Encoding(thresholds, num_thresholds, omega);
  v.Key("backend", backend);
  v.Key("seed", seed);
  v.Key("shots", shots);
  v.Key("qi", qaoa_iterations);
  v.Key("qg", qaoa_grid);
  v.Key("noiseless", noiseless);
  v.Nested(run);
  v.Nested(device);
  v.Nested(transpile);
  v.Key("gate_topo", gate_topology);
  v.Key("anneal_topo", annealer_topology);
  v.Nested(sqa, "sqa");
  v.Nested(embedding);
  v.Nested(embed_qubo);
  v.Nested(portfolio);
}

}  // namespace qjo

#endif  // QJO_SERVE_CONFIG_FIELDS_H_
